"""Discrete closed plane curves and their differential-geometric measurements.

A curve is an ordered loop of 2D samples; the polygon closes implicitly from
the last point back to the first. Orientation is carried by point order and is
never auto-corrected: positive (counter-clockwise) order gives positive signed
area and positive curvature on convex curves.
"""

from __future__ import annotations

import importlib
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateSegment, InputError, TooFewPoints, ToleranceNotMet

FloatArray = NDArray[np.float64]

# Relative scale below which two consecutive samples count as coincident.
_DEGENERATE_REL = 1e-12
# The np.savetxt arguments of every CSV the package writes: 17 significant
# digits round-trip a float64, so np.loadtxt reads back the same values.
_CSV = {"fmt": "%.17g", "delimiter": ",", "comments": ""}
# resample_arclength's tolerance on the chords' spread about their mean, and
# the smoothing passes it may take to meet it.
_ARCLENGTH_REL_TOL = 1e-10
_ARCLENGTH_PASSES = 200


def _edges(pts):
    """Cyclic edge vectors: row i runs from sample i to sample i + 1, on (n, 2)
    samples or on complex samples x + iy."""
    e = np.empty_like(pts)
    e[:-1] = pts[1:] - pts[:-1]
    e[-1] = pts[0] - pts[-1]
    return e


def _box(pts: FloatArray) -> tuple[float, float, float, float]:
    """(xmin, ymin, xmax, ymax) of an (n, 2) sample array.

    One column at a time: numpy reduces a strided column about 8x faster
    than axis 0 of an (n, 2) array at n = 2048, and 17x at 65536. min and
    max are exact, so the values are those of the axis-0 reduction."""
    x, y = pts[:, 0], pts[:, 1]
    return x.min(), y.min(), x.max(), y.max()


def _deferred(module: str, name: str):
    """``module.name`` as a function that imports ``module`` on each call.

    Binding SciPy's solvers this way keeps ``import curveflow`` from loading
    SciPy, so a run that never solves skips its import cost. The first call
    imports it; later calls find it in ``sys.modules``.
    """

    def call(*args, **kwargs):
        return getattr(importlib.import_module(module), name)(*args, **kwargs)

    return call


def _positive(name: str, value) -> None:
    """The package's one rule for a tolerance, step, amplitude or size: 0 < value < inf."""
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value}")


@dataclass(frozen=True)
class ClosedCurve:
    """Ordered 2D sample loop; the closing point is not duplicated.

    The constructor owns the sample checks (n >= 3, finite coordinates, no
    coincident neighbours); every function that takes a ClosedCurve trusts them.
    """

    points: FloatArray

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise TooFewPoints(f"expected an (n, 2) array, got shape {pts.shape}")
        if pts.shape[0] < 3:
            raise TooFewPoints(f"a closed curve needs >= 3 points, got {pts.shape[0]}")
        if not np.isfinite(pts).all():
            raise DegenerateSegment("curve contains non-finite coordinates")
        object.__setattr__(self, "points", pts)
        chords = self.chord_lengths()
        # A closed polygon is at least twice as long as its bounding-box diagonal,
        # so chords above 1e-12 of the length pass the extent test without it.
        if (chords.min() <= _DEGENERATE_REL * chords.sum()
                and np.any(chords <= _DEGENERATE_REL * self.diameter)):
            raise DegenerateSegment("consecutive samples coincide")
        pts.setflags(write=False)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def diameter(self) -> float:
        """Bounding-box diagonal; the scale used for relative tolerances."""
        x0, y0, x1, y1 = _box(self.points)
        return float(np.hypot(x1 - x0, y1 - y0))

    def edges(self) -> FloatArray:
        return _edges(self.points)

    def chord_lengths(self) -> FloatArray:
        e = self.edges()
        return np.hypot(e[:, 0], e[:, 1])

    def reversed(self) -> "ClosedCurve":
        return ClosedCurve(self.points[::-1].copy())

    def translated(self, offset) -> "ClosedCurve":
        return ClosedCurve(self.points + np.asarray(offset, dtype=float))

    def rotated(self, angle: float) -> "ClosedCurve":
        c, s = np.cos(angle), np.sin(angle)
        rot = np.array([[c, -s], [s, c]])
        return ClosedCurve(self.points @ rot.T)

    def scaled(self, factor: float) -> "ClosedCurve":
        return ClosedCurve(self.points * float(factor))


@dataclass(frozen=True)
class FrenetData:
    """Per-sample moving frame: unit tangent, left unit normal, signed curvature.

    For a counter-clockwise curve the left normal points inward. ``points``
    holds the samples the frame refers to.
    """

    points: FloatArray
    tangent: FloatArray
    normal: FloatArray
    curvature: FloatArray


def length(curve: ClosedCurve) -> float:
    """Polygon perimeter: the sum of cyclic chord lengths."""
    return float(curve.chord_lengths().sum())


def _shoelace(pts: FloatArray) -> float:
    """Signed area of the closed polygon through an (n, 2) array of vertices."""
    x, y = pts[:, 0], pts[:, 1]
    total = float(np.dot(x[:-1], y[1:]) - np.dot(x[1:], y[:-1]))
    total += float(x[-1] * y[0] - x[0] * y[-1])
    return 0.5 * total


def signed_area(curve: ClosedCurve) -> float:
    """Shoelace area; positive for counter-clockwise orientation."""
    return _shoelace(curve.points)


def centroid(curve: ClosedCurve) -> FloatArray:
    """Area centroid of the enclosed polygon (vertex mean if area ~ 0)."""
    pts = curve.points
    nxt = _cyclic_next(pts)
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = nxt[:, 0], nxt[:, 1]
    cross = x * yn - xn * y
    a = 0.5 * cross.sum()
    if abs(a) < 1e-300:
        return pts.mean(axis=0)
    cx = np.sum((x + xn) * cross) / (6.0 * a)
    cy = np.sum((y + yn) * cross) / (6.0 * a)
    return np.array([cx, cy])


def resample_arclength(curve: ClosedCurve, m: int) -> ClosedCurve:
    """Redistribute to ``m`` samples with equal consecutive chord lengths.

    Samples stay on the input polygon: an initial placement at equal
    cumulative-chord positions is followed by smoothing passes that slide the
    parameters until the chords agree to 1e-10 of their mean. The first
    sample stays pinned at the first input point. Raises ToleranceNotMet when
    200 passes do not meet that tolerance. The resample trusts the sample
    checks of the ClosedCurve constructor. Samples and edges are complex views
    x + iy of the contiguous samples, for one gather per array and pass.
    Chords are ``hypot`` of their parts: complex ``abs`` rounds differently.
    """
    if m < 3:
        raise TooFewPoints(f"resampling needs m >= 3, got {m}")
    zp = curve.points.view(complex)[:, 0]
    ze = _edges(zp)
    seglen = np.hypot(ze.real, ze.imag)
    cum = np.zeros(len(seglen) + 1)
    np.cumsum(seglen, out=cum[1:])
    seg = cum[1:] - cum[:-1]
    total = cum[-1]
    fractions = np.arange(m) / m
    t = total * fractions
    t_knots = np.empty(m + 1)
    t_knots[m] = total
    u = np.zeros(m + 1)
    for _ in range(_ARCLENGTH_PASSES + 1):
        # the point at arclength s lies on edge idx: searchsorted gives idx >= 0
        # because cum[0] = 0 <= s, and the cap catches np.mod rounding up to total
        s = np.mod(t, total)
        idx = np.searchsorted(cum, s, side="right")
        idx -= 1
        np.minimum(idx, len(seglen) - 1, out=idx)
        frac = (s - cum[idx]) / seg[idx]
        z = zp[idx] + frac * ze[idx]
        d = _edges(z)
        chords = np.hypot(d.real, d.imag)
        mean = chords.sum() / m
        if abs(chords - mean).max() <= _ARCLENGTH_REL_TOL * mean:
            return ClosedCurve(z.view(float).reshape(m, 2))
        np.cumsum(chords, out=u[1:])
        t_knots[:m] = t
        t = np.interp(u[m] * fractions, u, t_knots)
    raise ToleranceNotMet(f"arclength resample missed rel_tol {_ARCLENGTH_REL_TOL:g} "
                          f"in {_ARCLENGTH_PASSES} passes")


def _cyclic_prev(a: FloatArray) -> FloatArray:
    """a shifted so index i holds a[i-1]; one copy, cheaper than a roll in hot loops."""
    out = np.empty_like(a)
    out[0] = a[-1]
    out[1:] = a[:-1]
    return out


def _cyclic_next(a: FloatArray) -> FloatArray:
    """a shifted so index i holds a[i+1]."""
    out = np.empty_like(a)
    out[:-1] = a[1:]
    out[-1] = a[0]
    return out


def _vertex_turns(e: FloatArray) -> FloatArray:
    """Signed turning angle at each vertex, from the cyclic edge vectors."""
    ang = np.arctan2(e[:, 1], e[:, 0])
    turn = ang - _cyclic_prev(ang)
    return (turn + np.pi) % (2.0 * np.pi) - np.pi


def _winding(turns: FloatArray) -> int:
    """The vertex turns added up to whole turns: the turning number."""
    return int(round(float(turns.sum()) / (2.0 * np.pi)))


def signed_curvature(curve: ClosedCurve) -> FrenetData:
    """Moving frame with curvature from tangent-angle differences.

    Curvature at vertex i is the turn between the adjacent edges divided by
    the average adjacent chord length; second-order accurate on near-uniform
    arclength grids (use :func:`resample_arclength` first when spacing is
    uneven). The normal is the tangent rotated by +pi/2.
    """
    e = curve.edges()
    chords = np.hypot(e[:, 0], e[:, 1])
    ds = 0.5 * (chords + _cyclic_prev(chords))
    kappa = _vertex_turns(e) / ds
    unit = e / chords[:, None]
    tangent = unit + _cyclic_prev(unit)
    norms = np.hypot(tangent[:, 0], tangent[:, 1])
    degenerate = norms < 1e-14
    if np.any(degenerate):
        # 180-degree reversal at a vertex; fall back to the outgoing edge
        tangent[degenerate] = unit[degenerate]
        norms[degenerate] = 1.0
    tangent /= norms[:, None]
    normal = np.column_stack([-tangent[:, 1], tangent[:, 0]])
    return FrenetData(points=curve.points, tangent=tangent, normal=normal, curvature=kappa)


def turning_number(curve: ClosedCurve) -> int:
    """Total tangent turning divided by 2*pi, rounded to the nearest integer."""
    return _winding(_vertex_turns(curve.edges()))


def is_convex(curve: ClosedCurve) -> bool:
    """True iff all consecutive-edge cross products share one sign, no vertex
    turns by pi and the turning number is +-1.

    Cross products within 1e-12 of zero (relative to the squared diameter)
    count as collinear and do not break convexity. A pentagram or a doubly
    covered circle turns one way at every vertex but winds twice. A spike
    that doubles back along an edge has a zero cross product; its turn, within
    1e-12 of pi, fails the bound that ``is_simple``'s convex exit also uses.
    """
    e = curve.edges()
    ep = _cyclic_prev(e)
    cross = ep[:, 0] * e[:, 1] - ep[:, 1] * e[:, 0]
    tol = 1e-12 * curve.diameter ** 2
    if np.any(cross > tol) and np.any(cross < -tol):
        return False
    turns = _vertex_turns(e)
    return abs(_winding(turns)) == 1 and bool(np.all(np.abs(turns) < np.pi - 1e-12))


def _segments_intersect(p1, p2, p3, p4) -> bool:
    """Proper or improper intersection of segments p1p2 and p3p4."""

    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    if ((d1 > 0 and d2 < 0) or (d1 < 0 and d2 > 0)) and (
        (d3 > 0 and d4 < 0) or (d3 < 0 and d4 > 0)
    ):
        return True

    def on_segment(a, b, c):
        return (
            min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        )

    if d1 == 0 and on_segment(p3, p4, p1):
        return True
    if d2 == 0 and on_segment(p3, p4, p2):
        return True
    if d3 == 0 and on_segment(p1, p2, p3):
        return True
    if d4 == 0 and on_segment(p1, p2, p4):
        return True
    return False


def is_simple(curve: ClosedCurve) -> bool:
    """True iff no two non-adjacent edges intersect.

    A polygon whose vertex turns share one sign, stay short of a reversal and
    add up to one full turn is convex, hence simple: that O(n) test comes
    first. Otherwise edges are swept by x-extent.
    """
    turns = _vertex_turns(curve.edges())
    winding = _winding(turns)
    if abs(winding) == 1:
        turns = winding * turns
        # a turn within rounding of pi may be an exact reversal, as on a
        # polygon that doubles back along itself: leave it to the edge pairs
        if np.all(turns >= 0.0) and np.all(turns < np.pi - 1e-12):
            return True
    return _is_simple_sweep(curve.points)


def _is_simple_sweep(pts: FloatArray) -> bool:
    n = pts.shape[0]
    nxt = _cyclic_next(pts)
    xmin = np.minimum(pts[:, 0], nxt[:, 0])
    xmax = np.maximum(pts[:, 0], nxt[:, 0])
    ymin = np.minimum(pts[:, 1], nxt[:, 1])
    ymax = np.maximum(pts[:, 1], nxt[:, 1])
    order = np.argsort(xmin, kind="stable")
    xmin_s = xmin[order]
    for pos, i in enumerate(order):
        hi = np.searchsorted(xmin_s, xmax[i], side="right")
        for j in order[pos + 1 : hi]:
            if j == i or (i + 1) % n == j or (j + 1) % n == i:
                continue
            if ymax[i] < ymin[j] or ymax[j] < ymin[i]:
                continue
            if _segments_intersect(pts[i], nxt[i], pts[j], nxt[j]):
                return False
    return True


def winding_number(curve: ClosedCurve, point) -> int:
    """Winding number of the closed polygon around ``point``."""
    px, py = float(point[0]), float(point[1])
    pts = curve.points
    nxt = _cyclic_next(pts)
    x, y = pts[:, 0], pts[:, 1]
    xn, yn = nxt[:, 0], nxt[:, 1]
    cross = (xn - x) * (py - y) - (px - x) * (yn - y)
    up = (y <= py) & (yn > py) & (cross > 0)
    down = (y > py) & (yn <= py) & (cross < 0)
    return int(np.sum(up) - np.sum(down))


def read_curve_csv(path) -> ClosedCurve:
    """Read an ``x,y``-per-line curve file (no header, order = orientation).
    Raises TooFewPoints on a file that holds no samples."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
    except ValueError as exc:
        raise InputError(f"cannot parse curve file {path}: {exc}") from exc
    if data.size == 0:
        raise TooFewPoints(f"curve file {path} holds no samples")
    return ClosedCurve(data)


def write_curve_csv(curve: ClosedCurve, path) -> None:
    """Write the curve as ``x,y`` lines with 17 significant digits."""
    np.savetxt(path, curve.points, **_CSV)
