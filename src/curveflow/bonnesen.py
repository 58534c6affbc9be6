"""Inradius, circumradius, and the inner-parallel-area quadratic.

For a convex domain the area of the inner parallel set at offset t is
A - L*t + pi*t^2; its roots t1 <= t2 bracket the inradius and circumradius,
t1 <= r <= R <= t2, with any equality forcing a circle. The module measures
all four quantities on the sample polygon and reports the chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, count

import numpy as np

from .curves import ClosedCurve, _deferred, _edges, _positive, is_convex, length, signed_area
from .errors import IsoperimetricViolation, NotConvex, SolverFailed

linprog = _deferred("scipy.optimize", "linprog")


@dataclass(frozen=True)
class BonnesenReport:
    area: float
    length: float
    inradius: float
    circumradius: float
    t1: float
    t2: float
    chain_ok: bool
    equality_gap: float


# Constraint generation for the inradius LP: the edges each round adds to
# those solved, and the rounds before a solve on every edge. The rounds also
# cap the pivot that seeds it.
_BATCH_EDGES = 16
_MAX_ROUNDS = 64
# The pivot's start: the edges whose outward normals lie closest to these.
_THIRDS = np.array([[1.0, 0.0], [-0.5, math.sqrt(0.75)], [-0.5, -math.sqrt(0.75)]])


def _incircle_from_three(o, b, basis):
    """Centre and radius held by three edges, or None unless they are a basis.

    Solves o_i . (x, y) + r = b_i for the three edges by Cramer's rule. The
    dual weights are the cofactors of the column of ones over the
    determinant. They sum to 1, and the three edges are a basis of the LP
    when the determinant is nonzero and no weight is below -1e-12.
    """
    (ax, ay), (bx, by), (cx, cy) = o[basis].tolist()
    ba, bb, bc = b[basis].tolist()
    wa, wb, wc = bx * cy - by * cx, cx * ay - cy * ax, ax * by - ay * bx
    d = wa + wb + wc
    if d == 0.0 or min(wa / d, wb / d, wc / d) < -1e-12:
        return None
    x = (ba * (by - cy) + bb * (cy - ay) + bc * (ay - by)) / d
    y = (ba * (cx - bx) + bb * (ax - cx) + bc * (bx - ax)) / d
    return x, y, (wa * ba + wb * bb + wc * bc) / d


def _segment_end(o, gap, basis):
    """The edge that ends a degenerate basis's segment of optima, in a list.

    When two basis edges are antiparallel, the third has no dual weight, and
    the LP on the three alone is optimal all along the pair's midline, from
    the centre away from the third edge up to the bounding box. HiGHS may
    return that far end. The first edge the centre meets on the way, the
    least gap = slack - r over its rate of closing, ends the segment. Edges
    that close at no more than 1e-12 run along the midline. A basis whose
    weights all exceed 1e-12 has one optimum and needs no such edge.
    """
    u = o[basis]
    w = u[[1, 2, 0], 0] * u[[2, 0, 1], 1] - u[[1, 2, 0], 1] * u[[2, 0, 1], 0]
    w = w / w.sum()
    k = int(np.argmin(w))
    if w[k] > 1e-12:
        return []
    along = np.array([-u[k - 1, 1], u[k - 1, 0]])
    if u[k] @ along > 0.0:
        along = -along
    rate = o @ along
    step = np.full(len(o), np.inf)
    np.divide(np.maximum(gap, 0.0), rate, out=step, where=rate > 1e-12)
    return [int(np.argmin(step))]


def _incircle_basis(o, b):
    """Edges that hold the Chebyshev centre of o_i . x + r <= b_i, and its circle.

    The active-set dual of the Elzinga-Hearn iteration that
    ``minimal_enclosing_circle`` runs. It starts from the edges whose
    outward normals o_i lie closest to three directions 120 degrees apart.
    Each round takes the edge q closest to the centre. Once q is at least
    r * (1 - 1e-12) away the circle is optimal, and the pivot returns the
    basis, plus the edge from ``_segment_end``, and the circle (x, y, r).
    Otherwise, of the bases that swap q in for one edge, it keeps the one
    with the smallest r. Two antiparallel basis edges pin r, so a swap may
    only tie it, up to 1e-14 relative of rounding. The pivot gives up,
    returning the last basis and circle, when no swap is a basis, when r
    would grow by more, or after 64 rounds. The circle is None when the
    start edges are no basis.
    """
    basis = [int(np.argmax(o @ d)) for d in _THIRDS]
    circle = _incircle_from_three(o, b, basis)
    for _ in range(_MAX_ROUNDS):
        if circle is None:
            break
        x, y, r = circle
        slack = b - o @ (x, y)
        q = int(np.argmin(slack))
        if slack[q] >= r * (1.0 - 1e-12):
            return basis + _segment_end(o, slack - r, basis), circle
        best = None
        for k in range(3):
            swapped = basis[:k] + [q] + basis[k + 1:]
            c = _incircle_from_three(o, b, swapped)
            if c is not None and (best is None or c[2] < best[0][2]):
                best = c, swapped
        if best is None or best[0][2] > r * (1.0 + 1e-14):
            break
        circle, basis = best
    return basis, circle


def inradius(curve: ClosedCurve) -> tuple[float, np.ndarray]:
    """Chebyshev center of the convex sample polygon.

    Maximizes the minimum distance to the edge lines, which for a convex
    polygon equals the distance to the boundary: the linear program
    max r s.t. n_i . x + r <= n_i . v_i over inward normals n_i. HiGHS's
    tolerances are absolute, so the LP is solved with the bounding box
    centred on the origin and scaled by a power of two to an extent below 1.
    It is solved by constraint generation (Elzinga & Hearn, Management
    Science 19, 1972). The first solve takes the three edges that
    ``_incircle_basis`` finds to hold the centre, so it is usually the only
    one. While some edge not yet taken lies closer to the centre than
    r * (1 - 1e-12), the 16 closest of them join and the LP is solved again.
    After 64 such rounds the last solve takes every edge. A start that is no
    basis therefore costs rounds, not accuracy. Raises ``SolverFailed`` when
    a solve fails.
    """
    if not is_convex(curve):
        raise NotConvex("inradius requires a convex curve")
    pts = curve.points
    n = len(pts)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    shift, scale = 0.5 * (lo + hi), 2.0 ** math.frexp(float(np.max(hi - lo)))[1]
    pts, lo, hi = (pts - shift) / scale, (lo - shift) / scale, (hi - shift) / scale
    e = _edges(pts)
    orient = 1.0 if signed_area(curve) > 0.0 else -1.0
    inward = orient * np.column_stack([-e[:, 1], e[:, 0]]) / np.hypot(e[:, 0], e[:, 1])[:, None]
    # inward . (x - v_i) >= r  <=>  -inward . x + r <= -inward . v_i
    a_ub = np.column_stack([-inward, np.ones(n)])
    b_ub = -np.einsum("ij,ij->i", inward, pts)
    # A solve on a subset of the edges bounds x and y by the bounding box,
    # which holds the centre, so it stays bounded whatever the subset. It is
    # held to 1e-10 feasibility, not HiGHS's 1e-7: a centre up to 1e-7 of the
    # extent inside a solved edge inflates r, and the test of the other edges.
    box = [(lo[0], hi[0]), (lo[1], hi[1]), (0.0, None)]
    active = np.unique(_incircle_basis(a_ub[:, :2], b_ub)[0])
    for rounds in count(1):
        res = linprog(c=[0.0, 0.0, -1.0], A_ub=a_ub[active], b_ub=b_ub[active], bounds=box,
                      method="highs", options={"primal_feasibility_tolerance": 1e-10})
        if not res.success:
            raise SolverFailed(f"Chebyshev center LP failed: {res.message}")
        r, center = float(res.x[2]), res.x[:2]
        slack = b_ub - a_ub[:, :2] @ center
        slack[active] = np.inf  # the solved edges hold to HiGHS's tolerance
        if slack.min() >= r * (1.0 - 1e-12):  # always once every edge is solved
            return r * scale, center * scale + shift
        if rounds == _MAX_ROUNDS:
            active = np.arange(n)
        else:
            batch = min(_BATCH_EDGES, n - active.size)
            active = np.concatenate([active, np.argpartition(slack, batch - 1)[:batch]])


def _circle_from_two(a, b):
    cx, cy = 0.5 * (a[0] + b[0]), 0.5 * (a[1] + b[1])
    r = max(math.hypot(cx - a[0], cy - a[1]), math.hypot(cx - b[0], cy - b[1]))
    return cx, cy, r


def _circle_from_three(a, b, c):
    ox = (min(a[0], b[0], c[0]) + max(a[0], b[0], c[0])) / 2.0
    oy = (min(a[1], b[1], c[1]) + max(a[1], b[1], c[1])) / 2.0
    ax, ay = a[0] - ox, a[1] - oy
    bx, by = b[0] - ox, b[1] - oy
    cx, cy = c[0] - ox, c[1] - oy
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    if d == 0.0:
        return None
    x = ox + ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
              + (cx * cx + cy * cy) * (ay - by)) / d
    y = oy + ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
              + (cx * cx + cy * cy) * (bx - ax)) / d
    r = max(math.hypot(x - a[0], y - a[1]),
            math.hypot(x - b[0], y - b[1]),
            math.hypot(x - c[0], y - c[1]))
    return x, y, r


_EPS_FACTOR = 1.0 + 1e-14


def minimal_enclosing_circle(points) -> tuple[float, float, float]:
    """Smallest circle containing the points, by the Elzinga-Hearn iteration.

    The circle rests on a rim of at most three points. Each round takes the
    point farthest from the centre and, of the circles through two or three
    of the rim points and that point, keeps the smallest that holds them all
    (Elzinga & Hearn, Management Science 19, 1972). The radius grows every
    round, so the iteration ends. The circle is unique, so nothing is
    randomized. Raises ValueError on no points or a non-finite one.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise ValueError("no points given")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    first = tuple(pts[0].tolist())
    far = np.argmax(np.hypot(pts[:, 0] - first[0], pts[:, 1] - first[1]))
    rim = [first, tuple(pts[far].tolist())]
    circle = _circle_from_two(*rim)  # (x, y, 0.0) when every point is pts[0]
    while True:
        x, y, r = circle
        d = np.hypot(pts[:, 0] - x, pts[:, 1] - y)
        q = int(np.argmax(d))
        if d[q] <= r * _EPS_FACTOR:
            return circle
        held = rim + [tuple(pts[q].tolist())]
        best = None
        for k, build in ((2, _circle_from_two), (3, _circle_from_three)):
            for sub in combinations(held, k):
                c = build(*sub)
                if c is not None and (best is None or c[2] < best[0][2]) and all(
                        math.hypot(a - c[0], b - c[1]) <= c[2] * _EPS_FACTOR for a, b in held):
                    best = c, list(sub)
        if best is None or best[0][2] <= r:
            return circle  # the radius did not grow: rounding, not a larger circle
        circle, rim = best


def circumradius(curve: ClosedCurve) -> tuple[float, np.ndarray]:
    """Radius and center of the minimal circle enclosing the curve samples."""
    x, y, r = minimal_enclosing_circle(curve.points)
    return float(r), np.array([x, y])


def bonnesen_roots(area: float, length_value: float) -> tuple[float, float]:
    """Roots of pi*t^2 - L*t + A, clamped to the double root near equality.
    Raises ValueError unless A and L are finite and positive."""
    _positive("area", area)
    _positive("length", length_value)
    disc = length_value * length_value - 4.0 * math.pi * area
    if disc < -1e-9 * length_value * length_value:
        raise IsoperimetricViolation(
            f"L^2 - 4*pi*A = {disc:.6g} < 0: no real roots; inputs are inconsistent"
        )
    root = math.sqrt(max(disc, 0.0))
    return (length_value - root) / (2.0 * math.pi), (length_value + root) / (2.0 * math.pi)


def bonnesen_chain(curve: ClosedCurve, tol: float | None = None, seed: int = 0) -> BonnesenReport:
    """Measure A, L, r, R, t1, t2 and verify t1 <= r <= R <= t2.

    ``tol`` (finite, > 0) defaults to 1e-6 times the curve diameter. The
    quadratic is also checked to be negative at the midpoint of (t1, t2) when
    the roots are distinct; one interior point suffices for an upward parabola.
    ``seed`` has no effect: the enclosing circle is deterministic. It stays
    because the benchmark in ``perfbench/`` passes it.
    """
    if tol is not None:
        _positive("tol", tol)
    r, _ = inradius(curve)  # raises NotConvex first: the quadratic needs a convex domain
    big_r, _ = circumradius(curve)
    area = abs(signed_area(curve))
    perim = length(curve)
    t1, t2 = bonnesen_roots(area, perim)
    if tol is None:
        tol = 1e-6 * curve.diameter
    chain_ok = (t1 <= r + tol) and (r <= big_r + tol) and (big_r <= t2 + tol)
    if t1 < t2:
        mid = 0.5 * (t1 + t2)
        chain_ok = chain_ok and (area - perim * mid + math.pi * mid * mid) < 0.0
    gap = max(r - t1, t2 - big_r)
    return BonnesenReport(
        area=area,
        length=perim,
        inradius=r,
        circumradius=big_r,
        t1=t1,
        t2=t2,
        chain_ok=chain_ok,
        equality_gap=gap,
    )
