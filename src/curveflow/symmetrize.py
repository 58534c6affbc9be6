"""Gage's equal-area chord and point-reflection symmetrization.

For an oval, the chord joining the boundary points with opposite normals at
angles theta and theta + pi cuts the domain into two parts; the cut area
sigma(theta) is continuous and satisfies sigma(theta) + sigma(theta + pi) = A,
so some chord bisects the area. Reflecting each arc through the chord midpoint
produces two centrally symmetric ovals of the same area, which reduces the
general shrinker classification to the symmetric case.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, replace

import numpy as np
from numpy.typing import NDArray

from .bonnesen import bonnesen_chain
from .curves import (ClosedCurve, _cyclic_next, _positive, _shoelace, _vertex_turns, is_convex,
                     length, signed_area)
from .errors import (
    NotAShrinker,
    NotConvexAfterGluing,
    NotSymmetric,
    ToleranceNotMet,
)
from .support import SupportFunction, curve_from_support

FloatArray = NDArray[np.float64]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ChordCut:
    """An opposite-normal chord and the area on its [theta, theta+pi] side.

    ``evaluations`` counts the gap evaluations of the chord search that found
    it: 0 when a grid node bisects, or when :func:`chord_cut` built it.
    """

    theta: float
    endpoints: FloatArray  # (2, 2): boundary points at theta and theta + pi
    midpoint: FloatArray
    sigma: float
    evaluations: int = 0


@dataclass(frozen=True)
class SymmetrizedPair:
    """The two centrally symmetric ovals glued from the chord arcs."""

    curve1: ClosedCurve
    curve2: ClosedCurve
    junction_tangent_gap: float
    theta0: float
    sigma: float
    omega0: FloatArray

    def sidecar(self) -> dict:
        """The fields of the CLI's ``symmetrize_report.json``, in order."""
        return {
            "theta0": self.theta0,
            "sigma": self.sigma,
            "omega0": [float(self.omega0[0]), float(self.omega0[1])],
            "junction_tangent_gap": self.junction_tangent_gap,
            "areas": [signed_area(self.curve1), signed_area(self.curve2)],
            "lengths": [length(self.curve1), length(self.curve2)],
        }


def _arc_polygon(p: SupportFunction, vertices: FloatArray, theta: float,
                 start: FloatArray, end: FloatArray) -> FloatArray:
    """Vertices from theta to theta + pi: the exact endpoints ``start`` =
    P(theta) and ``end`` = P(theta + pi) plus the interior grid nodes."""
    n = p.count
    h = p.step
    j0 = int(math.ceil(theta / h - 1e-12))
    j1 = int(math.floor((theta + math.pi) / h + 1e-12))
    idx = np.arange(j0, j1 + 1)
    inner = vertices[np.mod(idx, n)]
    tiny = 1e-12 * float(np.mean(p.values))
    if inner.shape[0] and np.hypot(*(inner[0] - start)) < tiny:
        inner = inner[1:]
    if inner.shape[0] and np.hypot(*(inner[-1] - end)) < tiny:
        inner = inner[:-1]
    return np.vstack([start, inner, end])


def _other_arc(p: SupportFunction, vertices: FloatArray, cut: ChordCut) -> FloatArray:
    """The arc from theta + pi to theta + 2 pi, closed on the cut's own
    endpoints, so that both arcs share them exactly."""
    return _arc_polygon(p, vertices, cut.theta + math.pi, cut.endpoints[1], cut.endpoints[0])


def chord_cut(p: SupportFunction, theta: float) -> ChordCut:
    """Chord between the boundary points at theta and theta + pi.

    The endpoints are evaluated spectrally, between grid nodes too, which
    keeps sigma continuous in theta for the chord search.
    """
    theta = float(np.mod(theta, 2.0 * np.pi))
    vertices = curve_from_support(p).points
    start, end = endpoints = p._opposite_points(theta)
    return ChordCut(
        theta=theta,
        endpoints=endpoints,
        midpoint=0.5 * (start + end),
        sigma=_shoelace(_arc_polygon(p, vertices, theta, start, end)),
    )


def node_cut_areas(p: SupportFunction) -> np.ndarray:
    """sigma at every grid node in one pass (cumulative shoelace sums).

    Entry j is the area bounded by the arc from node j to node j + count/2
    and the closing chord; opposite entries sum exactly to the polygon area.
    """
    pts = curve_from_support(p).points
    n = p.count
    half = n // 2
    nxt = _cyclic_next(pts)
    cross = pts[:, 0] * nxt[:, 1] - nxt[:, 0] * pts[:, 1]
    csum = np.concatenate([[0.0], np.cumsum(np.tile(cross, 2))])
    arcs = csum[np.arange(n) + half] - csum[np.arange(n)]
    j2 = (np.arange(n) + half) % n
    closing = pts[j2, 0] * pts[:, 1] - pts[:, 0] * pts[j2, 1]
    return 0.5 * (arcs + closing)


def _cell_gap(p: SupportFunction, vertices: FloatArray, j: int):
    """g(theta) = sigma(theta) - sigma(theta + pi) for theta in [j*h, (j+1)*h].

    Inside the cell the interior vertices of both arcs are fixed, nodes
    j+1..j+half and j+half+1..j+count, so the two shoelaces differ by their
    constant interior sums plus cross products with the spectral endpoints a =
    P(theta) and b = P(theta + pi):

        2g = S1 - S2 + a x (V_j + V_{j+1}) - b x (V_{j+half} + V_{j+half+1}) + 2 b x a.

    The sums cost O(count) once; each evaluation then costs one spectral row
    for both endpoints (``SupportFunction._opposite_points``).
    """
    half = p.count // 2
    v = np.roll(vertices, -j, axis=0)  # v[k] is node j + k
    nxt = _cyclic_next(v)
    cross = v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1]
    fixed = float(cross[1:half].sum() - cross[half + 1:].sum())
    u = v[0] + v[1]
    w = v[half] + v[half + 1]

    def gap(theta: float) -> float:
        (xa, ya), (xb, yb) = p._opposite_points(theta)
        return 0.5 * float(fixed + xa * u[1] - ya * u[0] - xb * w[1] + yb * w[0]
                           + 2.0 * (xb * ya - yb * xa))

    return gap


def _illinois(f, a: float, b: float, max_iter: int = 100) -> tuple[float, int, bool]:
    """A root of f in [a, b] by Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971).

    Each step takes the secant point and keeps the sub-bracket whose ends
    differ in sign. When one end is retained twice in a row its stored f is
    halved, which stops plain regula falsi's one-sided crawl on a convex f.
    Stops at f(c) == 0 or |b - a| <= 2e-12 + 4*eps*|c|. Returns the root, the
    evaluations of f and whether it stopped within ``max_iter`` steps; raises
    ToleranceNotMet when f(a) and f(b) do not differ in sign.
    """
    fa, fb = f(a), f(b)
    if not fa * fb < 0.0:
        raise ToleranceNotMet(f"chord search bracket has gaps {fa:.3g} and {fb:.3g} of one sign")
    kept = 0  # +1 after a step that retained a, -1 after one that retained b
    for step in range(1, max_iter + 1):
        c = (a * fb - b * fa) / (fb - fa)
        fc = f(c)
        if fc == 0.0:
            return c, step + 2, True
        if (fc < 0.0) == (fa < 0.0):
            a, fa = c, fc
            fb = 0.5 * fb if kept == -1 else fb
            kept = -1
        else:
            b, fb = c, fc
            fa = 0.5 * fa if kept == 1 else fa
            kept = 1
        if abs(b - a) <= 2e-12 + 4.0 * sys.float_info.epsilon * abs(c):
            return c, step + 2, True
    return c, max_iter + 2, False


def find_bisecting_chord(p: SupportFunction, tol: float = 1e-8) -> ChordCut:
    """The chord with sigma(theta) = sigma(theta + pi), bracketed on the grid.

    The gap g(theta) = sigma(theta) - sigma(theta + pi) is odd under theta ->
    theta + pi, so the node gaps change sign in [0, pi]. Unless a node already
    meets ``tol``, Illinois regula falsi solves g = 0 in the first cell where
    they do. There g is smooth and costs O(1) per evaluation, as the interior
    nodes of both arcs are fixed (``_cell_gap``). The returned theta is checked
    with the full arc shoelaces: ``tol`` bounds |sigma - A/2| relative to the
    area A, and a miss or a search that does not stop raises ToleranceNotMet.
    The cut records the number of gap evaluations. Each call logs one debug
    record under ``curveflow.symmetrize``: the bisecting node or the searched
    cell, the gap evaluations and |sigma - A/2| / A.
    """
    _positive("tol", tol)
    sigma = node_cut_areas(p)
    half = p.count // 2
    area = sigma[0] + sigma[half]
    bound = 2.0 * tol * area
    g = sigma - np.roll(sigma, -half)
    hits = np.flatnonzero(np.abs(g[:half]) <= bound)
    if hits.size:
        node = int(hits[0])
        if log.isEnabledFor(logging.DEBUG):
            log.debug("find_bisecting_chord: node %d bisects, 0 evaluations, "
                      "|sigma - A/2|/A = %.3g", node, abs(g[node]) / (2.0 * area))
        return chord_cut(p, node * p.step)
    j = int(np.flatnonzero(g[:half] * g[1 : half + 1] < 0.0)[0])
    vertices = curve_from_support(p).points
    theta, evaluations, converged = _illinois(_cell_gap(p, vertices, j),
                                              j * p.step, (j + 1) * p.step)
    cut = chord_cut(p, theta)
    miss = abs(cut.sigma - _shoelace(_other_arc(p, vertices, cut)))
    if log.isEnabledFor(logging.DEBUG):
        log.debug("find_bisecting_chord: cell %d searched in %d evaluations, "
                  "|sigma - A/2|/A = %.3g", j, evaluations, miss / (2.0 * area))
    if not converged or miss > bound:
        raise ToleranceNotMet(f"equal-area chord search ended at |sigma(t) - sigma(t+pi)| = "
                              f"{miss:.3g} against {bound:.3g}"
                              + ("" if converged else ", without converging"))
    return replace(cut, evaluations=evaluations)


def symmetrize(p: SupportFunction, cut: ChordCut) -> SymmetrizedPair:
    """Glue each chord arc with its point reflection through the midpoint.

    The reflection maps one chord endpoint to the other, so each glued polygon
    closes; vertex i and vertex i + m/2 are exact reflections, making the
    output centrally symmetric by construction. Convexity of both halves is
    verified and fails only when the grid is too coarse.
    """
    vertices = curve_from_support(p).points
    omega = cut.midpoint
    curves = []
    gaps = []
    for arc in (_arc_polygon(p, vertices, cut.theta, *cut.endpoints),
                _other_arc(p, vertices, cut)):
        glued = np.vstack([arc, 2.0 * omega - arc[1:-1]])
        curve = ClosedCurve(glued)
        if not is_convex(curve):
            raise NotConvexAfterGluing(
                "symmetrized arc is not convex; refine the support grid"
            )
        curves.append(curve)
        turns = _vertex_turns(curve.edges())
        # turns at the two gluing points: the arc's last vertex and vertex 0
        gaps += [abs(turns[arc.shape[0] - 1]), abs(turns[0])]
    return SymmetrizedPair(
        curve1=curves[0],
        curve2=curves[1],
        junction_tangent_gap=float(max(gaps)),
        theta0=cut.theta,
        sigma=cut.sigma,
        omega0=omega,
    )


@dataclass(frozen=True)
class SymmetricShrinkerReport:
    """Numerical form of the symmetric-case contradiction scaffold.

    For a centrally symmetric solution of kappa = p the support is pinched
    between the inradius and circumradius, r <= p <= R; strict Bonnesen
    inequalities would then force the impossible strict bound
    pi*p^2 < L*p - pi, so the support must be constant: a circle.
    """

    is_circle: bool
    p_min: float
    p_max: float
    inradius: float
    circumradius: float
    t1: float
    t2: float
    symmetry_dev: float
    shrinker_residual: float
    bounds_ok: bool


def symmetric_shrinker_check(p: SupportFunction, tol: float = 1e-2) -> SymmetricShrinkerReport:
    """Check a symmetric support function against the shrinker relation.

    Raises NotSymmetric when p(theta + pi) deviates from p(theta) by more than
    ``tol`` (relative to the mean support) and NotAShrinker when the relation
    kappa = p fails at the same tolerance. The verdict is whether p is
    constant within ``tol``, which every symmetric numerical shrinker must be.
    Raises ValueError unless 0 < tol < inf.
    """
    _positive("tol", tol)
    scale = float(np.mean(p.values))
    half = p.count // 2
    sym_dev = float(np.max(np.abs(p.values - np.roll(p.values, half))))
    if sym_dev > tol * scale:
        raise NotSymmetric(
            f"support is not centrally symmetric: max |p(t) - p(t+pi)| = {sym_dev:.3g}"
        )
    curve = curve_from_support(p)
    rad = p.curvature_radius()
    residual = float(np.max(np.abs(1.0 / rad - p.values)))
    if residual > tol:
        raise NotAShrinker(
            f"curvature 1/(p+p'') deviates from p by {residual:.3g} > tol = {tol:.3g}"
        )
    chain = bonnesen_chain(curve)
    p_min = float(np.min(p.values))
    p_max = float(np.max(p.values))
    bounds_ok = (chain.inradius <= p_min + tol * scale
                 and p_max <= chain.circumradius + tol * scale)
    is_circle = (p_max - p_min) <= tol * scale
    return SymmetricShrinkerReport(
        is_circle=is_circle,
        p_min=p_min,
        p_max=p_max,
        inradius=chain.inradius,
        circumradius=chain.circumradius,
        t1=chain.t1,
        t2=chain.t2,
        symmetry_dev=sym_dev,
        shrinker_residual=residual,
        bounds_ok=bounds_ok,
    )
