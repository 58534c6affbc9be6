"""Gage's equal-area chord and point-reflection symmetrization.

For an oval, the chord joining the boundary points with opposite normals at
angles theta and theta + pi cuts the domain into two parts; the cut area
sigma(theta) is continuous and satisfies sigma(theta) + sigma(theta + pi) = A,
so some chord bisects the area. Reflecting each arc through the chord midpoint
produces two centrally symmetric ovals of the same area, which reduces the
general shrinker classification to the symmetric case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .bonnesen import bonnesen_chain
from .curves import (ClosedCurve, _deferred, _shoelace, _vertex_turns, is_convex,
                     length, signed_area)
from .errors import (
    NotAShrinker,
    NotConvexAfterGluing,
    NotSymmetric,
    ToleranceNotMet,
)
from .support import SupportFunction, _oval_map, curve_from_support

FloatArray = NDArray[np.float64]

brentq = _deferred("scipy.optimize", "brentq")


@dataclass(frozen=True)
class ChordCut:
    """An opposite-normal chord and the area on its [theta, theta+pi] side."""

    theta: float
    endpoints: FloatArray  # (2, 2): boundary points at theta and theta + pi
    midpoint: FloatArray
    sigma: float


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


def _oval_point(p: SupportFunction, theta: float) -> np.ndarray:
    pv = float(p.eval(theta, order=0))
    dv = float(p.eval(theta, order=1))
    return np.array(_oval_map(pv, dv, math.cos(theta), math.sin(theta)))


def _arc_polygon(p: SupportFunction, vertices: FloatArray, theta: float) -> FloatArray:
    """Vertices from theta to theta + pi: exact endpoints plus interior grid nodes."""
    n = p.count
    h = p.step
    j0 = int(math.ceil(theta / h - 1e-12))
    j1 = int(math.floor((theta + math.pi) / h + 1e-12))
    idx = np.arange(j0, j1 + 1)
    inner = vertices[np.mod(idx, n)]
    start = _oval_point(p, theta)
    end = _oval_point(p, theta + math.pi)
    tiny = 1e-12 * float(np.mean(p.values))
    if inner.shape[0] and np.hypot(*(inner[0] - start)) < tiny:
        inner = inner[1:]
    if inner.shape[0] and np.hypot(*(inner[-1] - end)) < tiny:
        inner = inner[:-1]
    return np.vstack([start, inner, end])


def chord_cut(p: SupportFunction, theta: float) -> ChordCut:
    """Chord between the boundary points at theta and theta + pi.

    The endpoints are evaluated spectrally, between grid nodes too, which
    keeps sigma continuous in theta for the chord search.
    """
    theta = float(np.mod(theta, 2.0 * np.pi))
    vertices = curve_from_support(p).points
    arc = _arc_polygon(p, vertices, theta)
    sigma = _shoelace(arc)
    endpoints = np.vstack([arc[0], arc[-1]])
    return ChordCut(
        theta=theta,
        endpoints=endpoints,
        midpoint=0.5 * (arc[0] + arc[-1]),
        sigma=sigma,
    )


def node_cut_areas(p: SupportFunction) -> np.ndarray:
    """sigma at every grid node in one pass (cumulative shoelace sums).

    Entry j is the area bounded by the arc from node j to node j + count/2
    and the closing chord; opposite entries sum exactly to the polygon area.
    """
    pts = curve_from_support(p).points
    n = p.count
    half = n // 2
    nxt = np.roll(pts, -1, axis=0)
    cross = pts[:, 0] * nxt[:, 1] - nxt[:, 0] * pts[:, 1]
    csum = np.concatenate([[0.0], np.cumsum(np.tile(cross, 2))])
    arcs = csum[np.arange(n) + half] - csum[np.arange(n)]
    j2 = (np.arange(n) + half) % n
    closing = pts[j2, 0] * pts[:, 1] - pts[:, 0] * pts[j2, 1]
    return 0.5 * (arcs + closing)


def find_bisecting_chord(p: SupportFunction, tol: float = 1e-8) -> ChordCut:
    """The chord with sigma(theta) = sigma(theta + pi), bracketed on the grid.

    The gap g(theta) = sigma(theta) - sigma(theta + pi) is odd under theta ->
    theta + pi, so the node gaps change sign in [0, pi]. Unless a node already
    meets ``tol``, brentq solves g = 0 in the first cell where they do; g is
    smooth there, as the interior nodes of both arcs are fixed. ``tol`` bounds
    |sigma - A/2| relative to the area A.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be > 0 and finite, got {tol}")
    sigma = node_cut_areas(p)
    half = p.count // 2
    area = sigma[0] + sigma[half]
    bound = 2.0 * tol * area
    g = sigma - np.roll(sigma, -half)
    hits = np.flatnonzero(np.abs(g[:half]) <= bound)
    if hits.size:
        return chord_cut(p, hits[0] * p.step)
    j = int(np.flatnonzero(g[:half] * g[1 : half + 1] < 0.0)[0])
    vertices = curve_from_support(p).points

    def gap(theta: float) -> float:
        return (_shoelace(_arc_polygon(p, vertices, theta))
                - _shoelace(_arc_polygon(p, vertices, theta + math.pi)))

    theta, result = brentq(gap, j * p.step, (j + 1) * p.step, full_output=True, disp=False)
    miss = abs(gap(theta))
    if not result.converged or miss > bound:
        raise ToleranceNotMet(f"equal-area chord search ended at |sigma(t) - sigma(t+pi)| = "
                              f"{miss:.3g} > {bound:.3g}")
    return chord_cut(p, theta)


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
    for theta in (cut.theta, cut.theta + math.pi):
        arc = _arc_polygon(p, vertices, theta)
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
    """
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
