"""Sample curve and support-function generators for experiments and tests."""

from __future__ import annotations

import numpy as np

from .curves import ClosedCurve
from .support import SupportFunction


def circle(n: int = 256, radius: float = 1.0, center=(0.0, 0.0), clockwise: bool = False,
           phase: float = 0.0) -> ClosedCurve:
    t = phase + 2.0 * np.pi * np.arange(n) / n
    if clockwise:
        t = -t
    pts = np.column_stack([center[0] + radius * np.cos(t), center[1] + radius * np.sin(t)])
    return ClosedCurve(pts)


def nonuniform_circle(n: int = 1024, radius: float = 1.0, seed: int = 0,
                      jitter: float = 0.35) -> ClosedCurve:
    """Circle sampled at jittered angles; spacing is uneven but monotone."""
    rng = np.random.default_rng(seed)
    t = 2.0 * np.pi * np.arange(n) / n
    t = t + jitter * (2.0 * np.pi / n) * rng.uniform(-1.0, 1.0, size=n)
    pts = radius * np.column_stack([np.cos(t), np.sin(t)])
    return ClosedCurve(pts)


def ellipse(n: int = 1024, a: float = 2.0, b: float = 1.0, center=(0.0, 0.0)) -> ClosedCurve:
    t = 2.0 * np.pi * np.arange(n) / n
    pts = np.column_stack([center[0] + a * np.cos(t), center[1] + b * np.sin(t)])
    return ClosedCurve(pts)


def square(side: float = 1.0, center=(0.0, 0.0)) -> ClosedCurve:
    h = 0.5 * side
    pts = np.array([[-h, -h], [h, -h], [h, h], [-h, h]]) + np.asarray(center, dtype=float)
    return ClosedCurve(pts)


def rounded_square(n: int = 512, side: float = 2.0, corner_radius: float = 0.4) -> ClosedCurve:
    """Square with quarter-circle corners, sampled uniformly in arclength."""
    if not 0.0 < corner_radius < 0.5 * side:
        raise ValueError("corner radius must sit in (0, side/2)")
    s = 0.5 * side - corner_radius
    straight = 2.0 * s
    arc = 0.5 * np.pi * corner_radius
    perimeter = 4.0 * (straight + arc)
    corners = np.array([[s, s], [-s, s], [-s, -s], [s, -s]])
    base_angles = np.array([0.0, 0.5 * np.pi, np.pi, 1.5 * np.pi])
    pts = []
    for u in perimeter * np.arange(n) / n:
        quadrant, local = divmod(u, straight + arc)
        quadrant = int(quadrant)
        if local < straight:
            # straight run before the corner of this quadrant
            ang = base_angles[quadrant]
            nx, ny = np.cos(ang), np.sin(ang)  # outward normal of the side
            tx, ty = -ny, nx
            start = np.array([nx, ny]) * (s + corner_radius) + np.array([tx, ty]) * (-s)
            pts.append(start + local * np.array([tx, ty]))
        else:
            sweep = (local - straight) / corner_radius
            ang = base_angles[quadrant] + sweep
            pts.append(corners[quadrant] + corner_radius * np.array([np.cos(ang), np.sin(ang)]))
    return ClosedCurve(np.array(pts))


def l_hexagon(scale: float = 1.0) -> ClosedCurve:
    """L-shaped hexagon (one reflex vertex), counter-clockwise."""
    pts = scale * np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]], dtype=float)
    return ClosedCurve(pts)


def limacon(n: int = 512, inner: float = 1.0, outer: float = 0.5) -> ClosedCurve:
    """Limacon r = outer + inner*cos(t) with an inner loop when inner > outer."""
    t = 2.0 * np.pi * np.arange(n) / n
    r = outer + inner * np.cos(t)
    pts = np.column_stack([r * np.cos(t), r * np.sin(t)])
    return ClosedCurve(pts)


def doubled_circle(n: int = 512, radius: float = 1.0) -> ClosedCurve:
    """Two full loops of a circle: turning number +2, not embedded."""
    t = 4.0 * np.pi * np.arange(n) / n
    # for even n the second loop lands on the first loop's samples (to rounding)
    pts = radius * np.column_stack([np.cos(t), np.sin(t)])
    return ClosedCurve(pts)


def cosine_oval_support(count: int, coefficients: dict[int, tuple[float, float]],
                        mean: float = 1.0) -> SupportFunction:
    """Support samples of p = mean + sum_k (a_k cos k0 + b_k sin k0)."""
    theta = 2.0 * np.pi * np.arange(count) / count
    p = np.full(count, float(mean))
    for k, (a, b) in coefficients.items():
        p += a * np.cos(k * theta) + b * np.sin(k * theta)
    return SupportFunction(p)


def random_oval_support(count: int, seed: int, *, max_harmonic: int = 4,
                        roundness: float = 0.35, symmetric: bool = False,
                        offset: float = 0.0) -> SupportFunction:
    """Seeded random smooth oval given by a truncated cosine/sine series.

    Harmonic amplitudes are rescaled so that min(p + p'') >= roundness, which
    keeps the curve strictly convex. ``offset`` adds a first-harmonic term
    that translates the curve away from the origin (the support function
    stops being centrally symmetric without changing the shape).
    ``symmetric`` keeps only even harmonics, giving p(theta+pi) = p(theta).
    """
    rng = np.random.default_rng(seed)
    harmonics = range(2, max_harmonic + 1, 2) if symmetric else range(2, max_harmonic + 1)
    coeffs: dict[int, tuple[float, float]] = {}
    budget = 0.0
    for k in harmonics:
        a, b = rng.uniform(-1.0, 1.0, size=2)
        coeffs[k] = (a, b)
        budget += (k * k - 1.0) * np.hypot(a, b)
    if budget > 0.0:
        scale = (1.0 - roundness) / budget
        coeffs = {k: (a * scale, b * scale) for k, (a, b) in coeffs.items()}
    if offset != 0.0:
        ang = rng.uniform(0.0, 2.0 * np.pi)
        coeffs[1] = (offset * np.cos(ang), offset * np.sin(ang))
    return cosine_oval_support(count, coeffs)
