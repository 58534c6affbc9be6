"""Polar tangential coordinates for ovals.

The support function p(theta) is the distance from the origin to the tangent
line with outward normal (cos theta, sin theta). It is sampled on a uniform
grid over [0, 2*pi); the grid count is required even so that theta + pi always
lands on a grid node (symmetrization then needs no interpolation).

Derivatives are spectral: the samples are read as a trigonometric polynomial
and differentiated through their FFT, on the grid and between its nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .curves import ClosedCurve, _CSV, is_convex, signed_area, winding_number
from .errors import NotAnOval, NotConvex, OriginOutside

FloatArray = NDArray[np.float64]

MIN_GRID = 16


def _differentiate(coef: np.ndarray, order: int) -> np.ndarray:
    """rfft coefficients of the ``order``-th derivative, from those of p."""
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise ValueError(f"derivative order must be a non-negative integer, got {order!r}")
    coef = coef * (1j * np.arange(coef.size)) ** order
    if order % 2:
        coef[-1] = 0.0  # Nyquist mode has no well-defined odd derivative
    return coef


def _check_grid(count: int) -> None:
    """The grid-count rule of every support grid: even and >= MIN_GRID."""
    if count < MIN_GRID or count % 2 != 0:
        raise ValueError(f"grid count must be even and >= {MIN_GRID}, got {count}")


@dataclass(frozen=True)
class SupportFunction:
    """Positive support samples on the uniform grid theta_k = 2*pi*k/count."""

    values: FloatArray

    def __post_init__(self):
        v = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if v.ndim != 1:
            raise ValueError("support samples must be a 1-D array")
        _check_grid(v.size)
        if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
            raise ValueError("support samples must be finite and strictly positive")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def count(self) -> int:
        return self.values.size

    @property
    def step(self) -> float:
        return 2.0 * np.pi / self.count

    @property
    def theta(self) -> FloatArray:
        return 2.0 * np.pi * np.arange(self.count) / self.count

    def derivative(self, order: int = 1) -> FloatArray:
        """Periodic derivative of the given order on the grid."""
        return np.fft.irfft(_differentiate(np.fft.rfft(self.values), order), n=self.count)

    def curvature_radius(self) -> FloatArray:
        """p + p'' on the grid (the radius of curvature of the oval)."""
        return self.values + self.derivative(2)

    @cached_property
    def _series_coefficients(self) -> dict:
        # order -> weighted series coefficients, built once per instance and
        # order by eval: the chord search calls it once per order per gap
        return {}

    def eval(self, theta, order: int = 0):
        """Evaluate p (or a derivative) at arbitrary angles.

        Evaluates the interpolating trigonometric polynomial, which is exact
        for band-limited support functions.
        """
        theta = np.asarray(theta, dtype=float)
        coef = self._series_coefficients.get(order)
        if coef is None:
            coef = _differentiate(np.fft.rfft(self.values) / self.count, order)
            # real series: c_0 + 2*Re sum_{k>=1} c_k e^{ik theta}, Nyquist unhalved
            weights = np.full(coef.size, 2.0)
            weights[0] = 1.0
            weights[-1] = 1.0  # the count is even, so the last coefficient is Nyquist
            coef = self._series_coefficients[order] = weights * coef
        phases = np.exp(1j * np.multiply.outer(theta, np.arange(coef.size)))
        return np.real(phases @ coef)

    @cached_property
    def _curve(self) -> ClosedCurve:
        return _oval_curve(self)  # once per instance: a chord search and symmetrize read it 4 times


def support_from_curve(curve: ClosedCurve, count: int) -> SupportFunction:
    """Extract support samples of a convex curve containing the origin.

    Uses the vertex-max form p(theta) = max_i <x_i, u(theta)>, which stays
    robust on polygons where normal directions jump at vertices. The maximum
    sits at the vertex between the two edges whose outward normals bracket
    theta, so each grid angle finds it by binary search over the unwrapped
    edge-normal angles of the counter-clockwise polygon, then takes the max
    over that vertex and its two neighbours, which absorbs rounding in the
    angles: O((n + count) log n) instead of a dense n x count product.
    The search needs those angles to turn once, never back. ``is_convex``
    tolerates a near-duplicate sample whose tiny edge points anywhere; such
    a polygon takes the max over every vertex instead.
    """
    _check_grid(count)
    if not is_convex(curve):
        raise NotConvex("support function requires a convex curve")
    if winding_number(curve, (0.0, 0.0)) == 0:
        raise OriginOutside("origin must lie strictly inside the curve")
    pts = curve.points if signed_area(curve) > 0.0 else curve.points[::-1]
    e = np.roll(pts, -1, axis=0) - pts
    ang = np.unwrap(np.arctan2(-e[:, 0], e[:, 1]))  # outward normal of edge i
    theta = 2.0 * np.pi * np.arange(count) / count
    if np.any(np.diff(ang) < 0.0) or ang[-1] - ang[0] > 2.0 * np.pi:
        block = max(1, 4_000_000 // len(pts))  # angles per (n x block) product
        u = np.column_stack([np.cos(theta), np.sin(theta)])
        return SupportFunction(np.concatenate(
            [(pts @ u[k:k + block].T).max(axis=0) for k in range(0, count, block)]))
    j = np.searchsorted(ang, ang[0] + np.mod(theta - ang[0], 2.0 * np.pi))
    near = pts[(j[:, None] + np.arange(-1, 2)) % len(pts)]  # vertices j - 1, j, j + 1
    p = near[..., 0] * np.cos(theta)[:, None] + near[..., 1] * np.sin(theta)[:, None]
    return SupportFunction(p.max(axis=1))


def _oval_map(p, dp, c, s):
    """The oval point with normal (c, s): x = p c - p' s, y = p s + p' c."""
    return p * c - dp * s, p * s + dp * c


def _oval_curve(p: SupportFunction) -> ClosedCurve:
    rad = p.curvature_radius()
    if np.min(rad) <= 0.0:
        raise NotAnOval(f"p + p'' reaches {np.min(rad):.6g}; not a strictly convex oval")
    c, s = np.cos(p.theta), np.sin(p.theta)
    return ClosedCurve(np.column_stack(_oval_map(p.values, p.derivative(1), c, s)))


def curve_from_support(p: SupportFunction, mode: str = "spectral") -> ClosedCurve:
    """Reconstruct the oval: x = p cos - p' sin, y = p sin + p' cos.

    Built once per ``p`` and shared, as it is immutable. ``mode`` accepts only
    ``"spectral"``; it stays because the benchmark in ``perfbench/`` passes it.
    """
    if mode != "spectral":
        raise ValueError(f"unknown derivative mode {mode!r}")
    return p._curve


def cauchy_length(p: SupportFunction) -> float:
    """Perimeter as the full-period integral of p (trapezoid = rectangle rule)."""
    return float(p.step * p.values.sum())


def area_from_support(p: SupportFunction) -> float:
    """Enclosed area 0.5 * integral of p * (p + p'')."""
    return float(0.5 * p.step * np.sum(p.values * p.curvature_radius()))


def write_support_csv(p: SupportFunction, path) -> None:
    """Write ``theta,p`` lines to a path or a text stream."""
    np.savetxt(path, np.column_stack([p.theta, p.values]), **_CSV)
