"""Exponential spectral time-stepping of the curve shortening flow.

Every step leaves the samples equidistributed in arclength (the discrete
stand-in for the tangential reparametrization that turns normal-speed motion
into the full flow), so the second difference along the curve is circulant
with symbol 4 sin^2(pi k/m) / h^2 for mean chord h. One step integrates
z_t = z_ss exactly for that symbol on z = x + iy: a predictor with the metric
h and a corrector with the midpoint metric h*h1, h1 the predictor's mean
chord, followed by a resample that raises ToleranceNotMet if it misses. The
step is unconditionally stable, and on a regular polygon the k = 1 symbol is
exactly 1/R^2, so the circle law holds exactly in space. The kernel takes h
and dt from its callers. csf_step takes the caller's dt, finite and > 0.
run_flow steps by dt = 2 h^2, cut to end on its horizon, and shrinks the
sample count with the curve so that step stays bounded below until the area
floor; its final state is its last recorded step. That step size is fixed:
at 4 h^2 the circle law on a 96-sample circle misses 1e-3. run_flow and
rescaled_flow refuse clockwise curves and curves of fewer than 32 samples,
on which one step of 2 h^2 swallows the whole curve.

The renormalized variant rescales to enclosed area pi after every step and
advances physical time by the squared scale factor, so the recorded scale of
an exact circle follows sqrt(1 - 2t). It steps by a fixed normalized dt of
8e-3, cut to end on its horizon, not 2 h^2: the regular polygon is a fixed
point of every step size, so the limit does not depend on dt, and the step
count to stationarity does not grow with n.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .curves import (
    ClosedCurve,
    _CSV,
    _centroid,
    _checked_chords,
    _edges,
    _positive,
    _resample,
    _shoelace,
    is_convex,
    length,
    signed_area,
)
from .errors import (
    CurveCollapsed,
    NotConvex,
    ToleranceNotMet,
    TooFewSamples,
)
from .shrinker import ShrinkerReport, verify_shrinker

FloatArray = NDArray[np.float64]

# The fewest samples run_flow and rescaled_flow take; run_flow's decimation floor.
_MIN_SAMPLES = 32
# The step policy: dt = _DT_FACTOR * (mean chord)^2.
_DT_FACTOR = 2.0
# run_flow stops with "step_budget", and rescaled_flow gives up, after these many steps.
_MAX_STEPS = 2_000_000
_RESCALED_MAX_STEPS = 500_000
# rescaled_flow's step in normalized time; at 1.6e-2 its clock misses the
# circle law by 1.5e-4.
_RESCALED_DT = 8e-3
# rescaled_flow stops once its displacement rate falls below this.
_STATIONARY_TOL = 3e-4
# Smoothing passes the flow's arclength resample may take to meet rel_tol 1e-8.
_RESAMPLE_PASSES = 20


@dataclass(frozen=True)
class FlowState:
    curve: ClosedCurve
    time: float = 0.0
    step_count: int = 0


@dataclass(frozen=True)
class SimilarityProfile:
    """Scale history lambda(t) of the renormalized flow, the displacement rate
    of each step (``rates[i]`` between ``times[i]`` and ``times[i + 1]``) and
    the limit shape."""

    times: FloatArray
    scales: FloatArray
    rates: FloatArray
    reference_curve: ClosedCurve


@dataclass(frozen=True)
class FlowTrajectory:
    times: FloatArray
    lengths: FloatArray
    areas: FloatArray
    sample_counts: NDArray[np.int64]
    final_state: FlowState
    stop_reason: str  # "collapsed" | "t_max" | "step_budget"
    snapshots: tuple[tuple[float, ClosedCurve], ...] = ()
    # the arclength resample's smoothing passes, summed over every step
    resample_passes: int = 0

    @property
    def extinction_time(self) -> float | None:
        return self.final_state.time if self.stop_reason == "collapsed" else None

    @property
    def ratios(self) -> FloatArray:
        """Isoperimetric ratio L^2 / (4 pi A) per record; inf where A <= 0."""
        with np.errstate(divide="ignore"):
            ratios = self.lengths * self.lengths / (4.0 * math.pi * self.areas)
        return np.where(self.areas > 0.0, ratios, math.inf)

    def write_csv(self, path, stride: int = 1) -> None:
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        rows = np.column_stack([self.times, self.lengths, self.areas, self.ratios])
        np.savetxt(path, rows[::stride], header="t,L,A,ratio", **_CSV)


def suggested_dt(curve: ClosedCurve) -> float:
    """The step policy: 2 * (mean spacing)^2."""
    h = length(curve) / curve.n
    return _DT_FACTOR * h * h


@functools.lru_cache(maxsize=32)
def _sin2(m: int) -> FloatArray:
    """sin^2(pi k/m) for k = 0..m-1, the step's symbol up to the factor
    -4 dt / h^2. Read-only, as every step on m samples shares it."""
    sin2 = np.sin(np.pi * np.arange(m) / m) ** 2
    sin2.setflags(write=False)
    return sin2


def _step(points, h: float, dt: float):
    """One exponential spectral step of ``dt`` on ``points`` of mean chord
    ``h``, both chosen by the caller: csf_step, run_flow or rescaled_flow.

    The moved points are resampled to as many samples with equal chords to
    1e-8; the resample checks them as a ClosedCurve does, and raises
    ToleranceNotMet if it misses. Returns the new points, their chord
    lengths, the enclosed area and the resample's smoothing passes.

    The kernel works on the (n, 2) samples viewed as complex z = x + iy, with
    no copy between layouts: the FFT reads the view, the predictor's chords
    are ``hypot`` of its complex edges, and the corrector goes to the
    resample, and back out, as an (m, 2) view of the inverse FFT.
    """
    m = points.shape[0]
    spectrum = np.fft.fft(np.ascontiguousarray(points).view(complex)[:, 0])
    s = -dt * 4.0 * _sin2(m)
    e = _edges(np.fft.ifft(spectrum * np.exp(s / (h * h))))
    h1 = float(np.hypot(e.real, e.imag).sum()) / m
    moved = np.fft.ifft(spectrum * np.exp(s / (h * h1))).view(float).reshape(m, 2)
    pts, new_chords, passes = _resample(moved, m, 1e-8, _RESAMPLE_PASSES)
    # no recheck: convex blends of checked points; chords ~L/m (1e-8) >= 2 extent/m >> 1e-12 extent
    return pts, new_chords, _shoelace(pts), passes


def _at_horizon(time: float, t_max: float) -> bool:
    return math.isfinite(t_max) and t_max - time <= 1e-12 * max(1.0, t_max)


def _entry_area(curve: ClosedCurve) -> float:
    """The enclosed area of a curve that run_flow and rescaled_flow accept:
    >= 32 samples, counter-clockwise. Raises ValueError otherwise."""
    if curve.n < _MIN_SAMPLES:
        raise ValueError(f"flow needs >= {_MIN_SAMPLES} samples, got {curve.n};"
                         " resample the curve with resample_arclength first")
    area = signed_area(curve)
    if area <= 0.0:
        raise ValueError("flow requires counter-clockwise orientation (positive area)")
    return area


def csf_step(curve: ClosedCurve, dt: float) -> ClosedCurve:
    """One step of ``dt``: flow by the spectral kernel at the curve's mean
    chord, then redistribute arclength. Raises ValueError unless 0 < dt < inf."""
    _positive("dt", dt)
    pts, *_ = _step(curve.points, length(curve) / curve.n, dt)
    return ClosedCurve(pts)


def run_flow(
    curve: ClosedCurve,
    *,
    area_floor_rel: float = 1e-3,
    t_max: float = math.inf,
    snapshot_stride: int = 0,
) -> FlowTrajectory:
    """Flow until the area floor, the time horizon, or the step budget.

    The sample count is decimated as the length shrinks so the spacing (and
    with it the step size 2 * spacing^2) stays near its initial value; collapse
    is a normal stop reason, not an error. A ``snapshot_stride`` of 0 takes no
    snapshots. Raises ValueError on fewer than 32 samples or a clockwise
    curve.
    """
    if not t_max >= 0.0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    if not 0.0 < area_floor_rel < 1.0:
        raise ValueError(f"area_floor_rel must be in (0, 1), got {area_floor_rel}")
    if snapshot_stride < 0:
        raise ValueError(f"snapshot_stride must be >= 0, got {snapshot_stride}")
    area = _entry_area(curve)
    pts = curve.points
    perim = length(curve)
    target_spacing = perim / curve.n
    area_floor = area_floor_rel * area
    time = 0.0
    step_count = 0
    resample_passes = 0

    times = [time]
    lengths = [perim]
    areas = [area]
    sample_counts = [curve.n]
    snapshots = [(time, curve)] if snapshot_stride else []
    stop_reason = "step_budget"
    for _ in range(_MAX_STEPS):
        # stop before the decimation, so the final state is the last record
        if _at_horizon(time, t_max):
            stop_reason = "t_max"
            break
        # halve the sample count by exact subsampling once the spacing has
        # shrunk to half its target; sliding points onto a coarser polygon
        # would cut corners and bleed area instead
        m = pts.shape[0]
        if m % 2 == 0 and m // 2 >= _MIN_SAMPLES and perim / target_spacing <= m / 2:
            pts = np.ascontiguousarray(pts[::2])
            perim = float(_checked_chords(pts).sum())
        h = perim / pts.shape[0]
        dt = min(_DT_FACTOR * h * h, t_max - time)
        pts, chords, area, passes = _step(pts, h, dt)
        resample_passes += passes
        time += dt
        step_count += 1
        perim = float(chords.sum())
        times.append(time)
        lengths.append(perim)
        areas.append(area)
        sample_counts.append(pts.shape[0])
        if area <= area_floor:
            stop_reason = "collapsed"
            break
        if snapshot_stride and step_count % snapshot_stride == 0:
            snapshots.append((time, ClosedCurve(pts)))
    return FlowTrajectory(
        times=np.asarray(times),
        lengths=np.asarray(lengths),
        areas=np.asarray(areas),
        sample_counts=np.asarray(sample_counts, dtype=np.int64),
        final_state=FlowState(ClosedCurve(pts), time, step_count),
        stop_reason=stop_reason,
        snapshots=tuple(snapshots),
        resample_passes=resample_passes,
    )


def area_decay_check(traj: FlowTrajectory) -> float:
    """Least-squares slope of A(t); -2*pi for simple curves.

    The enclosed area of any simple counter-clockwise curve decays at exactly
    the total turning -2*pi under the flow, so the fitted slope is a sharp
    whole-trajectory consistency check of the stepper.
    """
    if len(traj.times) < 10:
        raise TooFewSamples(f"need >= 10 samples before extinction, got {len(traj.times)}")
    slope = np.polyfit(traj.times, traj.areas, 1)[0]
    return float(slope)


def rescaled_flow(
    curve: ClosedCurve,
    *,
    t_max: float = math.inf,
) -> tuple[SimilarityProfile, ShrinkerReport]:
    """Renormalized flow: recenter, rescale to area pi, stop when stationary.

    Each step takes the fixed normalized dt = 8e-3, whatever the sample count.
    The physical time advances by lambda^2 * dt per normalized step, so the
    recorded (time, scale) pairs trace the homothety factor of the raw flow.
    Stationarity is the largest per-sample displacement of the normalized
    profile per unit normalized time (the recorded rate) falling below 3e-4;
    the physical horizon ``t_max`` also stops the run normally, and the last
    step is cut to land on it, so t_max = 0 returns the normalized input.
    Returns the scale history and the shrinker verification (tol 1e-2) of the
    limit. Raises ValueError unless t_max >= 0, then NotConvex, then
    ValueError on fewer than 32 samples or a clockwise curve.
    """
    if not t_max >= 0.0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    if not is_convex(curve):
        raise NotConvex("the renormalized flow driver expects a convex curve")
    area0 = _entry_area(curve)
    lam = math.sqrt(area0 / math.pi)
    pts = (curve.points - _centroid(curve.points)) * math.sqrt(math.pi / area0)
    tau = 0.0
    times = [tau]
    scales = [lam]
    rates = []
    while not (rates and rates[-1] < _STATIONARY_TOL or _at_horizon(tau, t_max)):
        if len(rates) == _RESCALED_MAX_STEPS:
            raise ToleranceNotMet(f"renormalized flow did not reach displacement rate < "
                                  f"{_STATIONARY_TOL:.3g} within {_RESCALED_MAX_STEPS} steps")
        dt = min(_RESCALED_DT, (t_max - tau) / (lam * lam))
        h = float(_checked_chords(pts).sum()) / curve.n
        stepped, _chords, area, _passes = _step(pts, h, dt)
        if area <= 0.0:
            raise CurveCollapsed(f"normalized area {area:.3g} <= 0 after t = {tau:.6g}")
        factor = math.sqrt(math.pi / area)
        rescaled = (stepped - _centroid(stepped)) * factor
        tau += lam * lam * dt
        lam /= factor
        times.append(tau)
        scales.append(lam)
        rates.append(float(np.max(np.hypot(*(rescaled - pts).T))) / dt)
        pts = rescaled
    profile = ClosedCurve(pts)
    return (SimilarityProfile(times=np.asarray(times), scales=np.asarray(scales),
                              rates=np.asarray(rates), reference_curve=profile),
            verify_shrinker(profile, 1e-2))


def _viewbox(pts: FloatArray) -> tuple[float, float, float, float]:
    """SVG viewBox (x0, y0, width, height): the bounding box of ``pts`` plus a
    margin of 5% of its larger side."""
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    margin = 0.05 * float(np.max(hi - lo))
    return (lo[0] - margin, lo[1] - margin,
            hi[0] - lo[0] + 2 * margin, hi[1] - lo[1] + 2 * margin)


def write_curve_svg(curve: ClosedCurve, path, viewbox=None) -> None:
    """Minimal SVG snapshot: one closed path in a viewBox around the curve."""
    pts = curve.points
    x0, y0, w, h = _viewbox(pts) if viewbox is None else viewbox
    d = "M " + " L ".join(f"{x:.17g} {y:.17g}" for x, y in pts) + " Z"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(
            '<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{x0:.17g} {y0:.17g} {w:.17g} {h:.17g}">\n'
            f'<path d="{d}" fill="none" stroke="black" '
            f'stroke-width="{0.005 * max(w, h):.17g}"/>\n'
            "</svg>\n"
        )
