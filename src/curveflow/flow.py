"""The curve shortening flow in the tangent-angle gauge.

The flowing curve is an equilateral n-gon, held as its edge angles
theta_j = 2 pi q j/n + phi_j (q the turning number, phi periodic), the square
Lam = L^2 of its length and the position z0 of vertex 0. Its vertices are
z0 + cumsum((L/n) exp(i theta) - mean edge): equal chords hold by
construction, and subtracting the mean edge, zero up to rounding, closes the
polygon; on curves without symmetry the discrete flow opens that gap a
little each step, and a Newton step in phi closes it again. A tangential
velocity keeps the edges equal while the vertices move inward at their
curvature (Hou, Lowengrub and Shelley, J. Comput. Phys. 114, 1994). With
c = 2 pi/L and a = 2 pi j/n the flow reads

    phi_t = c^2 phi_aa + c T theta_a,      Lam_t = -8 pi^2 <theta_a^2>,
    T_a = c (theta_a^2 - <theta_a^2>),     <T> = 0.

Here theta_a is the polygon's own vertex curvature w_j = (n/pi) sin(dtheta_j/2)
(c w_j is the curvature of the circle through vertex j and its neighbours),
averaged onto the edges. T is a cumulative sum at the vertices. On a regular
n-gon w is constant and T = 0, so Lam falls at a constant rate and the circle
law R^2 = R0^2 - 2t holds to rounding at every step.

One step is IF-RK2 (Heun). The stiff term c^2 phi_aa is linear, with a
coefficient constant along the curve, so the integrating factor
exp(-(2 pi k)^2 int dt/Lam), with Lam linear over the step, takes it exactly:
four real FFTs a step. z0 moves by the Heun average of vertex 0's velocity,
c w along the inward normal plus T along the tangent. A step that would take
Lam to 0 or below raises CurveCollapsed.

The step policy is dt = min(0.1 Lam/|Lam_t|, 0.5/(max|T| c n/2)): a tenth of
the remaining life at the current rate of length loss (on a circle, of its
life), capped so that the tangential term carries the top mode at most half a
radian. csf_step takes the caller's dt, finite and > 0, in as many equal steps
as the policy asks. run_flow and rescaled_flow share one driver loop, which
lands the last step on the horizon; both resample their input once and refuse
clockwise curves and curves of fewer than 32 samples: a regular n-gon's area
falls at n sin(2 pi/n), 0.994 of 2 pi at n = 32, and below 26 samples that
misses the area law's 1%. run_flow records sqrt(Lam) and the area of the
closed edges, building a polygon only for a snapshot and the final state,
whose record is measured from that curve.

The renormalized variant rescales to enclosed area pi about the centroid
after every step and advances physical time by the squared scale factor, so
the recorded scale of an exact circle follows sqrt(1 - 2t). It steps by a
fixed normalized dt of 8e-3, or a tenth of the remaining life where that is
shorter: the regular polygon is a fixed point of every step size, so the
limit does not depend on dt. On smooth ovals the life bound does not bind (at
area pi it is 0.036 on the 2:1 ellipse and 0.019 on the 4:1 ellipse), so the
step count to stationarity does not grow with n. A corner makes <w^2> grow
as n: on the square resampled to 512 samples the bound is 6.1e-4, a step of
8e-3 would take Lam below 0, and the bound takes the first two steps before
the corners round off. The tangential cap is not taken: it shrinks as 1/n,
and made the 2:1 ellipse take 843 steps at n = 1024 against 512 at n = 256,
where this step takes 486 and 485.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .curves import (
    ClosedCurve,
    _CSV,
    _box,
    _centroid,
    _cyclic_prev,
    _edges,
    _positive,
    _vertex_turns,
    _winding,
    is_convex,
    length,
    resample_arclength,
    signed_area,
)
from .errors import (
    CurveCollapsed,
    DegenerateSegment,
    NotConvex,
    ToleranceNotMet,
    TooFewSamples,
)
from .shrinker import ShrinkerReport, verify_shrinker

FloatArray = NDArray[np.float64]

log = logging.getLogger(__name__)

_TWO_PI = 2.0 * math.pi
# The fewest samples run_flow and rescaled_flow take.
_MIN_SAMPLES = 32
# The step policy: this fraction of the remaining life Lam/|Lam_t|, and the
# tangential term's top-mode phase per step.
_LIFE_FRACTION = 0.1
_TOP_MODE_PHASE = 0.5
# run_flow stops with "step_budget" and rescaled_flow gives up after these
# many steps; csf_step splits its dt into at most _MAX_STEPS steps.
_MAX_STEPS = 2_000_000
_RESCALED_MAX_STEPS = 500_000
# rescaled_flow's step in normalized time; at 1.6e-2 its clock misses the
# circle law by 1.5e-4.
_RESCALED_DT = 8e-3
# rescaled_flow stops once its displacement rate falls below this.
_STATIONARY_TOL = 3e-4
# The polygon's closing gap |sum exp(i theta)| / n left after a step, and the
# Newton steps that may take to meet it.
_CLOSURE_TOL = 1e-14
_CLOSING_STEPS = 3


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
    final_state: FlowState
    stop_reason: str  # "collapsed" | "t_max" | "step_budget"
    snapshots: tuple[tuple[float, ClosedCurve], ...] = ()

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


def _rhs(phi: FloatArray, lam: float, q: int):
    """The flow's explicit part at (phi, Lam): c T_e w_e on the edges, Lam_t,
    T at the vertices and vertex 0's velocity. Entry j of a vertex array
    belongs to the vertex that edge j ends at, so edge j's average is
    (a_j + a_{j-1})/2 and vertex 0's entry is the last."""
    n = phi.size
    c = _TWO_PI / math.sqrt(lam)
    turns = _edges(phi) + _TWO_PI * q / n
    w = (n / math.pi) * np.sin(0.5 * turns)
    w2 = w * w
    mean_w2 = float(w2.sum()) / n
    tangential = np.cumsum(0.5 * (w2 + _cyclic_prev(w2)) - mean_w2)
    tangential -= float(tangential.sum()) / n
    tangential *= c * _TWO_PI / n
    nonlinear = (tangential + _cyclic_prev(tangential)) * (w + _cyclic_prev(w))
    nonlinear *= 0.25 * c
    # vertex 0's tangent bisects the turn from edge n - 1 to edge 0
    bisector = phi[0] - 0.5 * turns[-1]
    velocity0 = (tangential[-1] + 1j * c * w[-1]) * complex(math.cos(bisector),
                                                            math.sin(bisector))
    return nonlinear, -8.0 * math.pi ** 2 * mean_w2, tangential, velocity0


class _Gauge:
    """One flowing equilateral n-gon in the tangent-angle gauge: q, phi and
    its real spectrum, the unit edges exp(i theta), Lam, z0 and the
    right-hand side at the current state."""

    def __init__(self, curve: ClosedCurve):
        """The gauge of ``curve`` resampled once to equal chords: q from the
        vertex turns, theta unwrapped from edge 0's angle."""
        pts = resample_arclength(curve, curve.n).points
        e = _edges(pts)
        turns = _vertex_turns(e)
        n = pts.shape[0]
        self.q = _winding(turns)
        self.base = _TWO_PI * self.q * np.arange(n) / n
        self.k2 = (_TWO_PI * np.arange(n // 2 + 1)) ** 2
        self.z0 = complex(pts[0, 0], pts[0, 1])
        theta = math.atan2(e[0, 1], e[0, 0]) + np.concatenate(([0.0], np.cumsum(turns[1:])))
        self._set(theta - self.base, float(np.hypot(e[:, 0], e[:, 1]).sum()) ** 2)

    def _set(self, phi: FloatArray, lam: float, spectrum=None) -> None:
        """Take phi, moved to close the polygon, Lam and phi's spectrum (if
        known) as the state.

        The flow keeps the gap sum exp(i theta) at zero, but its
        discretization does not quite on curves without symmetry, and the
        renormalized flow amplifies the gap as e^tau: on a random oval it
        reached 1e-3 and the run never became stationary. Each Newton step
        moves phi by Re(beta exp(i theta)), least squares, and squares the
        gap; two take it to rounding.
        """
        n = phi.size
        u = np.exp(1j * (self.base + phi))
        for _ in range(_CLOSING_STEPS):
            gap = u.sum()
            if abs(gap) <= _CLOSURE_TOL * n:
                break
            s2 = np.dot(u, u)
            beta = -2j * (gap * s2.conjugate() + n * gap.conjugate()) / (n * n - abs(s2) ** 2)
            phi = phi + (beta * u).real
            u = np.exp(1j * (self.base + phi))
            spectrum = None
        self.phi, self.unit_edges, self.lam = phi, u, lam
        self.spectrum = np.fft.rfft(phi) if spectrum is None else spectrum
        self.rhs = _rhs(phi, lam, self.q)

    def life_step(self) -> float:
        """A tenth of the remaining life Lam/|Lam_t| at the current state."""
        return _LIFE_FRACTION * self.lam / -self.rhs[1]

    def policy(self) -> float:
        """The step policy (module docstring) at the current state."""
        n = self.phi.size
        dt = self.life_step()
        speed = float(np.abs(self.rhs[2]).max()) * _TWO_PI / math.sqrt(self.lam) * n / 2
        return dt if speed * dt <= _TOP_MODE_PHASE else _TOP_MODE_PHASE / speed

    def closed_edges(self) -> np.ndarray:
        """The complex equal edges (L/n) exp(i theta) less their mean."""
        n = self.phi.size
        e = (math.sqrt(self.lam) / n) * self.unit_edges
        e -= e.sum() / n
        return e

    def _vertices(self) -> tuple[np.ndarray, np.ndarray]:
        """The complex vertices z0 + cumsum of the closed edges, and those edges."""
        e = self.closed_edges()
        return self.z0 + np.concatenate(([0j], np.cumsum(e[:-1]))), e

    def points(self) -> FloatArray:
        """The (n, 2) vertices."""
        return self._vertices()[0].view(float).reshape(-1, 2)

    def normalize(self) -> tuple[FloatArray, float]:
        """Move the polygon's centroid to 0 and scale it to area pi. Returns
        its (n, 2) vertices and the scale factor. c = 2 pi/L, and with it T
        and vertex 0's velocity, scales by 1/factor; c T w by its square.
        Raises CurveCollapsed unless the area is > 0."""
        z, e = self._vertices()
        cross = (z.conjugate() * e).imag  # x_j y_{j+1} - x_{j+1} y_j
        area = 0.5 * float(cross.sum())
        if not area > 0.0:
            raise CurveCollapsed(f"normalized area {area:.3g} <= 0")
        factor = math.sqrt(math.pi / area)
        z -= np.dot(2.0 * z + e, cross) / (6.0 * area)
        z *= factor
        self.z0 = complex(z[0])
        self.lam *= factor * factor
        nonlinear, lam_t, tangential, velocity0 = self.rhs
        self.rhs = (nonlinear / (factor * factor), lam_t, tangential / factor,
                    velocity0 / factor)
        return z.view(float).reshape(-1, 2), factor

    def decay(self, lam1: float, dt: float) -> FloatArray:
        """The integrating factor exp(-(2 pi k)^2 int dt/Lam), Lam linear from
        the current Lam to ``lam1`` over ``dt``. Raises CurveCollapsed unless
        lam1 > 0."""
        if not lam1 > 0.0:
            raise CurveCollapsed(f"a flow step of {dt:.6g} takes the length to zero")
        x = (lam1 - self.lam) / self.lam
        per_lam = math.log1p(x) / x if x != 0.0 else 1.0
        return np.exp(-self.k2 * (dt * per_lam / self.lam))


def _step(g: _Gauge, dt: float) -> None:
    """One IF-RK2 (Heun) step of ``dt`` on ``g``, in place."""
    n = g.phi.size
    nonlinear0, lam_t0, _, velocity0 = g.rhs
    lam_p = g.lam + dt * lam_t0
    forced = np.fft.rfft(nonlinear0)
    phi_p = np.fft.irfft(g.decay(lam_p, dt) * (g.spectrum + dt * forced), n)
    nonlinear1, lam_t1, _, velocity1 = _rhs(phi_p, lam_p, g.q)
    lam1 = g.lam + 0.5 * dt * (lam_t0 + lam_t1)
    spectrum = (g.decay(lam1, dt) * (g.spectrum + (0.5 * dt) * forced)
                + (0.5 * dt) * np.fft.rfft(nonlinear1))
    g.z0 += 0.5 * dt * (velocity0 + velocity1)
    g._set(np.fft.irfft(spectrum, n), lam1, spectrum)


def suggested_dt(curve: ClosedCurve) -> float:
    """The step policy at ``curve`` resampled to equal chords:
    min(0.1 L^2/|Lam_t|, 0.5/(max|T| (2 pi/L) n/2)), a tenth of the remaining
    life at the current rate, capped by the tangential term."""
    return _Gauge(curve).policy()


def _start(curve: ClosedCurve, t_max: float, convex: bool = False) -> tuple[_Gauge, float]:
    """The gauge and the enclosed area of a curve the drivers accept. Raises
    ValueError unless t_max >= 0, then NotConvex if ``convex`` and the curve
    is not, then ValueError on fewer than 32 samples or a clockwise curve."""
    if not t_max >= 0.0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    if convex and not is_convex(curve):
        raise NotConvex("the renormalized flow driver expects a convex curve")
    if curve.n < _MIN_SAMPLES:
        raise ValueError(f"flow needs >= {_MIN_SAMPLES} samples, got {curve.n};"
                         " resample the curve with resample_arclength first")
    area = signed_area(curve)
    if area <= 0.0:
        raise ValueError("flow requires counter-clockwise orientation (positive area)")
    return _Gauge(curve), area


def _drive(name: str, g: _Gauge, t_max: float, budget: int, rule, record) -> tuple[str, FloatArray]:
    """Step ``g`` from t = 0 until ``record(time, steps, dt)``, called after
    each step, returns a stop reason, or "t_max" or "step_budget" holds; log
    one debug record and return the stop reason and the time of each step.
    ``rule()`` gives dt and the time one unit of dt advances; the last step is
    cut, or stretched by at most the rounding slack, to land on ``t_max``."""
    slack = 1e-12 * max(1.0, t_max) if math.isfinite(t_max) else -math.inf
    times, stop_reason = [0.0], None
    while stop_reason is None:
        time, steps = times[-1], len(times) - 1
        if t_max - time <= slack:
            stop_reason = "t_max"
        elif steps == budget:
            stop_reason = "step_budget"
        else:
            dt, rate = rule()
            if t_max - (time + rate * dt) <= slack:
                dt = (t_max - time) / rate
            _step(g, dt)
            times.append(time + rate * dt)
            stop_reason = record(times[-1], steps + 1, dt)
    log.debug("%s stopped (%s) after %d steps at t = %.6g on %d samples",
              name, stop_reason, len(times) - 1, times[-1], g.phi.size)
    return stop_reason, np.asarray(times)


def csf_step(curve: ClosedCurve, dt: float) -> ClosedCurve:
    """The flow of ``curve``, resampled once to equal chords, after exactly
    ``dt``, in ceil(dt / suggested_dt) equal kernel steps (at most 2,000,000).
    Raises ValueError unless 0 < dt < inf, and CurveCollapsed when the length
    would reach zero within ``dt``."""
    _positive("dt", dt)
    g = _Gauge(curve)
    count = math.ceil(min(dt / g.policy(), _MAX_STEPS))
    for _ in range(count):
        _step(g, dt / count)
    return ClosedCurve(g.points())


def run_flow(
    curve: ClosedCurve,
    *,
    area_floor_rel: float = 1e-3,
    t_max: float = math.inf,
    snapshot_stride: int = 0,
) -> FlowTrajectory:
    """Flow until the area floor, the time horizon, or the step budget.

    The input is resampled once and stepped by the policy of suggested_dt,
    the last step landing on ``t_max``. A record is (t, L, A): at t = 0 the
    input's own length and area, after each step sqrt(Lam) and the area of
    the gauge's closed edges, read with no polygon built; the final record
    is measured from the final curve, so the final state is the last record.
    Collapse is a normal stop reason, not an error. A ``snapshot_stride`` of
    0 takes no snapshots. Raises ValueError on a bad argument, fewer than 32
    samples or a clockwise curve, and DegenerateSegment on a non-finite step.
    """
    if not 0.0 < area_floor_rel < 1.0:
        raise ValueError(f"area_floor_rel must be in (0, 1), got {area_floor_rel}")
    if snapshot_stride < 0:
        raise ValueError(f"snapshot_stride must be >= 0, got {snapshot_stride}")
    g, area = _start(curve, t_max)
    lengths, areas = [length(curve)], [area]
    snapshots = [(0.0, curve)] if snapshot_stride else []

    def record(time: float, steps: int, _dt: float) -> str | None:
        # the area 0.5 Im sum_j conj(S_j) e_{j+1}, S the partial sums of the
        # closed edges e: vertex 0's term drops out as the edges sum to zero
        e = g.closed_edges()
        lengths.append(math.sqrt(g.lam))
        areas.append(0.5 * float(np.vdot(np.cumsum(e[:-1]), e[1:]).imag))
        if not math.isfinite(areas[-1]):
            raise DegenerateSegment("curve contains non-finite coordinates")
        if areas[-1] <= area_floor_rel * area:
            return "collapsed"
        if snapshot_stride and steps % snapshot_stride == 0:
            snapshots.append((time, ClosedCurve(g.points())))
        return None

    stop_reason, times = _drive("run_flow", g, t_max, _MAX_STEPS,
                                lambda: (g.policy(), 1.0), record)
    final = ClosedCurve(g.points()) if times.size > 1 else curve
    lengths[-1], areas[-1] = length(final), signed_area(final)
    return FlowTrajectory(times=times, lengths=np.asarray(lengths), areas=np.asarray(areas),
                          final_state=FlowState(final, float(times[-1]), times.size - 1),
                          stop_reason=stop_reason, snapshots=tuple(snapshots))


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

    The input is resampled once and stepped as the module docstring's
    renormalized variant; the t = 0 record keeps the input's own scale, and
    the recorded (time, scale) pairs trace the homothety factor of the raw
    flow. Stationarity is the largest per-sample displacement of the
    normalized profile per unit normalized time (the recorded rate) falling
    below 3e-4; the last step lands on the physical horizon ``t_max``, which
    also stops the run, so t_max = 0 returns the normalized input. Returns
    the scale history and the shrinker verification (tol 1e-2) of the limit.
    Raises ValueError unless t_max >= 0, then NotConvex, then ValueError on
    fewer than 32 samples or a clockwise curve.
    """
    g, area0 = _start(curve, t_max, convex=True)
    pts, factor = g.normalize()
    lam = 1.0 / factor
    scales, rates = [math.sqrt(area0 / math.pi)], []

    def record(_time: float, _steps: int, dt: float) -> str | None:
        nonlocal pts, lam
        rescaled, factor = g.normalize()
        lam /= factor
        scales.append(lam)
        rates.append(float(np.max(np.hypot(*(rescaled - pts).T))) / dt)
        pts = rescaled
        return "stationary" if rates[-1] < _STATIONARY_TOL else None

    stop_reason, times = _drive("rescaled_flow", g, t_max, _RESCALED_MAX_STEPS,
                                lambda: (min(_RESCALED_DT, g.life_step()), lam * lam), record)
    if stop_reason == "step_budget":
        raise ToleranceNotMet(f"renormalized flow did not reach displacement rate < "
                              f"{_STATIONARY_TOL:.3g} within {_RESCALED_MAX_STEPS} steps")
    if not rates:
        pts = (curve.points - _centroid(curve.points)) * math.sqrt(math.pi / area0)
    profile = ClosedCurve(pts)
    return (SimilarityProfile(times=times, scales=np.asarray(scales),
                              rates=np.asarray(rates), reference_curve=profile),
            verify_shrinker(profile, 1e-2))


def _viewbox(pts: FloatArray) -> tuple[float, float, float, float]:
    """SVG viewBox (x0, y0, width, height): the bounding box of ``pts`` plus a
    margin of 5% of its larger side."""
    x0, y0, x1, y1 = _box(pts)
    margin = 0.05 * float(max(x1 - x0, y1 - y0))
    return x0 - margin, y0 - margin, x1 - x0 + 2 * margin, y1 - y0 + 2 * margin


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
