"""Self-shrinker verification and the support ODE p'' = 1/p - p.

A contracting homothetic solution of the curve shortening flow satisfies
kappa + gamma . n = 0 pointwise; on an oval in polar tangential coordinates
this becomes kappa = p, i.e. the second-order ODE p'' = 1/p - p for the
support function. Both views are implemented: residual/gauge checks on
discrete curves, and the ODE, integrated and shot in one system, Sundman time
ds = dtheta/p on (log p, p', theta), to produce the period evidence that no
closed embedded solution exists besides the circle.
The ODE is reversible (theta -> -theta), so an orbit is symmetric about each
turning point: a shot from rest stops at the first, and the period is twice that.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.typing import NDArray

from . import curves  # is_simple and signed_curvature through the module: see flow.py
from .curves import ClosedCurve, _CSV, _deferred, _positive, is_convex, length, signed_area
from .errors import BlowUp, NotConvex, ToleranceNotMet

FloatArray = NDArray[np.float64]

log = logging.getLogger(__name__)

quad = _deferred("scipy.integrate", "quad")
solve_ivp = _deferred("scipy.integrate", "solve_ivp")

# Support values below this are treated as collapse: the 1/p term then makes
# local error control meaningless at double precision.
P_FLOOR = 1e-7
_LOG_P_FLOOR = math.log(P_FLOOR)


@dataclass(frozen=True)
class ShrinkerReport:
    """Residual statistics of kappa + gamma . n plus the circle verdict.

    The contracting sign convention (epsilon = -1) is fixed.
    """

    max_residual: float
    gauge_constant: float
    gauge_max_rel_dev: float
    area: float
    length: float
    verdict: bool


@dataclass(frozen=True)
class OdeTrajectory:
    """Adaptive-integrator samples of theta, p, p', and the energy integral."""

    theta: FloatArray
    p: FloatArray
    dp: FloatArray
    energy: FloatArray


def _frame(curve: ClosedCurve):
    """The curvature frame of a simple counter-clockwise curve."""
    if signed_area(curve) <= 0.0:
        raise ValueError("curve must be counter-clockwise oriented")
    if not curves.is_simple(curve):
        raise ValueError("curve must be simple (embedded)")
    return curves.signed_curvature(curve)


def _residual(frame) -> FloatArray:
    return frame.curvature + np.einsum("ij,ij->i", frame.points, frame.normal)


def fundamental_residual(curve: ClosedCurve) -> FloatArray:
    """Per-sample kappa_i + gamma_i . n_i of a simple counter-clockwise curve."""
    return _residual(_frame(curve))


def gauge_constant(curve: ClosedCurve) -> tuple[float, float]:
    """Fit kappa = C * exp(|gamma|^2 / 2) on a convex CCW curve.

    C is the geometric mean of kappa_i * exp(-|gamma_i|^2 / 2) over the
    samples with kappa_i > 0; the second return value is the largest relative
    deviation of all samples from C, so a flat sample (kappa_i <= 0, as on a
    straight side) deviates by 1.
    """
    return _gauge(curve, curves.signed_curvature(curve))


def _gauge(curve: ClosedCurve, frame) -> tuple[float, float]:
    kappa = frame.curvature
    bent = kappa > 0.0
    if not bent.all():
        if signed_area(curve) <= 0.0 or not is_convex(curve):
            raise NotConvex("gauge fit requires a convex counter-clockwise curve")
        kappa = np.where(bent, kappa, 0.0)
    with np.errstate(divide="ignore"):
        log_v = np.log(kappa) - 0.5 * np.einsum("ij,ij->i", frame.points, frame.points)
    log_c = float(np.mean(log_v[bent]))
    dev = float(np.max(np.abs(np.exp(log_v - log_c) - 1.0)))
    return math.exp(log_c), dev


def verify_shrinker(curve: ClosedCurve, tol: float = 1e-3) -> ShrinkerReport:
    """Full shrinker check: residual, gauge, area = pi, length = 2*pi.

    The verdict is true iff all four hold within ``tol`` (finite, > 0), in
    which case the curve is (numerically) the unit circle.
    """
    _positive("tol", tol)
    frame = _frame(curve)
    max_residual = float(np.max(np.abs(_residual(frame))))
    c, dev = _gauge(curve, frame)
    area, perimeter = signed_area(curve), length(curve)
    verdict = (abs(area - math.pi) <= tol and abs(perimeter - 2.0 * math.pi) <= tol
               and max_residual <= tol and dev <= tol)
    return ShrinkerReport(max_residual=max_residual, gauge_constant=c, gauge_max_rel_dev=dev,
                          area=area, length=perimeter, verdict=verdict)


def _sundman_rhs(_s, y):
    """The ODE in u = log p, q = dp/dtheta and theta against ds = dtheta/p, which
    has no 1/p term; -expm1(2u) is 1 - p^2 without cancellation next to p = 1."""
    u, q, _theta = y
    return (q, -math.expm1(2.0 * u), math.exp(u))


def ode_energy(p, dp):
    """First integral E = dp^2/2 + p^2/2 - ln p of the support ODE."""
    return 0.5 * np.asarray(dp) ** 2 + 0.5 * np.asarray(p) ** 2 - np.log(np.asarray(p))


def _log_floor_event(_s, y):
    return y[0] - _LOG_P_FLOOR


_log_floor_event.terminal = True
_log_floor_event.direction = -1


def _solve(p0: float, dp0: float, span: float, tol: float, event, atol=None, dense_output=False):
    """DOP853 run of the Sundman system over s in [0, span] from (log p0, dp0, 0).

    Refuses a bad start or tolerance before any solver runs. Event 0 is the
    collapse floor, which raises BlowUp; ``event`` is event 1 and ends the run.
    A step controller that gives up raises ToleranceNotMet.
    ``tol`` is the relative tolerance, and ``atol`` defaults to it.
    """
    event.terminal = True
    _positive("p0", p0)
    _positive("tol", tol)
    if p0 <= P_FLOOR:
        raise BlowUp(f"p0 = {p0:.3g} is at or below the collapse floor {P_FLOOR:.0e}")
    sol = solve_ivp(_sundman_rhs, (0.0, span), (math.log(float(p0)), dp0, 0.0),
                    method="DOP853", rtol=tol, atol=tol if atol is None else atol,
                    events=(_log_floor_event, event), dense_output=dense_output)
    if not sol.success:
        raise ToleranceNotMet(f"integrator failed: {sol.message}")
    if sol.t_events[0].size > 0:
        raise BlowUp(f"support reached the collapse floor {P_FLOOR:.0e} within the span")
    return sol


def integrate_support_ode(
    p0: float, dp0: float, theta_span: float, tol: float = 1e-10, samples: int | None = None
) -> OdeTrajectory:
    """Integrate p'' = 1/p - p from (p0, dp0) on the shot's Sundman system.

    The run ends at theta = theta_span, by s = theta_span / P_FLOOR since
    dtheta/ds = p > P_FLOOR. Records the accepted steps, or ``samples`` evenly
    spaced angles, each placed by Newton's method on the monotone theta(s).
    Raises ValueError unless ``theta_span`` and ``dp0`` are finite (a negative
    span integrates backward) and ``samples`` > 0, BlowUp when p reaches the
    collapse floor within the span and ToleranceNotMet when the step controller gives up.
    """
    span = float(theta_span)
    if not math.isfinite(span):
        raise ValueError(f"theta_span must be finite, got {theta_span}")
    if not math.isfinite(dp0):
        raise ValueError(f"dp0 must be finite, got {dp0}")
    if samples is not None:
        _positive("samples", samples)

    def reached(_s, y):
        return y[2] - span

    sol = _solve(p0, float(dp0), span / P_FLOOR, tol, reached, dense_output=samples is not None)
    u, dp, theta = sol.y
    if samples is not None:
        theta = np.linspace(0.0, span, samples)
        s = np.interp(np.abs(theta), np.abs(sol.y[2]), sol.t)
        for _ in range(4):
            u, dp, at = sol.sol(s)
            s -= (at - theta) / np.exp(u)
        u, dp, _ = sol.sol(s)
    p = np.exp(u)
    return OdeTrajectory(theta=theta, p=p, dp=dp, energy=ode_energy(p, dp))


def shoot_period(p0: float, tol: float = 1e-12) -> float:
    """Period from a rest start at (p0, 0): twice the angle to the first turning point.

    The ODE is reversible, so the orbit is symmetric about that point and the
    angle is exactly half a period. The run is in Sundman time ds = dtheta/p
    on (log p, p', theta), so the bounce at a small minimum of p costs no
    extra steps and p keeps its relative accuracy. The turning point (the
    minimum for p0 > 1, the maximum for p0 < 1) is the first upward
    zero-crossing of (p0 - 1) * p', which excludes the start, and ends the
    run; the 16*pi span in s only bounds the search (the turn comes by s = 6.1).
    atol is ``tol`` times the oscillation's size |p0 - 1|, capped at ``tol``,
    which keeps the shot accurate up to the floats next to 1. Above about 5.98
    the orbit dips under P_FLOOR and it raises BlowUp (CLI exit 2) rather than degrade.
    """
    if p0 == 1.0:
        raise ValueError("p0 = 1 is the constant (circle) solution; no oscillation")

    def turning_point(_s, y):
        return (p0 - 1.0) * y[1]

    turning_point.direction = 1
    sol = _solve(p0, 0.0, 16.0 * np.pi, tol, turning_point, atol=tol * min(1.0, abs(p0 - 1.0)))
    if sol.t_events[1].size == 0:
        raise ToleranceNotMet("no turning point detected within the shooting span")
    theta = float(sol.y[2, -1])
    log.debug("shoot_period(%r) turned at theta = %.17g after %d evaluations",
              p0, theta, sol.nfev)
    return 2.0 * theta


def period_by_quadrature(p0: float) -> float:
    """Oscillation period from the energy level, by singularity-free quadrature.

    Independent of the shooting route, and one coordinate for every
    amplitude. In u = log p the energy above the circle is
    W(u) = e^(2u)/2 - u - 1/2, and y = sign(u) sqrt(W(u)) makes the energy
    gap Y^2 - y^2 with Y = sqrt(W(log p0)). Both turning points are y = +-Y,
    so none is root-found, and y = Y sin(phi) gives
    T = sqrt(2) * integral over (-pi/2, pi/2) of 2 y e^u / expm1(2u) dphi,
    whose integrand tends to 1 as y -> 0. u(y) comes from Newton's method on
    the convex W, started at its asymptotic roots; a run that does not settle
    in 40 steps raises ToleranceNotMet rather than return a degraded value.
    """
    if not 0.0 < p0 < math.inf or p0 == 1.0:
        raise ValueError(f"p0 must be finite, positive and different from 1, got {p0}")
    amplitude = math.sqrt(_log_energy(math.log(p0)))

    def dtheta_dphi(phi):
        y = amplitude * math.sin(phi)
        if y == 0.0:
            return 1.0
        if y < -1.0:
            u = -(y * y + 0.5)
        elif y > 1.0:
            u = 0.5 * math.log(2.0 * y * y + 1.0)
        else:
            u = y
        for _ in range(40):
            step = (_log_energy(u) - y * y) / math.expm1(2.0 * u)
            u -= step
            if abs(step) <= 1e-13 * abs(u):
                return 2.0 * y * math.exp(u) / math.expm1(2.0 * u)
        raise ToleranceNotMet(f"Newton's method for log p did not settle at y = {y!r}")

    # The integrand moves on the scale of y itself, from 0 at y = -6 to within
    # 1e-18 of sqrt(2) at y = 6e9. For a large amplitude that is a sliver of
    # phi that quad's first nodes step over, so each decade below Y is a break.
    breaks = [math.asin(y / amplitude) for y in (-6.0, *(6.0 * 10.0**k for k in range(10)))
              if abs(y) < amplitude]
    value, _ = quad(dtheta_dphi, -0.5 * math.pi, 0.5 * math.pi, epsabs=1e-15, epsrel=1e-13,
                    limit=200, points=breaks or None)
    return math.sqrt(2.0) * value


# 1/k! for k = 2..14: near u = 0, W(u) is the sum of (2u)^k / (2 k!).
_INV_FACTORIALS = tuple(1.0 / math.factorial(k) for k in range(2, 15))


def _log_energy(u: float) -> float:
    """W(u) = e^(2u)/2 - u - 1/2; below |u| = 0.1 the closed form cancels."""
    if abs(u) < 0.1:
        t = 2.0 * u
        return 0.5 * t * t * sum(c * t**k for k, c in enumerate(_INV_FACTORIALS))
    return 0.5 * math.expm1(2.0 * u) - u


@dataclass(frozen=True)
class PeriodEntry:
    p0: float
    period: float
    ratio_to_2pi: float
    is_constant: bool
    two_pi_match: bool
    al_candidate: tuple[int, int] | None  # (windings, maxima) with ratio ~ q/m


@dataclass(frozen=True)
class ClassificationReport:
    """Period survey over an amplitude grid.

    ``no_circle_period`` asserts that no measured period equals 2*pi within
    the tolerance except the constant solution, i.e. no closed embedded
    solution with turning number one appears besides the circle. A ratio
    period/(2*pi) within the tolerance of a closing ratio q/m (see
    ``_CLOSING_RATIOS``) is flagged as a candidate for the closed but
    non-embedded curve with turning number q and m maxima.
    """

    tol: float
    no_circle_period: bool
    entries: tuple[PeriodEntry, ...]

    def write_csv(self, path) -> None:
        """Write ``p0,period,ratio_to_2pi`` lines and the verdict footer to a
        path or a text stream."""
        rows = np.array([(e.p0, e.period, e.ratio_to_2pi) for e in self.entries]).reshape(-1, 3)
        summary = "true" if self.no_circle_period else "false"
        np.savetxt(path, rows, header="p0,period,ratio_to_2pi",
                   footer=f"# no period equals 2*pi within tol={self.tol:.17g}: {summary}", **_CSV)


# The ratios period/(2*pi) = q/m that close a curve of turning number q with
# m maxima, reduced, for m <= 12 inside criterion 5's window (1/2, 1/sqrt(2))
# (Abresch-Langer): 6/11, 5/9, 4/7, 7/12, 3/5, 5/8, 7/11, 2/3 and 7/10.
_CLOSING_RATIOS = sorted({Fraction(q, m) for m in range(2, 13) for q in range(1, m)
                          if 0.5 < q / m < 0.5 ** 0.5})


def classify_closed_solutions(
    amplitudes, tol: float = 1e-3, *, jobs: int = 1
) -> ClassificationReport:
    """Measure the period at each amplitude and test the closing condition.

    Closing a curve of turning number q with m curvature maxima needs
    period = 2*pi*q/m; turning number one needs period = 2*pi exactly, so the
    survey asserting no such period is the numerical side of the uniqueness
    statement for embedded shrinkers. Grid points are independent;
    ``jobs > 1`` evaluates them concurrently and merges in grid order.
    """
    _positive("tol", tol)
    amplitudes = [float(p0) for p0 in amplitudes]
    for p0 in amplitudes:
        _positive("amplitudes", p0)

    def measure(p0: float) -> float:
        return math.nan if p0 == 1.0 else shoot_period(p0)

    if jobs > 1 and len(amplitudes) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=int(jobs)) as pool:
            periods = list(pool.map(measure, amplitudes))
    else:
        periods = [measure(p0) for p0 in amplitudes]

    entries = []
    for p0, period in zip(amplitudes, periods):
        ratio = period / (2.0 * math.pi)
        # a NaN ratio is nearest to the first closing ratio and within tol of none
        nearest = min(_CLOSING_RATIOS, key=lambda f: abs(ratio - f))
        entries.append(
            PeriodEntry(
                p0=p0,
                period=period,
                ratio_to_2pi=ratio,
                is_constant=math.isnan(period),  # p0 = 1: the circle, which has no period
                two_pi_match=abs(period - 2.0 * math.pi) <= tol,
                al_candidate=(nearest.numerator, nearest.denominator)
                if abs(ratio - nearest) <= tol / (2.0 * math.pi) else None,
            )
        )
    no_circle = not any(e.two_pi_match for e in entries)
    return ClassificationReport(tol=tol, no_circle_period=no_circle, entries=tuple(entries))
