"""Tests for shrinker verification and the support ODE."""

import io
import json
import logging
import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

import curveflow.shrinker
from curveflow import (
    BlowUp,
    NotConvex,
    ToleranceNotMet,
    classify_closed_solutions,
    fundamental_residual,
    gauge_constant,
    integrate_support_ode,
    ode_energy,
    period_by_quadrature,
    resample_arclength,
    shoot_period,
    signed_curvature,
    verify_shrinker,
)
from curveflow import shapes

SQRT2_PI = math.sqrt(2.0) * math.pi


class TestFundamentalResidual:
    def test_unit_circle_vanishes(self):
        res = fundamental_residual(shapes.circle(4096))
        assert np.max(np.abs(res)) < 1e-4

    def test_radius_two_offset(self):
        res = fundamental_residual(shapes.circle(2048, radius=2.0))
        assert np.max(np.abs(res + 1.5)) < 1e-4

    def test_off_center_circle(self):
        # gamma . n = -(1 + cos s) on the unit circle centered at (1, 0)
        c = shapes.circle(2048, center=(1.0, 0.0))
        res = fundamental_residual(c)
        s = 2 * np.pi * np.arange(2048) / 2048
        assert np.max(np.abs(res + np.cos(s))) < 1e-3
        assert np.max(np.abs(res)) >= 0.9

    def test_rejects_clockwise(self):
        with pytest.raises(ValueError):
            fundamental_residual(shapes.circle(256, clockwise=True))

    def test_rejects_self_intersecting(self):
        with pytest.raises(ValueError):
            fundamental_residual(shapes.limacon(128))


class TestGaugeConstant:
    def test_unit_circle(self):
        c, dev = gauge_constant(shapes.circle(2048))
        assert c == pytest.approx(math.exp(-0.5), abs=1e-6)
        assert dev < 1e-6

    def test_radius_two(self):
        c, dev = gauge_constant(shapes.circle(2048, radius=2.0))
        assert c == pytest.approx(0.5 * math.exp(-2.0), abs=1e-6)
        assert dev < 1e-6

    def test_ellipse_deviates(self):
        # kappa * exp(-|x|^2/2) is 2e^-2 at (2,0) but e^-1/2/4 at (0,1)
        _, dev = gauge_constant(shapes.ellipse(2048))
        assert dev > 0.1

    def test_not_convex(self):
        with pytest.raises(NotConvex):
            gauge_constant(shapes.l_hexagon())

    def test_clockwise_rejected(self):
        with pytest.raises(NotConvex):
            gauge_constant(shapes.circle(256, clockwise=True))

    @pytest.mark.parametrize("curve", [shapes.rounded_square(256),
                                       resample_arclength(shapes.square(2.0), 256)],
                             ids=["rounded_square", "square"])
    def test_flat_sides_deviate_by_one(self, curve):
        # convex, but kappa = 0 along the straight sides: a flat sample
        # deviates from C by exactly 1, so the fit reports, not refuses
        assert np.any(signed_curvature(curve).curvature <= 0.0)
        c, dev = gauge_constant(curve)
        assert c > 0.0
        assert dev >= 1.0
        assert verify_shrinker(curve).verdict is False


class TestSupportOde:
    def test_equilibrium_held_100_periods(self):
        traj = integrate_support_ode(1.0, 0.0, 100 * 2 * np.pi, tol=1e-10)
        assert np.max(np.abs(traj.p - 1.0)) < 1e-12
        assert np.max(np.abs(traj.energy - 0.5)) < 1e-12

    def test_oscillation_energy_conserved(self):
        tol = 1e-11
        traj = integrate_support_ode(1.2, 0.0, 4 * np.pi, tol=tol)
        assert traj.p.min() < 1.0 < traj.p.max()
        assert traj.p.max() == pytest.approx(1.2, abs=1e-9)
        drift = np.max(np.abs(traj.energy - traj.energy[0]))
        assert drift <= 100 * tol
        assert drift <= 1e-9

    def test_tiny_start_blows_up(self):
        with pytest.raises(BlowUp):
            integrate_support_ode(1e-9, 0.0, 2 * np.pi)

    def test_even_symmetry_from_rest(self):
        fwd = integrate_support_ode(1.3, 0.0, 2 * np.pi, tol=1e-12, samples=201)
        bwd = integrate_support_ode(1.3, 0.0, -2 * np.pi, tol=1e-12, samples=201)
        assert np.max(np.abs(bwd.theta + fwd.theta)) < 1e-15
        assert np.max(np.abs(fwd.p - bwd.p)) < 1e-9
        assert np.max(np.abs(fwd.dp + bwd.dp)) < 1e-9

    def test_zero_span_samples_the_start(self):
        traj = integrate_support_ode(1.5, 0.25, 0.0, samples=3)
        assert np.array_equal(traj.theta, np.zeros(3))
        assert np.allclose(traj.p, 1.5, rtol=1e-15, atol=0.0)
        assert np.array_equal(traj.dp, np.full(3, 0.25))

    def test_energy_helper_at_equilibrium(self):
        assert ode_energy(1.0, 0.0) == pytest.approx(0.5, rel=1e-15)


class TestShootPeriod:
    def test_small_amplitude_linearization(self):
        # p = 1 + eps obeys eps'' = -2 eps, so the period tends to 2*pi/sqrt(2)
        assert shoot_period(1.001) == pytest.approx(2 * np.pi / math.sqrt(2), abs=1e-3)

    @pytest.mark.parametrize("p0", [1.1, 1.5, 2.0, 3.0, 5.0, 0.5])
    def test_agrees_with_quadrature_oracle(self, p0):
        assert shoot_period(p0) == pytest.approx(period_by_quadrature(p0), abs=1e-8)

    def test_constant_solution_rejected(self):
        with pytest.raises(ValueError):
            shoot_period(1.0)

    def test_min_start_same_orbit(self):
        # starting at the orbit minimum measures the same period
        e_match = 0.5 * 1.5**2 - math.log(1.5)
        p_min = brentq(lambda p: 0.5 * p * p - math.log(p) - e_match, 1e-6, 1.0)
        assert shoot_period(p_min) == pytest.approx(shoot_period(1.5), abs=1e-8)

    def test_deep_orbit_blows_up(self):
        # p0 = 8 dips to ~1e-13, far below the integration floor
        with pytest.raises(BlowUp):
            shoot_period(8.0)

    def test_measured_window_is_pi_to_sqrt2_pi(self):
        """Every period sits in (pi, sqrt(2)*pi), decreasing with amplitude.

        This is the closing-condition window: a closed solution with q
        windings and m curvature maxima needs period 2*pi*q/m, so the ratio
        window (1/2, 1/sqrt(2)) admits no integer solution with q = 1 --
        only the circle closes with turning number one. Both measurement
        routes (shooting and energy quadrature) agree on the window.
        """
        p0s = [1.01, 1.1, 1.5, 2.0, 3.0, 5.0]
        periods = [shoot_period(p0) for p0 in p0s]
        for t in periods:
            assert math.pi < t < SQRT2_PI
        assert all(a > b for a, b in zip(periods, periods[1:]))
        quad_periods = [period_by_quadrature(p0) for p0 in [6.0, 8.0, 10.0]]
        for t in quad_periods:
            assert math.pi < t < SQRT2_PI

    def test_period_continuity_on_fine_grid(self):
        # increments shrink with the grid: no event-detection jumps
        coarse = np.array([shoot_period(p0) for p0 in np.linspace(1.2, 1.4, 9)])
        fine = np.array([shoot_period(p0) for p0 in np.linspace(1.2, 1.4, 17)])
        step_c = np.max(np.abs(np.diff(coarse)))
        step_f = np.max(np.abs(np.diff(fine)))
        assert step_c < 2e-2
        assert step_f < 0.6 * step_c


HALF_PERIOD_AMPLITUDES = [0.3, 0.5, 0.98, 1.001, 1.02, 1.5, 2.0, 3.5, 5.0, 5.8]
# tiny amplitudes, where a shot in p rather than log p loses accuracy, the
# last amplitude inside the collapse floor, and two next to 1, where 1 - p^2
# would cancel
EDGE_AMPLITUDES = [1e-6, 1e-3, 0.05, 5.97, 1.0 - 1e-6,
                   1.0 + 1.001 * curveflow.shrinker._MIN_AMPLITUDE]


class TestShootPeriodHalfPeriod:
    """The period is twice the angle from the rest start to the first turning
    point, which is where the run ends."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """Every solve_ivp result of the test, in call order."""
        runs = []

        def recording(*args, **kwargs):
            runs.append(solve_ivp(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(curveflow.shrinker, "solve_ivp", recording)
        return runs

    @pytest.mark.parametrize("p0", HALF_PERIOD_AMPLITUDES + EDGE_AMPLITUDES)
    def test_agrees_with_quadrature(self, p0):
        assert abs(shoot_period(p0) - period_by_quadrature(p0)) <= 1e-10

    @pytest.mark.parametrize("p0", HALF_PERIOD_AMPLITUDES)
    def test_orbit_closes_after_one_period(self, p0):
        traj = integrate_support_ode(p0, 0.0, shoot_period(p0), tol=1e-12, samples=2)
        assert abs(traj.p[-1] - p0) <= 1e-9
        assert abs(traj.dp[-1]) <= 1e-9

    @pytest.mark.parametrize("p0", HALF_PERIOD_AMPLITUDES)
    def test_run_ends_at_half_period(self, p0, runs):
        # theta is the state's last component; the run ends at the turn
        period = shoot_period(p0)
        assert len(runs) == 1
        assert runs[0].y[2, -1] == period / 2

    @pytest.mark.parametrize("p0, budget, run", [
        (5.0, 700, shoot_period),
        (5.97, 750, shoot_period),
        (5.0, 1600, lambda p0: integrate_support_ode(p0, 0.0, shoot_period(p0), tol=1e-12)),
    ], ids=["5.0-700", "5.97-750", "integrate-5.0-1600"])
    def test_bounce_costs_few_evaluations(self, p0, budget, run, runs):
        """In Sundman time the deep bounce is no stiffer than the rest of the
        orbit: in theta time the shot takes 2,105 and 2,933 evaluations here,
        and one period of integrate_support_ode at 5.0 takes 3,410."""
        run(p0)
        assert runs[-1].nfev <= budget

    def test_one_debug_record_per_shot(self, runs, caplog):
        caplog.set_level(logging.DEBUG, logger="curveflow.shrinker")
        period = shoot_period(1.5)
        assert [r.getMessage() for r in caplog.records if r.name == "curveflow.shrinker"] == [
            f"shoot_period(1.5) turned at theta = {period / 2:.17g}"
            f" after {runs[0].nfev} evaluations"]

    def test_silent_above_debug(self, caplog):
        caplog.set_level(logging.INFO, logger="curveflow.shrinker")
        classify_closed_solutions([0.5, 1.5])
        assert not [r for r in caplog.records if r.name == "curveflow.shrinker"]

    def test_no_turning_point_refused(self, monkeypatch):
        """A run that ends before any turning point raises ToleranceNotMet."""

        def short(fun, _t_span, *args, **kwargs):
            return solve_ivp(fun, (0.0, 0.1), *args, **kwargs)

        monkeypatch.setattr(curveflow.shrinker, "solve_ivp", short)
        with pytest.raises(ToleranceNotMet, match="no turning point"):
            shoot_period(1.5)


# the first pair is the nearest to 1 that shoot_period accepts
NEAR_ONE = [1.0 + sign * d for d in (1.001 * curveflow.shrinker._MIN_AMPLITUDE,
                                     1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 3e-3) for sign in (-1, 1)]


class TestQuadratureNearOne:
    @pytest.mark.parametrize("p0", NEAR_ONE, ids=[f"{p0!r}" for p0 in NEAR_ONE])
    def test_accurate_or_refused(self, p0):
        """Near p0 = 1 the oracle gives the Lindstedt period or raises; it
        never returns a degraded value, warns or leaks an untyped error."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                period = period_by_quadrature(p0)
            except ToleranceNotMet:
                return
        a = p0 - 1.0
        assert abs(period - SQRT2_PI * (1.0 - a * a / 12.0)) <= 1e-8
        assert abs(period - shoot_period(p0)) <= 1e-8


BESIDE_ONE = [*np.linspace(0.90, 0.98, 17), *np.linspace(1.02, 1.10, 17)]


class TestQuadratureOracle:
    @pytest.mark.parametrize("p0", BESIDE_ONE, ids=[f"{p0:.3f}" for p0 in BESIDE_ONE])
    def test_matches_a_tight_shot(self, p0):
        """Beside p0 = 1 the oracle agrees with a shot at tol = 3e-14.

        There the period is most sensitive to a turning point; the oracle
        finds none, so it keeps the accuracy of the quadrature.
        """
        assert abs(period_by_quadrature(p0) - shoot_period(p0, tol=3e-14)) <= 1e-11

    @pytest.mark.parametrize("a", [sign * d for d in (1e-6, 1e-5, 1e-4) for sign in (-1, 1)])
    def test_lindstedt_next_to_one(self, a):
        """Next to p0 = 1 the oracle returns, rather than refuses, the period
        sqrt(2)*pi*(1 - a^2/12 + a^3/36) to rounding."""
        expected = SQRT2_PI * (1.0 - a * a / 12.0 + a**3 / 36.0)
        assert abs(period_by_quadrature(1.0 + a) - expected) <= 1e-14

    def test_large_amplitudes_stay_in_the_window(self):
        """Orbits that dip far below the integration floor have periods in
        (pi, sqrt(2)*pi) that decrease towards pi."""
        periods = [period_by_quadrature(p0) for p0 in (50.0, 1e3, 1e6)]
        for t in periods:
            assert math.pi < t < SQRT2_PI
        assert periods[0] > periods[1] > periods[2]
        assert periods[2] - math.pi < 1e-10

    def test_unsettled_newton_refused(self, monkeypatch):
        """With an energy that y^2 never meets near y = 0, Newton's method
        cannot settle, and the oracle raises instead of returning a value."""
        energy = curveflow.shrinker._log_energy
        monkeypatch.setattr(curveflow.shrinker, "_log_energy", lambda u: energy(u) + 1.0)
        with pytest.raises(ToleranceNotMet):
            period_by_quadrature(1.5)


class TestClassification:
    def test_no_two_pi_period(self):
        rep = classify_closed_solutions([1.1, 1.5, 2.0, 3.0], tol=1e-3)
        assert rep.no_circle_period
        for e in rep.entries:
            assert not e.two_pi_match
            assert math.pi < e.period < SQRT2_PI

    def test_small_amplitude_entry(self):
        rep = classify_closed_solutions([1 + 1e-6], tol=1e-3)
        assert rep.entries[0].period == pytest.approx(2 * np.pi / math.sqrt(2), abs=1e-3)
        assert rep.entries[0].ratio_to_2pi == pytest.approx(1 / math.sqrt(2), abs=1e-3)

    def test_empty_grid(self):
        rep = classify_closed_solutions([], tol=1e-3)
        assert rep.entries == ()
        assert rep.no_circle_period

    def test_constant_entry(self):
        rep = classify_closed_solutions([1.0], tol=1e-3)
        assert rep.entries[0].is_constant
        assert math.isnan(rep.entries[0].period)

    @pytest.mark.parametrize("q, m, p0_pinned", [
        (6, 11, 3.7480716599), (5, 9, 3.4750019329), (4, 7, 3.1566160299),
        (7, 12, 2.9660284240), (3, 5, 2.7365319184), (5, 8, 2.4328412378),
        (7, 11, 2.3007054075), (2, 3, 1.9335970709), (7, 10, 1.3658233416),
    ])
    def test_flags_abresch_langer_candidate(self, q, m, p0_pinned):
        """The amplitude whose period closes a curve of turning number q with
        m maxima, found on the quadrature oracle, is flagged as (q, m)."""
        target = 2 * math.pi * q / m
        p0_star = brentq(lambda p0: period_by_quadrature(p0) - target, 1.001, 5.8,
                         xtol=1e-14, rtol=1e-15)
        assert round(p0_star, 10) == p0_pinned
        assert abs(shoot_period(p0_star, tol=1e-13) - target) < 1e-11
        rep = classify_closed_solutions([p0_star], tol=1e-6)
        assert rep.entries[0].al_candidate == (q, m)
        assert rep.no_circle_period

    def test_half_period_never_flagged(self):
        """A period of pi is never attained, so 1/2 is no closing ratio: a
        tolerance that reaches 1/2 from p0 = 5.8, but no closing ratio, flags
        nothing."""
        rep = classify_closed_solutions([5.8], tol=0.12)
        assert rep.entries[0].al_candidate is None

    def test_jobs_merge_deterministic(self):
        grid = [1.1, 1.7, 2.4, 3.1]
        serial = classify_closed_solutions(grid, tol=1e-3)
        parallel = classify_closed_solutions(grid, tol=1e-3, jobs=4)
        assert serial == parallel

    def test_csv_and_json_shapes(self, tmp_path):
        rep = classify_closed_solutions([1.1, 1.5], tol=1e-3)
        buf = io.StringIO()
        rep.write_csv(buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "p0,period,ratio_to_2pi"
        assert text.splitlines()[-1].startswith("# no period equals 2*pi")
        payload = json.loads(json.dumps(asdict(rep)))
        assert payload["no_circle_period"] is True
        assert len(payload["entries"]) == 2

    def test_json_field_names(self):
        rep = classify_closed_solutions([1.0, 1.1], tol=0.1)
        payload = json.loads(json.dumps(asdict(rep)))
        assert list(payload) == ["tol", "no_circle_period", "entries"]
        assert [list(e) for e in payload["entries"]] == [[
            "p0", "period", "ratio_to_2pi", "is_constant", "two_pi_match", "al_candidate",
        ]] * 2
        assert payload["entries"][0]["al_candidate"] is None
        assert payload["entries"][1]["al_candidate"] == list(rep.entries[1].al_candidate)


class TestVerifyShrinker:
    def test_unit_circle_verdict_true(self):
        rep = verify_shrinker(shapes.circle(4096), tol=1e-3)
        assert rep.verdict
        assert rep.area == pytest.approx(np.pi, abs=1e-5)
        assert rep.length == pytest.approx(2 * np.pi, abs=1e-5)

    def test_ellipse_verdict_false(self):
        rep = verify_shrinker(shapes.ellipse(2048), tol=1e-3)
        assert not rep.verdict
        assert rep.max_residual > 0.5

    def test_radius_two_circle_verdict_false(self):
        rep = verify_shrinker(shapes.circle(2048, radius=2.0), tol=1e-3)
        assert not rep.verdict
        assert rep.max_residual == pytest.approx(1.5, abs=1e-3)
        assert rep.area == pytest.approx(4 * np.pi, rel=1e-4)

    def test_json_field_names(self):
        rep = verify_shrinker(shapes.circle(1024), tol=1e-3)
        payload = json.loads(json.dumps(asdict(rep)))
        assert list(payload) == [
            "max_residual",
            "gauge_constant",
            "gauge_max_rel_dev",
            "area",
            "length",
            "verdict",
        ]

    def test_gauge_deviation_tracks_log_derivative_identity(self):
        # kappa = -gamma . n differentiated along arclength is
        # kappa' = kappa * (gamma . gamma'), the log derivative of the gauge law
        # kappa = C exp(|gamma|^2 / 2): both hold on the unit circle, and both
        # fail once it is moved off the origin
        centred = shapes.circle(4096)
        moved = shapes.circle(4096, center=(0.3, 0.0))
        assert log_derivative_residual(centred) < 1e-6
        assert log_derivative_residual(moved) > 0.1
        assert gauge_constant(centred)[1] < 1e-6 < gauge_constant(moved)[1]


def log_derivative_residual(curve):
    """max |kappa' - kappa * (gamma . gamma')|, ' = d/ds, on a uniformly sampled
    curve: kappa from signed_curvature, derivatives spectral in the sample index."""
    frame = signed_curvature(curve)
    k = np.fft.fftfreq(curve.n, 1.0 / curve.n)
    if curve.n % 2 == 0:
        k[curve.n // 2] = 0.0  # the Nyquist mode has no real derivative

    def d(f):
        return np.fft.ifft(1j * k * np.fft.fft(f)).real

    x, y = frame.points.T
    dx, dy = d(x), d(y)
    speed = np.hypot(dx, dy)
    kappa = frame.curvature
    return float(np.max(np.abs(d(kappa) - kappa * (x * dx + y * dy)) / speed))


class TestRejectedInput:
    """Non-finite amplitudes, spans and start slopes and shots too near 1 are
    refused before SciPy runs; bad tolerances are rows of test_tol_contract.py."""

    @pytest.fixture(autouse=True)
    def no_solver(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise AssertionError("a SciPy solver ran on rejected input")

        for name in ("solve_ivp", "quad"):
            monkeypatch.setattr(curveflow.shrinker, name, refuse)

    @pytest.mark.parametrize("p0", [math.nan, math.inf])
    @pytest.mark.parametrize("call", [
        shoot_period,
        period_by_quadrature,
        lambda p0: integrate_support_ode(p0, 0.0, 1.0),
        lambda p0: classify_closed_solutions([1.5, p0]),
    ], ids=["shoot", "quadrature", "integrate", "survey"])
    def test_non_finite_amplitude(self, call, p0):
        with pytest.raises(ValueError, match="must be finite"):
            call(p0)

    @pytest.mark.parametrize("p0", [1 + 1e-9, 1 - 1e-9, 1 + 1e-12])
    def test_shot_too_near_one(self, p0):
        # the near end of the shot's documented domain, refused before any
        # solver runs
        with pytest.raises(ToleranceNotMet, match="below 5e-07"):
            shoot_period(p0)

    @pytest.mark.parametrize("argument, value", [
        ("theta_span", math.nan), ("theta_span", math.inf), ("theta_span", -math.inf),
        ("dp0", math.nan), ("dp0", math.inf),
    ], ids=["nan", "inf", "-inf", "dp0-nan", "dp0-inf"])
    def test_non_finite_span(self, argument, value):
        # a non-finite span kept the solver running without end, and SciPy
        # refused a non-finite dp0 only once imported; a negative finite span
        # integrates backward (TestSupportOde)
        args = {"theta_span": 1.0, "dp0": 0.0, argument: value}
        with pytest.raises(ValueError, match=f"{argument} must be finite"):
            integrate_support_ode(1.5, **args)
