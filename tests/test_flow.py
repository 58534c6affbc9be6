"""Tests for the tangent-angle flow kernel, its drivers and the renormalized flow."""

import logging
import math
import warnings
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

import curveflow.curves
import curveflow.flow
import oracles
from oracles import reference_flow
from curveflow import (
    ClosedCurve,
    CurveCollapsed,
    DegenerateSegment,
    curve_from_support,
    resample_arclength,
    NotConvex,
    ToleranceNotMet,
    TooFewSamples,
    area_decay_check,
    centroid,
    csf_step,
    is_convex,
    is_simple,
    length,
    rescaled_flow,
    run_flow,
    signed_area,
    signed_curvature,
    suggested_dt,
    write_curve_svg,
)
from curveflow import shapes


def mean_radius(curve):
    c = centroid(curve)
    return float(np.mean(np.hypot(*(curve.points - c).T)))


class TestSingleStep:
    def test_unit_circle_radius_law(self):
        new = csf_step(shapes.circle(256), 1e-4)
        assert mean_radius(new) == pytest.approx(math.sqrt(1 - 2e-4), abs=1e-6)

    def test_radius_two_circle(self):
        new = csf_step(shapes.circle(512, radius=2.0), 1e-4)
        assert mean_radius(new) == pytest.approx(math.sqrt(4 - 2e-4), abs=1e-6)

    @pytest.mark.parametrize("multiple", [100, 1000])
    def test_stable_far_beyond_the_explicit_bound(self, multiple):
        # the explicit step's limit 0.4 * (min chord)^2 / max |kappa| is 1.30e-4
        # here; the spectral step stays convex, simple and on the area law
        curve = shapes.rounded_square(256)
        frame = signed_curvature(curve)
        bound = 0.4 * curve.chord_lengths().min() ** 2 / np.max(np.abs(frame.curvature))
        assert bound == pytest.approx(1.30e-4, rel=1e-2)
        dt = multiple * bound
        new = csf_step(curve, dt)
        assert is_convex(new)
        assert is_simple(new)
        lost = signed_area(curve) - signed_area(new)
        assert lost == pytest.approx(2 * math.pi * dt, rel=0.1)

    def test_suggested_dt_policy(self):
        # a tenth of the remaining life L^2 / (8 pi^2 w^2) of a regular n-gon
        # of turning number q, whose vertex curvature is w = (n/pi) sin(pi q/n)
        for curve, q in [(shapes.circle(256), 1), (shapes.doubled_circle(256), 2)]:
            w = curve.n / math.pi * math.sin(math.pi * q / curve.n)
            life = length(curve) ** 2 / (8 * math.pi ** 2 * w * w)
            assert suggested_dt(curve) == pytest.approx(0.1 * life, rel=1e-12)
        # on a 2:1 ellipse the tangential term's cap binds
        ellipse = shapes.ellipse(256)
        assert suggested_dt(ellipse) < 0.1 * length(ellipse) ** 2 / (8 * math.pi ** 2)

    def test_long_step_lands_on_dt(self):
        # 0.3 is six policy steps of the unit circle, taken as equal steps
        new = csf_step(shapes.circle(128), 0.3)
        assert mean_radius(new) == pytest.approx(math.sqrt(1 - 0.6), abs=1e-12)

    @pytest.mark.parametrize("dt", [10.0, 1e300])
    def test_step_past_extinction_raises_collapsed(self, dt):
        # the circle dies at t = 0.5; these raised DegenerateSegment, and 1e300
        # leaked numpy RuntimeWarnings first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CurveCollapsed):
                csf_step(shapes.circle(64), dt)


class TestRunFlow:
    def test_circle_extinction_time(self):
        traj = run_flow(shapes.circle(128), area_floor_rel=1e-3)
        assert traj.stop_reason == "collapsed"
        assert traj.extinction_time == pytest.approx(0.5, abs=2e-2)
        assert area_decay_check(traj) == pytest.approx(-2 * math.pi, rel=1e-2)

    def test_circle_stays_circular(self):
        traj = run_flow(shapes.circle(128), t_max=0.3, snapshot_stride=1)
        assert len(traj.snapshots) >= 9
        for _t, snap in traj.snapshots:
            c = centroid(snap)
            radii = np.hypot(*(snap.points - c).T)
            assert radii.max() - radii.min() < 1e-5

    def test_ellipse_area_decay(self):
        traj = run_flow(shapes.ellipse(256), t_max=0.5)
        slope = area_decay_check(traj)
        assert slope == pytest.approx(-2 * math.pi, rel=1e-2)

    def test_length_strictly_decreasing(self):
        traj = run_flow(shapes.ellipse(256), t_max=0.4)
        assert np.all(np.diff(traj.lengths) < 0.0)

    def test_ratio_bounded_and_monotone_at_fixed_resolution(self):
        square = resample_arclength(shapes.square(2.0), 256)
        traj = run_flow(square, area_floor_rel=5e-3)
        assert np.min(traj.ratios) >= 1.0 - 1e-6
        assert traj.ratios[-1] < traj.ratios[0]
        assert np.all(np.diff(traj.ratios) <= 1e-9)

    def test_square_rounds_toward_circle(self):
        square = resample_arclength(shapes.square(2.0), 256)
        traj = run_flow(square, area_floor_rel=5e-3)
        assert traj.stop_reason == "collapsed"
        assert traj.extinction_time == pytest.approx(4.0 / (2 * math.pi), rel=5e-2)
        late = traj.ratios[traj.times > 0.8 * traj.times[-1]]
        assert np.all(late < 1.02)

    def test_doubled_circle_double_rate(self):
        traj = run_flow(shapes.doubled_circle(256), t_max=0.3)
        slope = area_decay_check(traj)
        assert slope == pytest.approx(-4 * math.pi, rel=1e-2)

    @pytest.mark.parametrize("n", [96, 192])
    def test_circle_law_at_every_step(self, n):
        # a snapshot at every step: a sparse stride can see only t = 0 once a
        # flow takes fewer steps than the stride. A regular polygon stays
        # regular and its squared length falls at a constant rate, which
        # Heun's step integrates exactly
        traj = run_flow(shapes.circle(n), area_floor_rel=1e-3, snapshot_stride=1)
        assert traj.stop_reason == "collapsed"
        assert len(traj.snapshots) == traj.final_state.step_count
        worst = max(abs(mean_radius(snap) - math.sqrt(1.0 - 2.0 * t))
                    for t, snap in traj.snapshots)
        assert worst < 1e-12
        assert traj.extinction_time == pytest.approx(0.5, abs=0.02)

    @pytest.mark.parametrize("curve", [
        shapes.ellipse(128),
        curve_from_support(shapes.random_oval_support(256, seed=3, offset=0.1)),
        resample_arclength(shapes.l_hexagon(), 128),
    ], ids=["ellipse128", "oval256", "lshape128"])
    def test_equal_chords_and_closed_at_every_snapshot(self, curve):
        # without symmetry the step opens a gap that the kernel closes again;
        # left alone it reached 1e-3 in the renormalized flow of the oval
        traj = run_flow(curve, area_floor_rel=1e-2, snapshot_stride=1)
        for _t, snap in traj.snapshots[1:]:
            chords = snap.chord_lengths()  # the closing chord included
            assert np.max(np.abs(chords - chords.mean())) <= 1e-12 * chords.mean()

    @pytest.mark.parametrize("curve", [shapes.ellipse(192), shapes.doubled_circle(256)],
                             ids=["ellipse192", "doubled256"])
    def test_records_measure_the_snapshots(self, curve):
        # the records are read from the gauge, not from the polygon. The area
        # is held against the initial area, a scale that does not shrink with
        # the curve
        traj = run_flow(curve, snapshot_stride=1)
        area0 = traj.areas[0]
        assert len(traj.snapshots) == traj.final_state.step_count
        for k, (t, snap) in enumerate(traj.snapshots):
            assert t == traj.times[k]
            assert abs(traj.lengths[k] - length(snap)) <= 1e-13 * length(snap)
            assert abs(traj.areas[k] - signed_area(snap)) <= 1e-13 * area0

    def test_rigid_motion_moves_the_flow_alike(self):
        curve = curve_from_support(shapes.random_oval_support(128, seed=5, offset=0.1))
        angle, shift = 0.7, np.array([1.5, -2.0])
        moved = run_flow(curve.rotated(angle).translated(shift), t_max=0.2).final_state.curve
        expected = run_flow(curve, t_max=0.2).final_state.curve.rotated(angle).translated(shift)
        assert np.max(np.abs(moved.points - expected.points)) < 1e-9

    def test_circle_centroid_stays(self):
        centre = np.array([0.3, -0.2])
        traj = run_flow(shapes.circle(96, center=centre), snapshot_stride=1)
        assert traj.stop_reason == "collapsed"
        drift = max(float(np.hypot(*(centroid(snap) - centre))) for _t, snap in traj.snapshots)
        assert drift < 1e-3

    def test_dt_max_honoured_exactly(self):
        # one policy step here is 0.05, past the horizon
        traj = run_flow(shapes.circle(64), t_max=0.01)
        assert traj.stop_reason == "t_max"
        assert traj.final_state.step_count == 1
        assert traj.times[-1] == 0.01

    @pytest.mark.parametrize("amp, lobes", [(0.3, 5), (0.5, 3)])
    def test_nonconvex_flower_area_law(self, amp, lobes):
        t = 2.0 * np.pi * np.arange(384) / 384
        r = 1.0 + amp * np.cos(lobes * t)
        curve = ClosedCurve(np.column_stack([r * np.cos(t), r * np.sin(t)]))
        assert not is_convex(curve)
        t_pred = signed_area(curve) / (2 * math.pi)
        traj = run_flow(curve, area_floor_rel=1e-3)
        assert traj.stop_reason == "collapsed"
        assert area_decay_check(traj) == pytest.approx(-2 * math.pi, rel=1e-2)
        assert traj.extinction_time == pytest.approx(t_pred, rel=5e-2)

    def test_t_max_stop(self):
        traj = run_flow(shapes.circle(128), t_max=0.05)
        assert traj.stop_reason == "t_max"
        assert traj.final_state.time >= 0.05

    def test_step_budget_stop(self, monkeypatch):
        monkeypatch.setattr(curveflow.flow, "_MAX_STEPS", 7)
        traj = run_flow(shapes.circle(128))
        assert traj.stop_reason == "step_budget"
        assert traj.final_state.step_count == 7

    def test_non_finite_step_raises_on_that_step(self, monkeypatch):
        # a step that leaves the polygon non-finite stops the run there, not
        # at the step budget
        real_step = curveflow.flow._step
        steps = []

        def poisoned(g, dt):
            real_step(g, dt)
            steps.append(dt)
            if len(steps) == 3:
                g.unit_edges = np.full_like(g.unit_edges, complex(math.nan, math.nan))

        monkeypatch.setattr(curveflow.flow, "_step", poisoned)
        with pytest.raises(DegenerateSegment, match="non-finite"):
            run_flow(shapes.ellipse(128))
        assert len(steps) == 3

    def test_clockwise_rejected(self):
        with pytest.raises(ValueError):
            run_flow(shapes.circle(128, clockwise=True))

    def test_too_few_samples_for_fit(self, monkeypatch):
        monkeypatch.setattr(curveflow.flow, "_MAX_STEPS", 4)
        traj = run_flow(shapes.circle(128))
        with pytest.raises(TooFewSamples):
            area_decay_check(traj)

    @pytest.mark.parametrize("curve", [shapes.square(1.0), shapes.l_hexagon(), shapes.circle(31)],
                             ids=["square4", "lshape6", "circle31"])
    def test_fewer_than_32_samples_rejected(self, curve):
        # a regular n-gon's area falls at n sin(2 pi/n): below 26 samples that
        # misses the area law's 1%
        with pytest.raises(ValueError, match=rf"flow needs >= 32 samples, got {curve.n}"):
            run_flow(curve)

    def test_32_samples_accepted(self):
        traj = run_flow(shapes.circle(32))
        assert traj.stop_reason == "collapsed"
        assert traj.extinction_time == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("curve", [shapes.circle(128), shapes.ellipse(192),
                                       shapes.rounded_square(96), shapes.doubled_circle(256)],
                             ids=["circle128", "ellipse192", "rounded_square96", "doubled256"])
    def test_final_state_is_the_last_record(self, curve):
        full = run_flow(curve)
        # a horizon a hair past a step stops there
        horizons = [0.0, 1e-3, 0.05, 0.2, full.times[3] * (1 + 1e-13)]
        for traj in [full] + [run_flow(curve, t_max=t) for t in horizons]:
            final = traj.final_state
            assert signed_area(final.curve) == traj.areas[-1]
            assert length(final.curve) == traj.lengths[-1]
            assert final.curve.n == curve.n
            assert final.time == traj.times[-1]
            assert final.step_count == len(traj.times) - 1


class TestRescaledFlow:
    def test_circle_is_fixed_point(self):
        profile, report = rescaled_flow(shapes.circle(256))
        assert len(profile.times) <= 3
        assert report.verdict

    def test_profile_area_is_pi(self):
        profile, _ = rescaled_flow(shapes.ellipse(192, a=1.3, b=1.0))
        assert signed_area(profile.reference_curve) == pytest.approx(math.pi, abs=1e-12)

    def test_ellipse_converges_to_circle(self):
        profile, report = rescaled_flow(shapes.ellipse(192))
        assert report.max_residual < 1e-2
        radii = np.hypot(*profile.reference_curve.points.T)
        assert radii.max() - radii.min() < 1e-2

    def test_rounded_square_same_limit(self):
        profile, report = rescaled_flow(shapes.rounded_square(192))
        assert report.max_residual < 1e-2

    def test_scale_tracks_circle_law(self, monkeypatch):
        monkeypatch.setattr(curveflow.flow, "_STATIONARY_TOL", 0.0)
        profile, _ = rescaled_flow(shapes.circle(192), t_max=0.4)
        expected = np.sqrt(np.maximum(1.0 - 2.0 * profile.times, 0.0))
        assert np.max(np.abs(profile.scales - expected)) < 1e-4

    def test_rates_record_why_it_stopped(self):
        profile, _ = rescaled_flow(shapes.ellipse(192))
        assert len(profile.rates) == len(profile.times) - 1
        assert profile.rates[-1] < curveflow.flow._STATIONARY_TOL
        assert np.all(profile.rates[:-1] >= curveflow.flow._STATIONARY_TOL)

    def test_first_rate_is_the_flows(self):
        # it read the entry resample's offset: 22.2 against 1.2 one step later
        rates = rescaled_flow(shapes.ellipse(256))[0].rates
        assert 0.1 < rates[0] / rates[1] < 10

    @pytest.mark.parametrize("n", [256, 512])
    def test_cornered_square_reaches_the_circle(self, n):
        # a corner every n/4 samples: a fixed step of 8e-3 is several times
        # the remaining life at n = 512 and raised CurveCollapsed from n = 400
        profile, report = rescaled_flow(resample_arclength(shapes.square(2.0), n))
        assert report.verdict
        radii = np.hypot(*profile.reference_curve.points.T)
        assert radii.max() - radii.min() < 1e-2

    def test_step_count_independent_of_n(self):
        steps = [len(rescaled_flow(shapes.ellipse(n))[0].times) - 1 for n in (256, 1024)]
        assert max(steps) <= 600
        assert abs(steps[1] - steps[0]) <= 0.01 * steps[0]

    def test_nonconvex_rejected(self):
        with pytest.raises(NotConvex):
            rescaled_flow(shapes.l_hexagon())

    def test_fewer_than_32_samples_rejected(self):
        with pytest.raises(ValueError, match="flow needs >= 32 samples, got 4"):
            rescaled_flow(shapes.square(1.0))

    def test_doubled_circle_rejected_before_flowing(self):
        # locally convex, but it winds twice: refused at entry, not by the
        # shrinker check after a whole flow
        with pytest.raises(NotConvex):
            rescaled_flow(shapes.doubled_circle(512))

    def test_collapsed_step_raises(self, monkeypatch):
        # a step that takes the length, and with it the area, to zero
        monkeypatch.setattr(curveflow.flow, "_step", lambda g, dt: setattr(g, "lam", 0.0))
        with pytest.raises(CurveCollapsed, match="normalized area 0 <= 0"):
            rescaled_flow(shapes.ellipse(64))

    def test_end_to_end_symmetric_verdict(self):
        # flow route feeding the symmetric-case check: the limit is a circle
        from curveflow import (
            find_bisecting_chord,
            support_from_curve,
            symmetric_shrinker_check,
            symmetrize,
        )

        profile, _ = rescaled_flow(shapes.ellipse(192))
        p = support_from_curve(profile.reference_curve, 64)
        pair = symmetrize(p, find_bisecting_chord(p, tol=1e-7))
        for half in (pair.curve1, pair.curve2):
            shifted = half.translated(-pair.omega0)
            ph = support_from_curve(shifted, 64)
            rep = symmetric_shrinker_check(ph, tol=5e-2)
            assert rep.is_circle
            assert length(half) / 2 == pytest.approx(math.pi, abs=1e-2)


@pytest.mark.parametrize("flow", [
    lambda curve: run_flow(curve, t_max=0.1),
    rescaled_flow,
], ids=["run_flow", "rescaled_flow"])
def test_missed_resample_raises(flow, monkeypatch):
    # the one resample at entry raises its own miss
    monkeypatch.setattr(curveflow.curves, "_ARCLENGTH_PASSES", 0)
    with pytest.raises(ToleranceNotMet, match="resample missed rel_tol 1e-10 in 0 passes"):
        flow(shapes.ellipse(128))


class TestDebugLog:
    """Each driver logs one debug record per call, not one per step."""

    def test_one_record_per_call(self, caplog):
        caplog.set_level(logging.DEBUG, logger="curveflow.flow")
        traj = run_flow(shapes.circle(64))
        profile, _ = rescaled_flow(shapes.ellipse(64), t_max=0.05)
        records = [r.getMessage() for r in caplog.records if r.name == "curveflow.flow"]
        assert records == [
            f"run_flow stopped (collapsed) after {traj.final_state.step_count} steps"
            f" at t = {traj.final_state.time:.6g} on 64 samples",
            f"rescaled_flow stopped (t_max) after {profile.rates.size} steps"
            f" at t = {profile.times[-1]:.6g} on 64 samples",
        ]

    def test_silent_above_debug(self, caplog):
        caplog.set_level(logging.INFO, logger="curveflow.flow")
        run_flow(shapes.circle(64))
        rescaled_flow(shapes.ellipse(64))
        assert not [r for r in caplog.records if r.name == "curveflow.flow"]


class TestRejectedFlags:
    @pytest.mark.parametrize("kwargs, name", [
        ({"t_max": -1.0}, "t_max"),
        ({"t_max": math.nan}, "t_max"),
        ({"snapshot_stride": -1}, "snapshot_stride"),
        ({"area_floor_rel": 0.0}, "area_floor_rel"),
        ({"area_floor_rel": 1.0}, "area_floor_rel"),
        ({"area_floor_rel": 2.0}, "area_floor_rel"),
        ({"area_floor_rel": math.nan}, "area_floor_rel"),
    ])
    def test_run_flow(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            run_flow(shapes.circle(64), **{"t_max": 1e-3, **kwargs})

    @pytest.mark.parametrize("t_max", [-1.0, math.nan])
    def test_rescaled_flow(self, t_max):
        # a negative horizon took one step, and NaN ran on to stationarity
        with pytest.raises(ValueError, match="t_max must be >= 0"):
            rescaled_flow(shapes.ellipse(64), t_max=t_max)


class TestRescaledHorizon:
    """rescaled_flow lands on its horizon as run_flow does: it stops before a
    step once t_max is reached and cuts the last step to end there."""

    def test_zero_horizon_takes_no_step(self):
        # it took one step and ended at t = 0.016
        curve = shapes.ellipse(64)
        profile, _ = rescaled_flow(curve, t_max=0.0)
        assert profile.rates.size == 0
        assert profile.times.tolist() == [0.0]
        area = signed_area(curve)
        normalized = (curve.points - centroid(curve)) * math.sqrt(math.pi / area)
        assert np.allclose(profile.reference_curve.points, normalized, rtol=0, atol=1e-14)
        assert run_flow(curve, t_max=0.0).final_state.step_count == 0

    @pytest.mark.parametrize("t_max, steps", [(1e-3, 1), (0.05, 4)])
    def test_last_step_lands_on_the_horizon(self, t_max, steps):
        # t_max = 0.05 ended at 0.0624
        profile, _ = rescaled_flow(shapes.ellipse(64), t_max=t_max)
        assert profile.rates.size == steps
        assert profile.times[-1] == pytest.approx(t_max, rel=1e-14)


class TestBitIdentity:
    """No bit identity holds against the exponential spectral kernel that
    the tangent-angle kernel replaced (oracles.spectral_step): the two agree
    within the acceptance tolerances instead, and the new kernel keeps the
    area law at least as well as the explicit scheme before both."""

    def test_run_flow_matches_reference_loop(self):
        # criterion 3's tolerances: the area slope within 1% of 2 pi, the
        # extinction time within 5%
        for curve in (shapes.ellipse(128), shapes.rounded_square(128)):
            traj = run_flow(curve, area_floor_rel=1e-3)
            times, areas, *_ = reference_flow(curve, math.inf, oracles.spectral_step, 1e-3)
            assert traj.stop_reason == "collapsed"
            slope = np.polyfit(times, areas, 1)[0]
            assert abs(area_decay_check(traj) - slope) < 0.01 * 2 * math.pi
            assert traj.extinction_time == pytest.approx(times[-1], rel=0.05)

    def test_rescaled_flow_matches_reference_loop(self):
        # the scale history within criterion 4's 1e-2
        curve = shapes.ellipse(96)
        t_max = 0.5
        profile, _ = rescaled_flow(curve, t_max=t_max)

        area = signed_area(curve)
        lam = math.sqrt(area / math.pi)
        ref = ClosedCurve((curve.points - centroid(curve)) * math.sqrt(math.pi / area))
        tau, times, scales = 0.0, [0.0], [lam]
        while t_max - tau > 1e-12 * max(1.0, t_max):  # the last step lands on t_max
            stepped, dt = oracles.spectral_step(ref, dt_factor=math.inf,
                                                dt_max=min(8e-3, (t_max - tau) / (lam * lam)))
            factor = math.sqrt(math.pi / signed_area(stepped))
            ref = ClosedCurve((stepped.points - centroid(stepped)) * factor)
            tau += lam * lam * dt
            lam /= factor
            times.append(tau)
            scales.append(lam)

        assert 20 <= len(profile.times) <= 60
        assert profile.times[-1] == pytest.approx(times[-1], rel=1e-12)
        assert np.max(np.abs(profile.scales - np.interp(profile.times, times, scales))) < 1e-2

    @pytest.mark.parametrize("curve, t_max", [
        (shapes.ellipse(128), 0.8),
        (shapes.rounded_square(128), 0.5),
    ], ids=["ellipse", "rounded_square"])
    def test_area_law_no_worse_than_explicit_oracle(self, curve, t_max):
        def area_law_error(times, areas):
            exact = areas[0] - 2 * math.pi * np.asarray(times)
            return float(np.max(np.abs(np.asarray(areas) - exact))) / areas[0]

        traj = run_flow(curve, t_max=t_max)
        times, areas, *_ = reference_flow(curve, t_max, oracles.reference_step)
        spectral = area_law_error(traj.times, traj.areas)
        explicit = area_law_error(times, areas)
        assert spectral <= explicit < 1e-2


class TestOutputs:
    def test_ratios_derived_from_lengths_and_areas(self):
        traj = run_flow(shapes.ellipse(128), t_max=0.1)
        expected = traj.lengths ** 2 / (4.0 * math.pi * traj.areas)
        assert traj.ratios == pytest.approx(expected, rel=1e-15)
        # a record with no positive area has an infinite ratio
        spent = replace(traj, areas=np.concatenate([traj.areas[:-2], [0.0, -1.0]]))
        assert spent.ratios[:-2] == pytest.approx(expected[:-2], rel=1e-15)
        assert np.all(spent.ratios[-2:] == math.inf)

    def test_trajectory_csv(self, tmp_path, monkeypatch):
        monkeypatch.setattr(curveflow.flow, "_MAX_STEPS", 50)
        traj = run_flow(shapes.circle(128))
        path = tmp_path / "traj.csv"
        traj.write_csv(path, stride=5)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,L,A,ratio"
        assert len(lines) == 1 + math.ceil(51 / 5)

    def test_svg_snapshot(self, tmp_path):
        path = tmp_path / "curve.svg"
        write_curve_svg(shapes.ellipse(64), path)
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        assert root[0].tag.endswith("path")
        assert root[0].get("d").startswith("M ")
