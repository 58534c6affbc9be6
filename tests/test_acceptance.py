"""Acceptance battery: the toolkit's exit criteria, one test per criterion.

Each criterion prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see
them live; they also appear in captured output). Tolerances and runtime
budgets are pinned here and nowhere else.

Criterion 5 checks that every period of the support ODE p'' = 1/p - p lies
strictly inside (pi, sqrt(2)*pi), the window stated for the closed shrinkers
(Abresch-Langer, J. Differential Geom. 23, 1986). The periods start just
below sqrt(2)*pi at small amplitude and fall towards pi as it grows: with
p = 1 + u, Lindstedt-Poincare gives T = sqrt(2)*pi*(1 - a^2/12 + ...). A
closed curve with turning number one needs period 2*pi/m for m maxima; the
window rules out m = 1 (T < sqrt(2)*pi < 2*pi) and every m >= 2 (T > pi), so
only the circle closes embedded.
"""

import math
import time

import numpy as np
import pytest

from curveflow import (
    bonnesen_chain,
    cauchy_length,
    centroid,
    classify_closed_solutions,
    curve_from_support,
    integrate_support_ode,
    is_convex,
    length,
    rescaled_flow,
    resample_arclength,
    run_flow,
    signed_area,
    support_from_curve,
    verify_shrinker,
)
from curveflow import shapes
from curveflow.symmetrize import find_bisecting_chord, node_cut_areas, symmetrize

SQRT2_PI = math.sqrt(2.0) * math.pi
TWO_PI = 2.0 * math.pi


def _seconds(elapsed: float) -> str:
    """A runtime with 3 significant digits and no exponent, so that
    scripts/bench_record.py reads a nonzero budget share even for fast criteria."""
    return f"{elapsed:.{max(2 - math.floor(math.log10(elapsed)), 0)}f}"


def _verdict(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_criterion_1_shrinker_identities():
    budget_s = 1.0
    t0 = time.perf_counter()
    report = verify_shrinker(shapes.circle(4096), tol=1e-3)
    elapsed = time.perf_counter() - t0
    area_err = abs(report.area - math.pi)
    len_err = abs(report.length - TWO_PI)
    ok = (
        area_err < 1e-5
        and len_err < 1e-5
        and report.max_residual < 1e-3
        and report.gauge_max_rel_dev < 1e-4
        and elapsed < budget_s
    )
    _verdict(
        "criterion 1 shrinker identities",
        ok,
        f"|A-pi|={area_err:.2e} |L-2pi|={len_err:.2e} residual={report.max_residual:.2e} "
        f"gauge={report.gauge_max_rel_dev:.2e} runtime={_seconds(elapsed)}s budget={budget_s:g}s",
    )
    assert area_err < 1e-5
    assert len_err < 1e-5
    assert report.max_residual < 1e-3
    assert report.gauge_max_rel_dev < 1e-4
    assert report.verdict
    assert elapsed < budget_s


def test_criterion_2_circle_family_law():
    budget_s = 10.0
    t0 = time.perf_counter()
    traj = run_flow(shapes.circle(192), area_floor_rel=1e-3, snapshot_stride=1)
    worst = 0.0
    for t, snap in traj.snapshots:
        if t > 0.45:
            continue
        radii = np.hypot(*(snap.points - centroid(snap)).T)
        worst = max(worst, abs(float(radii.mean()) - math.sqrt(1.0 - 2.0 * t)))
    extinction = traj.extinction_time
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and abs(extinction - 0.5) <= 0.02 and elapsed < budget_s
    _verdict(
        "criterion 2 circle family law",
        ok,
        f"max|R - sqrt(1-2t)|={worst:.2e} extinction={extinction:.4f} runtime={_seconds(elapsed)}s "
        f"budget={budget_s:g}s",
    )
    assert traj.stop_reason == "collapsed"
    assert worst < 1e-3
    assert extinction == pytest.approx(0.5, abs=0.02)
    assert elapsed < budget_s


@pytest.mark.parametrize(
    "label,curve",
    [
        ("ellipse 2x1", shapes.ellipse(512)),
        ("rounded square", shapes.rounded_square(512, side=2.0, corner_radius=0.4)),
    ],
)
def test_criterion_3_area_decay(label, curve):
    from curveflow import area_decay_check

    budget_s = 30.0
    area0 = signed_area(curve)
    t0 = time.perf_counter()
    traj = run_flow(curve, area_floor_rel=1e-3)
    slope = area_decay_check(traj)
    elapsed = time.perf_counter() - t0
    slope_rel = abs(slope + TWO_PI) / TWO_PI
    t_pred = area0 / TWO_PI
    ext_rel = abs(traj.extinction_time - t_pred) / t_pred
    ok = slope_rel < 0.01 and ext_rel < 0.05 and elapsed < budget_s
    _verdict(
        f"criterion 3 area decay ({label})",
        ok,
        f"slope={slope:.5f} (rel err {slope_rel:.2e}) extinction={traj.extinction_time:.4f} "
        f"vs A0/2pi={t_pred:.4f} runtime={_seconds(elapsed)}s budget={budget_s:g}s",
    )
    assert slope_rel < 0.01
    assert ext_rel < 0.05
    assert elapsed < budget_s


def test_criterion_4_theorem_evidence_flow_route():
    budget_s = 60.0
    t0 = time.perf_counter()
    profile, report = rescaled_flow(shapes.ellipse(256))
    chain = bonnesen_chain(profile.reference_curve)
    elapsed = time.perf_counter() - t0
    ok = report.max_residual < 1e-2 and chain.equality_gap < 1e-2 and elapsed < budget_s
    _verdict(
        "criterion 4 theorem evidence (flow route)",
        ok,
        f"residual={report.max_residual:.2e} equality_gap={chain.equality_gap:.2e} "
        f"runtime={_seconds(elapsed)}s budget={budget_s:g}s",
    )
    assert report.max_residual < 1e-2
    assert chain.equality_gap < 1e-2
    assert chain.chain_ok
    assert elapsed < budget_s


def test_criterion_5_theorem_evidence_ode_route():
    budget_s = 5.0
    t0 = time.perf_counter()
    grid = [1.01, 1.1, 1.5, 2.0, 3.0, 5.0]
    report = classify_closed_solutions(grid, tol=1e-3)
    periods = [e.period for e in report.entries]
    # energy drift over one measured period at the shooting tolerance
    traj = integrate_support_ode(1.5, 0.0, periods[2], tol=1e-12)
    drift = float(np.max(np.abs(traj.energy - traj.energy[0])))
    small = periods[0]
    elapsed = time.perf_counter() - t0

    in_window = all(math.pi < t < SQRT2_PI for t in periods)
    none_two_pi = all(abs(t - TWO_PI) > 1e-3 for t in periods)
    small_ok = abs(small - TWO_PI / math.sqrt(2.0)) < 1e-3
    drift_ok = drift < 1e-9
    ok = in_window and none_two_pi and small_ok and drift_ok and elapsed < budget_s
    _verdict(
        "criterion 5 theorem evidence (ODE route)",
        ok,
        f"periods={[round(t, 5) for t in periods]} "
        f"window({math.pi:.4f},{SQRT2_PI:.4f})={'yes' if in_window else 'NO'} "
        f"none=2pi={'yes' if none_two_pi else 'NO'} small-amp err={abs(small - SQRT2_PI):.1e} "
        f"energy drift={drift:.1e} runtime={_seconds(elapsed)}s budget={budget_s:g}s",
    )
    assert none_two_pi
    assert report.no_circle_period
    assert small_ok
    assert drift_ok
    assert elapsed < budget_s
    # Closing window: T < sqrt(2)*pi excludes a single maximum per turn and
    # T > pi excludes two or more, so no period divides 2*pi.
    assert in_window, (
        f"every period must lie strictly inside (pi, sqrt(2)*pi) = "
        f"({math.pi:.4f}, {SQRT2_PI:.4f}); measured {periods}"
    )


def test_criterion_6_bonnesen_battery():
    budget_s = 30.0
    t0 = time.perf_counter()
    worst_gap = 0.0
    for seed in range(100):
        p = shapes.random_oval_support(512, seed, offset=0.1)
        curve = resample_arclength(curve_from_support(p), 2048)
        rep = bonnesen_chain(curve)
        assert rep.chain_ok, f"chain failed for oval seed {seed}"
        assert rep.t1 * rep.t2 == pytest.approx(rep.area / math.pi, rel=1e-12)
        assert rep.t1 + rep.t2 == pytest.approx(rep.length / math.pi, rel=1e-12)
        worst_gap = max(worst_gap, rep.equality_gap)
    circle_rep = bonnesen_chain(shapes.circle(65536))
    spread = max(
        abs(circle_rep.t1 - 1.0),
        abs(circle_rep.inradius - 1.0),
        abs(circle_rep.circumradius - 1.0),
        abs(circle_rep.t2 - 1.0),
    )
    coincide = circle_rep.t2 - circle_rep.t1
    elapsed = time.perf_counter() - t0
    ok = spread < 1e-4 and coincide < 1e-4 and elapsed < budget_s
    _verdict(
        "criterion 6 Bonnesen battery",
        ok,
        f"100 ovals chain ok, circle spread={spread:.2e} t2-t1={coincide:.2e} "
        f"runtime={_seconds(elapsed)}s budget={budget_s:g}s",
    )
    assert spread < 1e-4
    assert coincide < 1e-4
    assert elapsed < budget_s


def test_criterion_7_cauchy_and_roundtrip_order():
    budget_s = 10.0
    t0 = time.perf_counter()
    worst_cauchy = 0.0
    for seed in range(20):
        p = shapes.random_oval_support(1024, seed, offset=0.15)
        rel = abs(cauchy_length(p) - length(curve_from_support(p)))
        worst_cauchy = max(worst_cauchy, rel / cauchy_length(p))

    def roundtrip_err(seed: int, count: int) -> float:
        dense = shapes.random_oval_support(4096, seed, offset=0.15)
        p_ref = np.asarray(dense.values[:: 4096 // count])
        from curveflow import SupportFunction

        p = SupportFunction(p_ref)
        curve = resample_arclength(curve_from_support(p), count)
        back = support_from_curve(curve, count)
        return float(np.max(np.abs(back.values - p_ref)))

    grids = (256, 512, 1024)
    errs = np.array([[roundtrip_err(seed, n) for n in grids] for seed in range(20)])
    mean_errs = errs.mean(axis=0)
    orders = np.log2(mean_errs[:-1] / mean_errs[1:])
    elapsed = time.perf_counter() - t0
    ok = worst_cauchy < 1e-5 and bool(np.all(orders >= 1.9)) and elapsed < budget_s
    _verdict(
        "criterion 7 Cauchy formula and round-trip order",
        ok,
        f"max cauchy rel err={worst_cauchy:.2e} doubling orders={np.round(orders, 3)} "
        f"runtime={_seconds(elapsed)}s budget={budget_s:g}s",
    )
    assert worst_cauchy < 1e-5
    assert np.all(orders >= 1.9)
    assert elapsed < budget_s


def test_criterion_8_gage_construction():
    budget_s = 30.0
    t0 = time.perf_counter()
    worst_bisect = worst_comp = worst_area = worst_sym = 0.0
    for seed in range(50):
        p = shapes.random_oval_support(1024, seed, offset=0.25)
        base = curve_from_support(p)
        area = signed_area(base)
        sigma = node_cut_areas(p)
        comp = np.max(np.abs(sigma + np.roll(sigma, -p.count // 2) - area)) / area
        worst_comp = max(worst_comp, comp)
        cut = find_bisecting_chord(p, tol=1e-8)
        worst_bisect = max(worst_bisect, abs(cut.sigma - 0.5 * area) / area)
        pair = symmetrize(p, cut)
        for half in (pair.curve1, pair.curve2):
            assert is_convex(half), f"symmetrized half not convex for seed {seed}"
            worst_area = max(worst_area, abs(signed_area(half) - area) / area)
            pts = half.points
            m = pts.shape[0]
            dev = np.max(
                np.hypot(*(pts + np.roll(pts, -m // 2, axis=0) - 2.0 * cut.midpoint).T)
            )
            worst_sym = max(worst_sym, dev / base.diameter)
    elapsed = time.perf_counter() - t0
    ok = (
        worst_bisect <= 1e-6
        and worst_comp <= 1e-8
        and worst_area <= 1e-6
        and worst_sym <= 1e-8
        and elapsed < budget_s
    )
    _verdict(
        "criterion 8 Gage construction",
        ok,
        f"bisect={worst_bisect:.1e} complementarity={worst_comp:.1e} area={worst_area:.1e} "
        f"symmetry={worst_sym:.1e} runtime={_seconds(elapsed)}s budget={budget_s:g}s",
    )
    assert worst_bisect <= 1e-6
    assert worst_comp <= 1e-8
    assert worst_area <= 1e-6
    assert worst_sym <= 1e-8
    assert elapsed < budget_s
