"""Correctness gates, with the tolerances of the repository's own tests.

Each gate takes results the program computed and returns a list of failure
messages; an empty list means the gate holds. The tolerances are those of
``tests/test_acceptance.py`` (criteria 1-4 and 6-8), ``tests/test_shrinker.py``
(shooting against the quadrature oracle) and ``tests/test_cli.py`` (exit
codes and report contents). They are copied unchanged.

Two parts of the battery are deliberately not gates here:

- the runtime budgets (``elapsed < 30.0`` and so on): the benchmark measures
  time instead of bounding it;
- criterion 5's period window ``(sqrt(2)*pi, 2*pi)``: the measured periods lie
  in ``(pi, sqrt(2)*pi)`` and whether the window or the code is wrong is an
  open question about the specification, not something a benchmark decides.
"""

from __future__ import annotations

import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi


def approx(actual: float, expected: float, *, rel: float | None = None,
           abs_: float | None = None) -> bool:
    """``actual == pytest.approx(expected, rel=rel, abs=abs_)``, without pytest.

    Same rule as pytest: with neither tolerance given, rel = 1e-6 and
    abs = 1e-12; with only ``abs_`` given, the relative tolerance is ignored;
    with only ``rel`` given, the default absolute tolerance of 1e-12 still
    applies.
    """
    if rel is None and abs_ is None:
        rel, abs_ = 1e-6, 1e-12
    elif rel is None:
        rel = 0.0
    elif abs_ is None:
        abs_ = 1e-12
    return abs(actual - expected) <= max(rel * abs(expected), abs_)


def _fail(ok: bool, message: str) -> list[str]:
    return [] if ok else [message]


# -- flow route -------------------------------------------------------------

def circle_law(snapshots, extinction_time, stop_reason, centroid) -> list[str]:
    """Criterion 2: mean radius follows sqrt(1 - 2t); extinction at 0.5 +- 0.02.

    ``centroid`` is the program's area-centroid function, as in the test.
    """
    worst = 0.0
    for t, snap in snapshots:
        if t > 0.45:
            continue
        radii = np.hypot(*(snap.points - centroid(snap)).T)
        worst = max(worst, abs(float(radii.mean()) - math.sqrt(1.0 - 2.0 * t)))
    fails = _fail(stop_reason == "collapsed", f"stop reason {stop_reason!r}, not 'collapsed'")
    fails += _fail(worst < 1e-3, f"max|R - sqrt(1-2t)| = {worst:.3e} >= 1e-3")
    fails += _fail(
        extinction_time is not None and approx(extinction_time, 0.5, abs_=0.02),
        f"extinction time {extinction_time} not within 0.02 of 0.5",
    )
    return fails


def area_decay(slope: float, extinction_time, area0: float) -> list[str]:
    """Criterion 3: dA/dt = -2*pi within 1e-2; extinction at A0/(2*pi) within 5e-2."""
    slope_rel = abs(slope + TWO_PI) / TWO_PI
    fails = _fail(slope_rel < 0.01, f"area slope {slope:.6f}: rel. error {slope_rel:.3e} >= 1e-2")
    if extinction_time is None:
        return fails + ["flow did not collapse"]
    t_pred = area0 / TWO_PI
    ext_rel = abs(extinction_time - t_pred) / t_pred
    fails += _fail(ext_rel < 0.05, f"extinction {extinction_time:.5f} vs {t_pred:.5f}: "
                                   f"rel. error {ext_rel:.3e} >= 5e-2")
    return fails


def rescaled_limit(max_residual: float, equality_gap: float, chain_ok: bool) -> list[str]:
    """Criterion 4: the renormalized limit is a shrinker and closes the Bonnesen gap."""
    fails = _fail(max_residual < 1e-2, f"shrinker residual {max_residual:.3e} >= 1e-2")
    fails += _fail(equality_gap < 1e-2, f"Bonnesen equality gap {equality_gap:.3e} >= 1e-2")
    fails += _fail(bool(chain_ok), "Bonnesen chain t1 <= r <= R <= t2 fails")
    return fails


# -- ODE route --------------------------------------------------------------

def shot_period(shot: float, quadrature: float) -> list[str]:
    """test_shrinker: shoot_period == approx(period_by_quadrature, abs=1e-8)."""
    return _fail(approx(shot, quadrature, abs_=1e-8),
                 f"shot period {shot!r} differs from quadrature {quadrature!r} by "
                 f"{abs(shot - quadrature):.3e} > 1e-8")


def no_circle_period(flag: bool) -> list[str]:
    """Criterion 5 (all clauses but the window): no period equals 2*pi."""
    return _fail(bool(flag), "a measured period equals 2*pi within tol")


# -- geometry ---------------------------------------------------------------

def shrinker_identities(report) -> list[str]:
    """Criterion 1 on the unit circle: area, length, residual, gauge, verdict."""
    area_err = abs(report.area - math.pi)
    len_err = abs(report.length - TWO_PI)
    fails = _fail(area_err < 1e-5, f"|A - pi| = {area_err:.3e} >= 1e-5")
    fails += _fail(len_err < 1e-5, f"|L - 2pi| = {len_err:.3e} >= 1e-5")
    fails += _fail(report.max_residual < 1e-3, f"residual {report.max_residual:.3e} >= 1e-3")
    fails += _fail(report.gauge_max_rel_dev is not None and report.gauge_max_rel_dev < 1e-4,
                   f"gauge deviation {report.gauge_max_rel_dev} >= 1e-4")
    fails += _fail(bool(report.verdict), "shrinker verdict is false")
    return fails


def bonnesen_oval(rep) -> list[str]:
    """Criterion 6, per oval: chain holds and t1, t2 are the roots (rel 1e-12)."""
    fails = _fail(bool(rep.chain_ok), "Bonnesen chain fails")
    fails += _fail(approx(rep.t1 * rep.t2, rep.area / math.pi, rel=1e-12),
                   "t1*t2 != A/pi at rel 1e-12")
    fails += _fail(approx(rep.t1 + rep.t2, rep.length / math.pi, rel=1e-12),
                   "t1+t2 != L/pi at rel 1e-12")
    return fails


def bonnesen_circle(rep) -> list[str]:
    """Criterion 6 on circle(65536): t1, r, R, t2 all within 1e-4 of 1."""
    spread = max(abs(rep.t1 - 1.0), abs(rep.inradius - 1.0),
                 abs(rep.circumradius - 1.0), abs(rep.t2 - 1.0))
    coincide = rep.t2 - rep.t1
    fails = _fail(spread < 1e-4, f"circle spread {spread:.3e} >= 1e-4")
    fails += _fail(coincide < 1e-4, f"t2 - t1 = {coincide:.3e} >= 1e-4")
    return fails


def cauchy_formula(rel_err: float) -> list[str]:
    """Criterion 7: Cauchy length matches the polygon length (rel 1e-5)."""
    return _fail(rel_err < 1e-5, f"Cauchy length rel. error {rel_err:.3e} >= 1e-5")


def roundtrip_order(errs) -> list[str]:
    """Criterion 7: support round-trip error falls at order >= 1.9 per grid doubling.

    ``errs`` has one row per oval and one column per grid (256, 512, 1024);
    the orders come from the column means, as in the test.
    """
    mean_errs = np.asarray(errs, dtype=float).mean(axis=0)
    orders = np.log2(mean_errs[:-1] / mean_errs[1:])
    return _fail(bool(np.all(orders >= 1.9)), f"round-trip orders {orders} not all >= 1.9")


def gage_construction(comp: float, bisect: float, halves_convex: bool,
                      area_dev: float, sym_dev: float) -> list[str]:
    """Criterion 8: complementarity, bisection, area and central symmetry."""
    fails = _fail(comp <= 1e-8, f"complementarity {comp:.3e} > 1e-8")
    fails += _fail(bisect <= 1e-6, f"bisection {bisect:.3e} > 1e-6")
    fails += _fail(bool(halves_convex), "a symmetrized half is not convex")
    fails += _fail(area_dev <= 1e-6, f"half area deviation {area_dev:.3e} > 1e-6")
    fails += _fail(sym_dev <= 1e-8, f"central symmetry deviation {sym_dev:.3e} > 1e-8")
    return fails


# -- command line -----------------------------------------------------------

def exit_code(got: int, expected: int) -> list[str]:
    return _fail(got == expected, f"exit code {got}, expected {expected}")


def json_report(text: str):
    """Parse a CLI JSON report; returns (report dict or None, failures)."""
    try:
        payload = json.loads(text)
        report = payload["report"]
    except (ValueError, KeyError, TypeError) as exc:
        return None, [f"unparsable JSON report: {exc}"]
    if not isinstance(report, dict):
        return None, ["JSON report is not an object"]
    return report, []


def classification_csv(text: str):
    """Parse ``ode-shoot`` CSV output; returns ([(p0, period)], no_circle, failures)."""
    lines = text.strip().splitlines()
    if len(lines) < 3 or lines[0] != "p0,period,ratio_to_2pi":
        return [], False, [f"unparsable ode-shoot output: {text[:80]!r}"]
    rows = []
    try:
        for line in lines[1:-1]:
            p0, period, _ratio = (float(tok) for tok in line.split(","))
            rows.append((p0, period))
    except ValueError as exc:
        return [], False, [f"unparsable ode-shoot row: {exc}"]
    summary = lines[-1]
    if not summary.startswith("# no period equals 2*pi"):
        return rows, False, [f"missing summary line: {summary!r}"]
    return rows, summary.endswith(": true"), []
