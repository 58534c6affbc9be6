"""Self-test of the gates: each accepts a correct result and rejects a perturbed one.

Runs at the start of every benchmark run; a gate that would pass a perturbed
result makes the run report ``correct: false``. Without it, zero failed
operations would not show that the gates can fail at all.
"""

from __future__ import annotations

import dataclasses
import math

import curveflow as cf
import curveflow.shapes  # noqa: F401  (makes cf.shapes available)

import gates


def run() -> list[str]:
    """Return one message per gate that misjudged a case (empty when all hold)."""
    problems: list[str] = []

    def expect(label: str, failures: list[str], should_fail: bool) -> None:
        if bool(failures) != should_fail:
            verdict = "passed" if not failures else f"failed ({failures[0]})"
            problems.append(f"self-test {label}: gate {verdict}, expected the opposite")

    period = cf.period_by_quadrature(1.5)
    expect("period exact", gates.shot_period(period, period), False)
    expect("period shifted by 1e-6", gates.shot_period(period + 1e-6, period), True)
    expect("no circle period", gates.no_circle_period(True), False)
    expect("a circle period", gates.no_circle_period(False), True)

    circle = cf.shapes.circle(64)
    law = [(0.0, circle)]
    expect("circle law on a circle", gates.circle_law(law, 0.5, "collapsed", cf.centroid), False)
    expect("circle law on an ellipse", gates.circle_law(
        [(0.0, cf.shapes.ellipse(64))], 0.5, "collapsed", cf.centroid), True)
    expect("circle law, late extinction", gates.circle_law(
        law, 0.521, "collapsed", cf.centroid), True)
    expect("circle law, not collapsed", gates.circle_law(law, 0.5, "t_max", cf.centroid), True)

    area0 = 2.0
    t_pred = area0 / gates.TWO_PI
    expect("area decay exact", gates.area_decay(-gates.TWO_PI, t_pred, area0), False)
    expect("area slope off by 1.1%", gates.area_decay(-1.011 * gates.TWO_PI, t_pred, area0), True)
    expect("extinction off by 5.1%", gates.area_decay(-gates.TWO_PI, 1.051 * t_pred, area0), True)
    expect("no extinction", gates.area_decay(-gates.TWO_PI, None, area0), True)

    expect("rescaled limit", gates.rescaled_limit(5e-3, 5e-3, True), False)
    expect("rescaled residual 1.1e-2", gates.rescaled_limit(1.1e-2, 5e-3, True), True)
    expect("rescaled gap 1.1e-2", gates.rescaled_limit(5e-3, 1.1e-2, True), True)
    expect("rescaled chain broken", gates.rescaled_limit(5e-3, 5e-3, False), True)

    shrinker = cf.verify_shrinker(cf.shapes.circle(4096), tol=1e-3)
    expect("criterion 1 on circle(4096)", gates.shrinker_identities(shrinker), False)
    expect("criterion 1, area off by 2e-5", gates.shrinker_identities(
        dataclasses.replace(shrinker, area=shrinker.area + 2e-5)), True)
    expect("criterion 1, gauge 2e-4", gates.shrinker_identities(
        dataclasses.replace(shrinker, gauge_max_rel_dev=2e-4)), True)

    oval = cf.bonnesen_chain(cf.shapes.ellipse(256))
    expect("Bonnesen oval", gates.bonnesen_oval(oval), False)
    expect("Bonnesen oval, area off by 1e-9", gates.bonnesen_oval(
        dataclasses.replace(oval, area=oval.area * (1.0 + 1e-9))), True)
    expect("Bonnesen oval, chain broken", gates.bonnesen_oval(
        dataclasses.replace(oval, chain_ok=False)), True)
    # criterion 6's circle needs 65536 samples to pass; an exact report keeps this cheap
    disk = cf.BonnesenReport(area=math.pi, length=2.0 * math.pi, inradius=1.0,
                             circumradius=1.0, t1=1.0, t2=1.0, chain_ok=True, equality_gap=0.0)
    expect("Bonnesen circle", gates.bonnesen_circle(disk), False)
    expect("Bonnesen circle, R off by 2e-4", gates.bonnesen_circle(
        dataclasses.replace(disk, circumradius=disk.circumradius + 2e-4)), True)

    expect("Cauchy 5e-6", gates.cauchy_formula(5e-6), False)
    expect("Cauchy 2e-5", gates.cauchy_formula(2e-5), True)
    expect("round-trip order 2", gates.roundtrip_order([[4e-6, 1e-6, 2.5e-7]]), False)
    expect("round-trip order 1.8", gates.roundtrip_order(
        [[1e-6 * 2 ** 3.6, 1e-6 * 2 ** 1.8, 1e-6]]), True)

    good = dict(comp=1e-10, bisect=1e-8, halves_convex=True, area_dev=1e-8, sym_dev=1e-10)
    expect("Gage construction", gates.gage_construction(**good), False)
    for key, bad in (("comp", 2e-8), ("bisect", 2e-6), ("halves_convex", False),
                     ("area_dev", 2e-6), ("sym_dev", 2e-8)):
        expect(f"Gage construction, {key}={bad}", gates.gage_construction(**{**good, key: bad}),
               True)

    expect("CLI exit 3 as expected", gates.exit_code(3, 3), False)
    expect("CLI exit 0 where 3 was expected", gates.exit_code(0, 3), True)
    expect("CLI JSON report", gates.json_report('{"config": {}, "report": {}}')[1], False)
    expect("CLI output not JSON", gates.json_report("verdict: true")[1], True)
    expect("CLI JSON without report", gates.json_report('{"config": {}}')[1], True)
    csv = "p0,period,ratio_to_2pi\n1.5,4,0.6\n# no period equals 2*pi within tol=0.001: true\n"
    rows, no_circle, failures = gates.classification_csv(csv)
    expect("ode-shoot CSV", failures + gates.no_circle_period(no_circle), False)
    expect("ode-shoot CSV garbled", gates.classification_csv(csv.replace(",4,", ",x,"))[2], True)
    expect("ode-shoot CSV without summary", gates.classification_csv(
        csv.rsplit("#", 1)[0] + "extra\n")[2], True)
    if not (math.isclose(rows[0][0], 1.5) and rows[0][1] == 4.0):
        problems.append(f"self-test ode-shoot CSV parsed as {rows}")
    return problems
