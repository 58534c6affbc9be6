"""One contract for the library: every tolerance, step, amplitude and size
argument must be finite and > 0, or the call raises ValueError naming it
before any solver runs.

``ROWS`` is the one table of the rule. A row named after a function alone is
that function's ``tol`` or ``dt``; a row ``function.argument`` is another of
its arguments. Every exported function that takes a ``tol`` or a ``dt`` has a
row (``test_every_tol_and_dt_has_a_row``).
"""

import importlib
import inspect
import math

import pytest

import curveflow
import curveflow.bonnesen
import curveflow.flow
import curveflow.shrinker
from curveflow import (
    bonnesen_chain,
    bonnesen_roots,
    classify_closed_solutions,
    csf_step,
    find_bisecting_chord,
    integrate_support_ode,
    shapes,
    shoot_period,
    symmetric_shrinker_check,
    verify_shrinker,
)

# the package exports the function symmetrize under the module's name
symmod = importlib.import_module("curveflow.symmetrize")

# symmetric to 2.2e-16 but no circle: symmetric_shrinker_check called it
# one at tol = inf, and asymmetric at tol = 0
OVAL = shapes.random_oval_support(256, 1, symmetric=True)

# row -> (the argument's name, a call that passes the value as that argument)
ROWS = {
    "verify_shrinker": ("tol", lambda v: verify_shrinker(shapes.circle(64), v)),
    "classify_closed_solutions": ("tol", lambda v: classify_closed_solutions([1.5], v)),
    "bonnesen_chain": ("tol", lambda v: bonnesen_chain(shapes.ellipse(64), v)),
    "find_bisecting_chord": ("tol", lambda v: find_bisecting_chord(OVAL, v)),
    "symmetric_shrinker_check": ("tol", lambda v: symmetric_shrinker_check(OVAL, v)),
    "shoot_period": ("tol", lambda v: shoot_period(1.5, v)),
    "integrate_support_ode": ("tol", lambda v: integrate_support_ode(1.5, 0.0, 1.0, v)),
    "csf_step": ("dt", lambda v: csf_step(shapes.circle(128), v)),
    "shoot_period.p0": ("p0", lambda v: shoot_period(v)),
    "integrate_support_ode.p0": ("p0", lambda v: integrate_support_ode(v, 0.0, 1.0)),
    "integrate_support_ode.samples": (
        "samples", lambda v: integrate_support_ode(1.5, 0.0, 1.0, samples=v)),
    "classify_closed_solutions.amplitudes": (
        "amplitudes", lambda v: classify_closed_solutions([1.5, v])),
    "bonnesen_roots.area": ("area", lambda v: bonnesen_roots(v, 1.0)),
    "bonnesen_roots.length": ("length", lambda v: bonnesen_roots(1.0, v)),
}


@pytest.fixture
def no_solver(monkeypatch):
    """Every solver behind a row raises, so a call that gets past its check
    fails instead of running."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("a solver ran on a rejected value")

    for module, name in [(curveflow.shrinker, "solve_ivp"), (curveflow.shrinker, "quad"),
                         (curveflow.bonnesen, "linprog"), (curveflow.flow, "_Gauge"),
                         (symmod, "node_cut_areas"), (symmod, "curve_from_support")]:
        monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(ROWS))
def test_bad_tol_rejected(no_solver, name, value):
    argument, call = ROWS[name]
    with pytest.raises(ValueError, match=f"^{argument} must be finite and > 0, got "):
        call(value)


def test_every_tol_and_dt_has_a_row():
    """A new exported tolerance fails here until the table has its row."""
    # functions only: a report class such as ClassificationReport records a
    # tol that a function already checked
    covered = {(name, p) for name, obj in vars(curveflow).items()
               if inspect.isfunction(obj) and not name.startswith("_")
               for p in ("tol", "dt") if p in inspect.signature(obj).parameters}
    own_rows = {(name, argument) for name, (argument, _) in ROWS.items() if "." not in name}
    assert covered == own_rows
