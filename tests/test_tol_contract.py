"""Every public ``tol`` must be finite and > 0: one contract for the library."""

import importlib
import math

import pytest

import curveflow.bonnesen
import curveflow.shrinker
from curveflow import (
    bonnesen_chain,
    classify_closed_solutions,
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

CALLS = {
    "verify_shrinker": lambda tol: verify_shrinker(shapes.circle(64), tol),
    "classify_closed_solutions": lambda tol: classify_closed_solutions([1.5], tol),
    "bonnesen_chain": lambda tol: bonnesen_chain(shapes.ellipse(64), tol),
    "find_bisecting_chord": lambda tol: find_bisecting_chord(OVAL, tol),
    "symmetric_shrinker_check": lambda tol: symmetric_shrinker_check(OVAL, tol),
    "shoot_period": lambda tol: shoot_period(1.5, tol),
    "integrate_support_ode": lambda tol: integrate_support_ode(1.5, 0.0, 1.0, tol),
}


@pytest.fixture
def no_solver(monkeypatch):
    """Every solver behind a ``tol`` raises, so a call that gets past its
    check fails instead of running."""
    def refuse(*_args, **_kwargs):
        raise AssertionError("a solver ran on a rejected tol")

    for module, name in [(curveflow.shrinker, "solve_ivp"), (curveflow.shrinker, "quad"),
                         (curveflow.bonnesen, "linprog"), (symmod, "node_cut_areas"),
                         (symmod, "curve_from_support")]:
        monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_bad_tol_rejected(no_solver, name, tol):
    with pytest.raises(ValueError, match="tol must be"):
        CALLS[name](tol)
