"""The names and calls of the package that the benchmark in perfbench/ uses.

perfbench/ wraps package functions by name and calls them with fixed
arguments. A change that renames or drops one of them, or an argument the
benchmark passes, breaks the benchmark without failing any other test. These
checks only import and run perfbench/ code; they write nothing there.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

import curveflow as cf
import curveflow.cli as cli
import curveflow.shapes  # noqa: F401  the probe reaches the generators as cf.shapes

_PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
_WRITE_BYTECODE = sys.dont_write_bytecode
sys.path.insert(0, _PERFBENCH)
sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
try:
    import spans
    import workloads
finally:
    sys.path.remove(_PERFBENCH)
    sys.dont_write_bytecode = _WRITE_BYTECODE


@pytest.mark.parametrize("module, attr", spans.TRACED + spans.COUNTED,
                         ids=[spans.span_name(m, a) for m, a in spans.TRACED + spans.COUNTED])
def test_traced_name_resolves(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_layer_probe_runs(tmp_path):
    spans.layer_probe(cf, cli, tmp_path)


def test_result_hooks_count_the_probe(tmp_path):
    """Traced runs read step counts, nfev and nit from the public results of
    the calls they wrap (spans.RESULT_HOOKS)."""
    with spans.Recorder() as rec:
        spans.layer_probe(cf, cli, tmp_path)
    assert rec.counters["flow.steps"] > 0
    assert rec.counters["shrinker.solve_ivp.nfev"] > 0
    assert rec.counters["bonnesen.linprog.nit"] > 0


def test_jobs_speedup_call_binds():
    inspect.signature(cf.classify_closed_solutions).bind(list(spans.JOBS_GRID), jobs=2)


def test_curve_from_support_call_binds():
    """workloads.py calls it with mode="spectral" at 5 sites."""
    p = cf.shapes.random_oval_support(64, 0)
    inspect.signature(cf.curve_from_support).bind(p, mode="spectral")


def test_resample_arclength_call_binds():
    """workloads.py calls resample_arclength(curve, count) at 2 sites."""
    inspect.signature(cf.resample_arclength).bind(cf.shapes.circle(64), 2048)


def test_bonnesen_chain_call_binds():
    """workloads.py passes seed= to bonnesen_chain for each oval item."""
    inspect.signature(cf.bonnesen_chain).bind(cf.shapes.circle(64), seed=1)


def test_ode_route_oracle_margin():
    """The ODE workload's shot periods sit 100x inside gates.shot_period's
    1e-8 of the quadrature oracle, so the gate measures the shot, not the
    oracle's own error."""
    for p0 in workloads.OdeRoute(2).amplitudes:
        period = cf.classify_closed_solutions([p0]).entries[0].period
        assert abs(period - cf.period_by_quadrature(p0)) <= 1e-10, p0
