"""The names and calls of the package that the benchmark in perfbench/ uses.

perfbench/ wraps package functions by name and calls them with fixed
arguments. A change that renames or drops one of them, or an argument the
benchmark passes, breaks the benchmark without failing any other test. These
checks only import and run perfbench/ code; they write nothing there.
"""

import importlib
import inspect
import os
import subprocess
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
    import speed
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


def test_recorder_leaves_the_package_as_it_found_it(tmp_path):
    """The package resolves cf.<name> in its submodule on every access, so a
    traced run sees the Recorder's wrappers through cf, and none outlives it."""
    with spans.Recorder():
        assert hasattr(cf.run_flow, "__wrapped__")  # the span wrapper
        spans.layer_probe(cf, cli, tmp_path)
    assert [name for name, value in vars(cf).items() if hasattr(value, "__wrapped__")] == []
    for name, module in cf._MODULE_OF.items():
        obj = getattr(cf, name)
        assert obj is vars(sys.modules[f"curveflow.{module}"])[name], name
        assert not hasattr(obj, "__wrapped__"), name


def test_star_import_binds_every_export():
    """``from curveflow import *`` binds each exported name and submodule, as
    it did when the package imported every submodule eagerly."""
    namespace: dict = {}
    exec("from curveflow import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(cf._EXPORTS) | set(cf._MODULE_OF)
    assert all(value is getattr(cf, name) for name, value in namespace.items())
    assert inspect.isfunction(namespace["symmetrize"])


def _fresh_python(code: str, *args: str) -> str:
    """Run ``code`` in a new interpreter that imports src/ and perfbench/; its stdout."""
    src = str(Path(cf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, _PERFBENCH, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_recorder_that_first_imports_flow_leaves_no_wrapper(tmp_path):
    """The traced runs import the package, the CLI and the shapes before they
    enter the Recorder, so the Recorder itself first imports flow and
    shrinker, after it has swapped curves' functions. Once it exits, no
    curveflow module binds one of its wrappers."""
    stdout = _fresh_python("""
import sys
from pathlib import Path

import curveflow as cf, curveflow.cli as cli, curveflow.shapes
import spans

before = "curveflow.flow" in sys.modules
with spans.Recorder():
    spans.layer_probe(cf, cli, Path(sys.argv[1]))
print(before, "curveflow.flow" in sys.modules, sorted(
    f"{key}.{name}" for key, module in sys.modules.items() if key.split(".")[0] == "curveflow"
    for name, value in vars(module).items() if hasattr(value, "__wrapped__")))
""", str(tmp_path))
    assert stdout == "False True []\n"


def test_symmetrize_is_the_function_in_perfbench_order():
    """workloads.py imports the submodule curveflow.symmetrize, then calls
    cf.symmetrize(...) as the function."""
    assert _fresh_python("import importlib\n"
                         "module = importlib.import_module('curveflow.symmetrize')\n"
                         "import curveflow as cf\n"
                         "print(cf.symmetrize is module.symmetrize)") == "True\n"


@pytest.mark.parametrize("missing, expected", [(False, 0), (True, 1)],
                         ids=["exit_0", "exit_1"])
def test_cli_child_reports_its_kernel(tmp_path, missing, expected):
    """The cli workload runs each call as a fresh process through
    speed.run_child, which raises unless the child's atexit hook reports the
    calibration kernel on the way out."""
    curve = tmp_path / "circle.csv"
    if not missing:
        cf.write_curve_csv(cf.shapes.circle(64), curve)
    src = str(Path(cf.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, _PERFBENCH, os.environ.get("PYTHONPATH")])))
    code, stdout, stderr, raw, ref = speed.run_child(
        workloads.CLI_MAIN, ["support", "--input", str(curve), "--grid", "64"],
        cwd=tmp_path, env=env)
    assert code == expected
    if missing:
        assert stdout == "" and "error: input file not found" in stderr
    else:
        assert len(stdout.splitlines()) == 64 and stderr == ""
    assert speed.CHILD_TAG not in stderr
    assert raw > 0 and ref > 0


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
