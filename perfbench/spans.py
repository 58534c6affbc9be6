"""Outside-in tracing of curveflow's layers, for the traced run only.

``Recorder`` wraps public functions at every module binding they are called
through: the defining module, the package namespace and each
``from .x import f`` binding in another curveflow module (so that the calls
``flow`` makes to ``curves`` and ``symmetrize`` makes to ``support`` are seen).
Methods are wrapped on their class. Nothing under ``src/`` is edited; the
patches are undone when the recorder exits.

The SciPy solvers curveflow calls (``solve_ivp``, ``linprog``) are wrapped at
their curveflow binding only to count the evaluations and iterations their
public results report; they get no span, so their time stays in the self
time of the curveflow function that called them.

A span records its name, start, end and the span that was open when it began.
Spans stay in memory until the run ends. A span's self time is its duration
minus the durations of its direct children. Span times leave out the speed
kernels the clock samples during the work (``speed.work_clock``). Spans
assume one thread: the one measurement that uses a thread pool
(``jobs_speedup``) runs untraced.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import os
import statistics
import sys
from collections import Counter, defaultdict
from pathlib import Path

import speed

# (module that binds the name, attribute path). Span names are
# "<module suffix>.<attribute path>", e.g. "curves.signed_curvature".
TRACED = (
    ("curveflow.curves", "ClosedCurve.__post_init__"),
    ("curveflow.curves", "signed_curvature"),
    ("curveflow.curves", "resample_arclength"),
    ("curveflow.curves", "is_simple"),
    ("curveflow.curves", "read_curve_csv"),
    ("curveflow.curves", "write_curve_csv"),
    ("curveflow.flow", "csf_step"),
    ("curveflow.flow", "suggested_dt"),
    ("curveflow.flow", "run_flow"),
    ("curveflow.flow", "rescaled_flow"),
    ("curveflow.flow", "FlowTrajectory.write_csv"),
    ("curveflow.shrinker", "shoot_period"),
    ("curveflow.shrinker", "period_by_quadrature"),
    ("curveflow.shrinker", "verify_shrinker"),
    ("curveflow.shrinker", "ClassificationReport.write_csv"),
    ("curveflow.bonnesen", "inradius"),
    ("curveflow.bonnesen", "minimal_enclosing_circle"),
    ("curveflow.support", "support_from_curve"),
    ("curveflow.support", "curve_from_support"),
    ("curveflow.support", "SupportFunction.eval"),
    ("curveflow.support", "write_support_csv"),
    ("curveflow.symmetrize", "find_bisecting_chord"),
    ("curveflow.symmetrize", "symmetrize"),
)

# Counted from their public results, without a span of their own.
COUNTED = (
    ("curveflow.shrinker", "solve_ivp"),
    ("curveflow.bonnesen", "linprog"),
)

# The CSV readers and writers the CLI calls; their self time is cli.io_s.
IO_SPANS = (
    "curves.read_curve_csv",
    "curves.write_curve_csv",
    "flow.FlowTrajectory.write_csv",
    "shrinker.ClassificationReport.write_csv",
    "support.write_support_csv",
)


def span_name(module: str, attr: str) -> str:
    name = f"{module.rsplit('.', 1)[1]}.{attr}"
    return name.removesuffix(".__post_init__")


def _count_steps_run_flow(rec, traj):
    rec.counters["flow.steps"] += traj.final_state.step_count


def _count_steps_rescaled(rec, result):
    profile, _report = result
    rec.counters["flow.steps"] += len(profile.times) - 1


def _count_nfev(rec, sol):
    rec.counters["shrinker.solve_ivp.nfev"] += sol.nfev
    if rec.current() == "shrinker.shoot_period":
        rec.counters["shrinker.solve_ivp.nfev_in_shoot"] += sol.nfev


def _count_nit(rec, res):
    rec.counters["bonnesen.linprog.nit"] += res.nit


# Counters read from the public result of a wrapped call.
RESULT_HOOKS = {
    "flow.run_flow": _count_steps_run_flow,
    "flow.rescaled_flow": _count_steps_rescaled,
    "shrinker.solve_ivp": _count_nfev,
    "bonnesen.linprog": _count_nit,
}


class Recorder:
    """Context manager that installs the span wrappers and removes them on exit."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self.spans[self._stack[-1]][0] if self._stack else None

    def _count(self, name: str, fn):
        hook = RESULT_HOOKS[name]

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(self, result)
            return result

        return counted

    def _wrap(self, name: str, fn):
        spans, stack, hook = self.spans, self._stack, RESULT_HOOKS.get(name)
        clock = speed.work_clock  # the sampled speed kernels are not program time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> "Recorder":
        try:
            for module_name, attr in TRACED:
                self._patch(module_name, attr, self._wrap)
            for module_name, attr in COUNTED:
                self._patch(module_name, attr, self._count)
        except BaseException:
            self.__exit__()
            raise
        return self

    def _patch(self, module_name: str, attr: str, wrap) -> None:
        module = importlib.import_module(module_name)
        name = span_name(module_name, attr)
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            self._set(cls, method, wrap(name, cls.__dict__[method]))
            return
        original = getattr(module, attr)
        wrapper = wrap(name, original)
        for key, mod in list(sys.modules.items()):
            if mod is None or not (key == "curveflow" or key.startswith("curveflow.")):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, binding, wrapper)

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def totals(self):
        """Calls, self seconds and inclusive seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        incl_s: defaultdict = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            calls[name] += 1
            incl_s[name] += end - start
            self_s[name] += end - start - child[i]
        return calls, self_s, incl_s


def layer_metrics(rec: Recorder, scale: float) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of a traced run.

    ``scale`` converts the spans' wall seconds to reference seconds.
    """
    calls, self_s, incl_s = rec.totals()
    self_s = {name: seconds * scale for name, seconds in self_s.items()}
    incl_s = {name: seconds * scale for name, seconds in incl_s.items()}
    steps = rec.counters["flow.steps"]
    m: dict[str, float] = {"flow.steps": steps}
    for name in ("flow.csf_step", "flow.suggested_dt", "curves.ClosedCurve",
                 "curves.signed_curvature", "curves.resample_arclength", "curves.is_simple",
                 "shrinker.shoot_period", "bonnesen.inradius",
                 "bonnesen.minimal_enclosing_circle", "support.support_from_curve",
                 "support.curve_from_support", "symmetrize.find_bisecting_chord"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("flow.run_flow", "flow.rescaled_flow", "shrinker.period_by_quadrature",
                 "shrinker.verify_shrinker", "symmetrize.symmetrize"):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("curves.ClosedCurve", "curves.signed_curvature"):
        m[f"{name}.calls_per_step"] = calls[name] / steps
    flow_s = incl_s.get("flow.run_flow", 0.0) + incl_s.get("flow.rescaled_flow", 0.0)
    m["flow.us_per_step"] = 1e6 * flow_s / steps
    m["shrinker.solve_ivp.nfev"] = rec.counters["shrinker.solve_ivp.nfev"]
    m["shrinker.nfev_per_period"] = (rec.counters["shrinker.solve_ivp.nfev_in_shoot"]
                                     / calls["shrinker.shoot_period"])
    m["bonnesen.linprog.nit"] = rec.counters["bonnesen.linprog.nit"]
    m["support.SupportFunction.eval.calls"] = calls["support.SupportFunction.eval"]
    m["cli.io_s"] = sum(self_s.get(name, 0.0) for name in IO_SPANS)
    return m


def layer_probe(cf, cli, workdir: Path) -> None:
    """One small fixed call into every traced layer.

    Run at the end of every traced run, so that each per-layer metric is
    measured on every workload, including the layers the workload itself
    bypasses. The probe is the same on every workload; on a bypassed layer
    the metric is the probe's cost alone.
    """
    cf.run_flow(cf.shapes.circle(64), t_max=0.01)
    cf.rescaled_flow(cf.shapes.circle(64), t_max=1e-3)
    cf.classify_closed_solutions([1.5])
    cf.period_by_quadrature(1.5)
    cf.bonnesen_chain(cf.shapes.circle(64))
    cf.curve_from_support(cf.support_from_curve(cf.shapes.circle(64), 64))
    oval = cf.shapes.random_oval_support(256, 0, offset=0.25)
    cf.symmetrize(oval, cf.find_bisecting_chord(oval))
    path = workdir / "probe.csv"
    cf.write_curve_csv(cf.shapes.circle(64), path)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["support", "--input", str(path), "--grid", "64",
                  "--output", str(workdir / "out" / "probe")])


def bytes_under(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def import_seconds(root: Path, env: dict, repeats: int = 3) -> float:
    """Median time of a fresh ``python -c 'import curveflow.cli'``, start-up included.

    This is what every CLI call pays before it does any work.
    """
    return statistics.median(
        speed.run_child("import curveflow.cli", [], cwd=root, env=env)[4] for _ in range(repeats))


# Criterion 5's survey. On a 2-core machine it took 1.41 s with one thread and
# 2.32 s with two: the right-hand side is a Python callback that holds the GIL.
JOBS_GRID = (1.01, 1.1, 1.5, 2.0, 3.0, 5.0)


def jobs_speedup(cf, clock) -> float:
    """Survey time at jobs=1 over survey time at jobs=nproc (untraced)."""
    nproc = len(os.sched_getaffinity(0))
    serial, parallel = (
        clock.measure(lambda jobs=jobs: cf.classify_closed_solutions(JOBS_GRID, jobs=jobs))[2]
        for jobs in (1, nproc))
    return serial / parallel
