#!/usr/bin/env python3
"""curveflow benchmark: seeded evidence workloads, gated and timed.

Run from the repository root:

    python3 perfbench/run.py --workload flow_route --seed 1 --seconds 20 --trace 0

Workloads: flow_route, ode_route, geometry, cli (see BENCHMARK.json for why
each exists). Every operation is checked against the acceptance battery's
tolerances before its time counts. ``--trace 0`` repeats whole passes for
about ``--seconds`` and reports the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics. Times are in
reference seconds (see speed.py).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
a JSON record of the machine, the run, the raw wall times and any failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("flow_route", "ode_route", "geometry", "cli")
# BLAS and OpenMP pools pinned to one thread before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5


@dataclass
class Pass:
    item_s: list[float] = field(default_factory=list)  # reference seconds
    raw_item_s: list[float] = field(default_factory=list)  # wall seconds
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.item_s)

    @property
    def raw_wall_s(self) -> float:
        return sum(self.raw_item_s)


def _outcome(item):
    try:
        return item.run()
    except Exception as exc:  # an operation that raises is a failed operation
        fails = [f"raised {type(exc).__name__}: {exc}"]
        return (fails, 0.0, 0.0) if item.in_child else fails


def run_pass(items, clock) -> Pass:
    """Run every item and time it in raw and reference seconds."""
    result = Pass()
    for item in items:
        if item.in_child:  # timed against the kernel of its own child process
            fails, raw, ref = _outcome(item)
        else:
            fails, raw, ref = clock.measure(lambda: _outcome(item))
        result.item_s.append(ref)
        result.raw_item_s.append(raw)
        result.attempted += 1
        if fails:
            result.failed += 1
            result.failures.extend(f"{item.name}: {f}" for f in fails)
    return result


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def machine_record(args, np, scipy) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def peak_rss_mb(who: int) -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed_run(args, workload, setups, clock):
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(workload.items(), clock))
        # start no pass that would, at the mean pass time, end after --seconds
        elapsed = time.perf_counter() - start
        if elapsed * (1.0 + 1.0 / len(passes)) > args.seconds:
            break
    item_s = [t for p in passes for t in p.item_s]
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "item_p50_ms": 1e3 * statistics.median(item_s),
        "peak_rss_mb": peak_rss_mb(who),
    }
    extra = {"passes": len(passes), "items_per_pass": len(passes[0].item_s),
             "item_samples": len(item_s), "raw_wall_s": [p.raw_wall_s for p in passes]}
    # a 90th percentile needs at least ten samples beyond it
    if len(item_s) >= 100:
        extra["item_p90_ms"] = 1e3 * statistics.quantiles(item_s, n=10, method="inclusive")[8]
    return metrics, passes, extra


def traced_run(workload, env, workdir, clock, cf, cli):
    import spans
    import speed

    untraced = run_pass(workload.traced_items(), clock)
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    with spans.Recorder() as recorder:
        traced = run_pass(workload.traced_items(), clock)
        spans.layer_probe(cf, cli, workdir)
    metrics = spans.layer_metrics(recorder, scale=traced.wall_s / traced.raw_wall_s)
    metrics["cli.bytes_written"] = spans.bytes_under(out)
    metrics["cli.import_s"] = spans.import_seconds(ROOT, env)
    # the jobs=nproc survey starts threads, so its speed is not sampled
    metrics["shrinker.jobs_speedup"] = spans.jobs_speedup(cf, speed.SpeedClock(sample=False))
    metrics["trace_overhead_s"] = traced.wall_s - untraced.wall_s
    extra = {"raw_wall_s": [untraced.raw_wall_s, traced.raw_wall_s],
             "spans": len(recorder.spans)}
    return metrics, [untraced, traced], extra


def with_units(metrics: dict, declared: list[dict]) -> dict:
    """Attach the units BENCHMARK.json declares; the names must match exactly."""
    names = {m["name"] for m in declared}
    if names != set(metrics):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ names)} are computed or declared "
                           "but not both")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure passes for about this long (trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "curveflow" / "__init__.py").is_file():
        print(f"error: curveflow sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env = dict(os.environ)
    # children import perfbench's speed module to time their calibration kernel
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), str(ROOT / "perfbench"), env.get("PYTHONPATH")]))

    import numpy as np
    import scipy

    import curveflow as cf
    import curveflow.cli as cli
    import selftest
    import speed
    import workloads

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = ROOT / ".bench_build" / "perfbench" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    clock = speed.SpeedClock()

    def set_up():
        imported = speed.run_child("import curveflow.cli", [], cwd=ROOT, env=env)[4]
        built, _raw, generated = clock.measure(
            lambda: workloads.build(args.workload, args.seed, workdir, ROOT, env))
        return built, imported + generated

    try:
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            workload, seconds = set_up()
            setups.append(seconds)
        problems = selftest.run()
        if args.trace:
            metrics, passes, extra = traced_run(workload, env, workdir, clock, cf, cli)
            metrics = with_units(metrics, declared["per_layer"])
        else:
            metrics, passes, extra = timed_run(args, workload, setups, clock)
            metrics = with_units(metrics, declared["end_to_end"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    failures = [f for p in passes for f in p.failures]
    record = {"machine": machine_record(args, np, scipy), **extra,
              "speed_factor": clock.factor(), "attempted_ops": attempted,
              "failed_ops": failed, "failures": failures[:20], "selftest_problems": problems}
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
