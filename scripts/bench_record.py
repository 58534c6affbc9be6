#!/usr/bin/env python3
"""Record a parent and a changed checkout side by side in two BENCH_<label>.json files.

Run from the repository root:

    python3 scripts/bench_record.py --parent ../parent --parent-label x_parent \
        --label x --seeds 1 2 3

For each workload and seed, ``perfbench/run.py --trace 0`` runs as a
subprocess in each checkout (``--parent``, and ``--root``, default this one),
and each file keeps the run's last two JSON lines: the record (machine,
versions, git sha) and the result. Then ``pytest tests/test_acceptance.py -s``
runs five times in each checkout, and each criterion keeps the median and the
minimum of its printed runtimes against the budget printed beside it.
The changed side's file also gets a ``pairs`` block: for each workload and
each end-to-end metric of ``BENCHMARK.json``, both sides' median and
quartiles over the seeds, and the change's wins out of the seed-matched
pairs of runs. The two sides alternate run by run, and the side that goes
first alternates from one pair of runs to the next, so a change in the
machine's load reaches both files alike. Compare the two files of one
invocation only. Both files are written to this repository's root. A run
that exits non-zero, or an acceptance run that prints no criterion line,
stops the script with the tail of its output and writes no file.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("flow_route", "ode_route", "geometry", "cli")
ACCEPTANCE_RUNS = 5
# A criterion's line ends with its runtime and the budget its assert uses.
_VERDICT = re.compile(
    r"\[(PASS|FAIL)\] (criterion \d [^:]*): .*runtime=([0-9.]+)s budget=([0-9.]+)s")


def _tail(text: str) -> str:
    return "\n".join(text.strip().splitlines()[-20:])


def bench_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{_tail(proc.stderr)}")
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return {"workload": workload, "seed": seed, **record, "result": result}


def acceptance(root: Path) -> dict[str, tuple[bool, float, float]]:
    """One acceptance run: each criterion's (passed, runtime, budget)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         "tests/test_acceptance.py"], cwd=root, env=env, capture_output=True, text=True)
    rows = {name: (verdict == "PASS", float(runtime), float(budget))
            for verdict, name, runtime, budget in _VERDICT.findall(proc.stdout)}
    if not rows:  # a collection error prints no criterion line
        raise RuntimeError(f"the acceptance run (exit {proc.returncode}) printed no "
                           f"criterion line:\n{_tail(proc.stdout + proc.stderr)}")
    return rows


def acceptance_rows(runs: list[dict]) -> list[dict]:
    """Each criterion's median and minimum runtime over ``runs``; passed only if
    every run passed."""
    rows = []
    for name, (_, _, budget) in runs[0].items():
        runtimes = [run[name][1] for run in runs]
        runtime = statistics.median(runtimes)
        rows.append({"criterion": name, "passed": all(run[name][0] for run in runs),
                     "runtime_s": runtime, "min_runtime_s": min(runtimes),
                     "runtimes_s": runtimes, "budget_s": budget,
                     "budget_share": runtime / budget})
    return rows


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"q1": q1, "median": median, "q3": q3}


def pair_summary(parent_runs: list[dict], runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload and metric, each side's quartiles over the seeds and the
    change's wins out of the seed-matched pairs; a tie counts for neither side.

    ``better`` maps each end-to-end metric to "lower" or "higher". Both run
    lists hold the same workloads and seeds in the same order.
    """
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        sides = [[run for run in side if run["workload"] == workload]
                 for side in (parent_runs, runs)]
        rows = {}
        for name, direction in better.items():
            before, after = ([r["result"]["metrics"][name]["value"] for r in side]
                             for side in sides)
            sign = 1.0 if direction == "lower" else -1.0
            rows[name] = {"better": direction, "parent": quartiles(before),
                          "change": quartiles(after), "pairs": len(after),
                          "wins": sum(sign * (b - a) < 0.0 for a, b in zip(before, after))}
        summary[workload] = rows
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--parent-label", required=True)
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    sides = [(args.parent_label, args.parent.resolve()), (args.label, args.root.resolve())]
    runs = {label: [] for label, _ in sides}
    accepted = {label: [] for label, _ in sides}
    pairs = [(workload, seed) for workload in WORKLOADS for seed in args.seeds]
    pairs += [("acceptance", i) for i in range(ACCEPTANCE_RUNS)]
    for i, (workload, seed) in enumerate(pairs):
        for label, root in (sides if i % 2 == 0 else sides[::-1]):
            if workload == "acceptance":
                accepted[label].append(acceptance(root))
                print(label, "acceptance", seed, flush=True)
            else:
                runs[label].append(bench_run(root, workload, seed, args.seconds))
                print(label, workload, seed, json.dumps(runs[label][-1]["result"]["metrics"]),
                      flush=True)
    spec = json.loads((args.root / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"]}
    pairs = pair_summary(runs[args.parent_label], runs[args.label], better)
    for label, _ in sides:
        bench = {"label": label, "seeds": args.seeds, "seconds": args.seconds,
                 "runs": runs[label], "acceptance": acceptance_rows(accepted[label])}
        if label == args.label:
            bench.update(parent_label=args.parent_label, pairs=pairs)
        path = Path(__file__).resolve().parents[1] / f"BENCH_{label}.json"
        path.write_text(json.dumps(bench, indent=1) + "\n", encoding="ascii")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
