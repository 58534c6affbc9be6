#!/usr/bin/env python3
"""Record the benchmark runs and the acceptance budgets in BENCH_<label>.json.

Run from the repository root:

    python3 scripts/bench_record.py --label baseline --root ../parent --seeds 1 2 3

For each workload and seed, ``perfbench/run.py --trace 0`` runs as a
subprocess in the checkout ``--root`` (default: this one), and the file keeps
its last two JSON lines: the record (machine, versions, git sha) and the
result. Then ``pytest tests/test_acceptance.py -s`` runs there, and each
criterion's printed runtime is stored against the budget printed beside it.
Compare two files from the same machine only. The file is written to this
repository's root. A run that exits non-zero, or an acceptance run that
prints no criterion line, stops the script with the tail of its output and
writes no file.
"""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("flow_route", "ode_route", "geometry", "cli")
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


def acceptance(root: Path) -> list[dict]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "no:cacheprovider",
         "tests/test_acceptance.py"], cwd=root, env=env, capture_output=True, text=True)
    rows = []
    for verdict, name, runtime, budget in _VERDICT.findall(proc.stdout):
        rows.append({"criterion": name, "passed": verdict == "PASS", "runtime_s": float(runtime),
                     "budget_s": float(budget), "budget_share": float(runtime) / float(budget)})
    if not rows:  # a collection error prints no criterion line
        raise RuntimeError(f"the acceptance run (exit {proc.returncode}) printed no "
                           f"criterion line:\n{_tail(proc.stdout + proc.stderr)}")
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--seconds", type=float, default=20.0)
    args = parser.parse_args()
    root = args.root.resolve()
    runs = []
    for workload in WORKLOADS:
        for seed in args.seeds:
            runs.append(bench_run(root, workload, seed, args.seconds))
            print(workload, seed, json.dumps(runs[-1]["result"]["metrics"]), flush=True)
    bench = {"label": args.label, "seeds": args.seeds, "seconds": args.seconds,
             "runs": runs, "acceptance": acceptance(root)}
    path = Path(__file__).resolve().parents[1] / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n", encoding="ascii")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
