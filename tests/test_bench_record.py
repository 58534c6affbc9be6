"""Tests for scripts/bench_record.py's acceptance and pair summaries."""

import importlib.util
import sys
from pathlib import Path

import pytest


@pytest.fixture
def bench_record(monkeypatch):
    """The script as a module, imported by path without writing bytecode
    next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "scripts" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_acceptance_rows_keep_median_and_minimum(bench_record):
    runs = [
        {"criterion 2 circle": (True, 0.03, 10.0), "criterion 6 bonnesen": (True, 0.8, 30.0)},
        {"criterion 2 circle": (True, 0.05, 10.0), "criterion 6 bonnesen": (False, 0.6, 30.0)},
    ]
    circle, bonnesen = bench_record.acceptance_rows(runs)
    assert circle == {"criterion": "criterion 2 circle", "passed": True,
                      "runtime_s": pytest.approx(0.04), "min_runtime_s": 0.03,
                      "runtimes_s": [0.03, 0.05], "budget_s": 10.0,
                      "budget_share": pytest.approx(0.004)}
    assert bonnesen["passed"] is False  # one failed run fails the row
    assert bonnesen["runtime_s"] == pytest.approx(0.7)
    assert bonnesen["min_runtime_s"] == 0.6
    assert bonnesen["budget_share"] == pytest.approx(0.7 / 30.0)



def _run(workload, seed, **values):
    return {"workload": workload, "seed": seed,
            "result": {"metrics": {name: {"value": v, "unit": "s"} for name, v in values.items()}}}


def test_pair_summary_counts_seed_matched_wins(bench_record):
    parent = [_run("ode_route", s, wall_s=w, score=1.0)
              for s, w in zip((1, 2, 3, 4, 5), (0.50, 0.60, 0.55, 0.40, 0.52))]
    parent.append(_run("cli", 1, wall_s=2.0, score=1.0))
    change = [_run("ode_route", s, wall_s=w, score=v)
              for s, w, v in zip((1, 2, 3, 4, 5), (0.45, 0.60, 0.50, 0.45, 0.42),
                                 (2.0, 0.5, 1.0, 3.0, 1.0))]
    change.append(_run("cli", 1, wall_s=1.5, score=1.0))
    pairs = bench_record.pair_summary(parent, change, {"wall_s": "lower", "score": "higher"})
    assert list(pairs) == ["ode_route", "cli"]
    wall = pairs["ode_route"]["wall_s"]
    # seed 2 ties and counts for neither side; seed 4 is a loss
    assert wall["wins"] == 3 and wall["pairs"] == 5 and wall["better"] == "lower"
    assert wall["parent"] == pytest.approx({"q1": 0.50, "median": 0.52, "q3": 0.55})
    assert wall["change"] == pytest.approx({"q1": 0.45, "median": 0.45, "q3": 0.50})
    # higher is better: 2.0 and 3.0 win, 0.5 loses, the two 1.0s tie
    assert pairs["ode_route"]["score"]["wins"] == 2
    # one seed: every quartile is the value itself
    assert pairs["cli"]["wall_s"] == {
        "better": "lower", "parent": {"q1": 2.0, "median": 2.0, "q3": 2.0},
        "change": {"q1": 1.5, "median": 1.5, "q3": 1.5}, "pairs": 1, "wins": 1}
