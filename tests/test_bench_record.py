"""Tests for scripts/bench_record.py's acceptance summary."""

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

