"""Tests of the benchmark itself. Run from the repo root:

    python -m pytest perfbench

They trace every workload once, which takes a few minutes on two cores.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads as wk  # noqa: E402

COUNTS_SEED = 1


def test_tail_percentile_leaves_ten_samples_beyond():
    assert wk.tail_percentile([float(i) for i in range(19)]) is None
    assert wk.tail_percentile([float(i) for i in range(20)]) == (50, 9.0)
    p, value = wk.tail_percentile([float(i) for i in range(1000)])
    assert p == 99 and sum(x > value for x in range(1000)) == 10


@pytest.mark.parametrize("workload", list(wk.WORKLOADS))
def test_counts_repeat_for_fixed_seed(workload):
    """The exact counts of a traced run equal those recorded in counts.json."""
    expected = json.loads((HERE / "counts.json").read_text())[workload]
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(COUNTS_SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert {name: result["metrics"][name]["value"] for name in tracing.EXACT_COUNTS} == expected


def _reimport_then(monkeypatch, change):
    """Make every set-up apply ``change`` to the freshly imported package."""
    reimport = wk.CliRunner.reimport

    def reimport_and_change(self):
        reimport(self)
        change(sys.modules)

    monkeypatch.setattr(wk.CliRunner, "reimport", reimport_and_change)


def test_removed_public_function_is_reported_missing(tmp_path, monkeypatch):
    _reimport_then(monkeypatch, lambda mods: monkeypatch.delattr(
        mods["seasoninfo.models"], "info_metric"))
    res = tracing.run_traced(wk.WORKLOADS["short_seasons"], COUNTS_SEED, tmp_path)
    assert {"models.score_s", "harness.cells", "trace.overhead_s"} <= set(res["missing"])
    assert "info_metric is gone" in res["missing"]["models.score_s"]
    assert res["metrics"]["analysis.breakpoint_calls"] == 2
    assert not res["problems"] and not res["runner"].failures


def test_changed_signature_is_reported_missing(tmp_path, monkeypatch):
    def fit_mov(train, teams, ridge=1.0):
        raise AssertionError("the trace must not call a function it cannot call correctly")

    _reimport_then(monkeypatch, lambda mods: monkeypatch.setattr(
        mods["seasoninfo.models"], "fit_mov", fit_mov))
    res = tracing.run_traced(wk.WORKLOADS["short_seasons"], COUNTS_SEED, tmp_path)
    assert "fit_mov" in res["missing"]["models.mov_fit_s"]
    assert "ingest.games" in res["missing"]
    assert not res["problems"]


def test_exception_inside_a_layer_is_a_failed_check(tmp_path, monkeypatch):
    def fit_mov(train, teams, penalty=1.0):
        raise ZeroDivisionError("a crash inside the program")

    _reimport_then(monkeypatch, lambda mods: monkeypatch.setattr(
        mods["seasoninfo.models"], "fit_mov", fit_mov))
    res = tracing.run_traced(wk.WORKLOADS["short_seasons"], COUNTS_SEED, tmp_path)
    assert any("ZeroDivisionError" in p for p in res["problems"])
    assert "models.mov_fit_s" not in res["metrics"]
