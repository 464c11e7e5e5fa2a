"""Tests of the benchmark itself: python3 -m pytest perfbench/test_perfbench.py

They run small traced workloads (about a minute in all) and check that every
work counter repeats exactly, that the result line has the contracted shape
and that a directory without the program yields no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL_OPS = {"design_corpus": 3, "ensemble": 2, "cli": 1}


def _counters(name, tmp_path, monkeypatch):
    cls = WORKLOADS[name]
    monkeypatch.setattr(cls, "trace_ops", SMALL_OPS[name])
    rec, plain, traced, ref, fingerprints, traced_failed = run.traced_run(
        cls, 5, tmp_path, tracing)
    assert traced_failed == 0 and None not in fingerprints.values()
    metrics = tracing.per_layer_metrics(rec, sum(plain), sum(traced), ref)
    return {k: v for k, v in metrics.items()
            if tracing.PER_LAYER[k][0] in ("count", "bytes")}, fingerprints


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_repeat_exactly(name, tmp_path, monkeypatch):
    first, fp_first = _counters(name, tmp_path / "a", monkeypatch)
    second, fp_second = _counters(name, tmp_path / "b", monkeypatch)
    assert first == second
    assert fp_first == fp_second
    assert any(first.values())


def test_tail_has_ten_ops_beyond():
    latencies = [float(i) for i in range(40)]
    value, pct = run.tail(latencies)
    assert sum(x > value for x in latencies) == 10
    assert pct == pytest.approx(75.0)


def test_result_line_shape(capsys):
    assert run.main(["--workload", "ensemble", "--seed", "3", "--seconds", "0.1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_program_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "cli",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
