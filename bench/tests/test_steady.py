"""The steadiness verdict, and the benchmark's output contract."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import steady
from tracer import per_layer

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def spec(name, better="lower", bound=0.1):
    return {"name": name, "unit": "ms", "better": better, "bound": bound}


def test_spread_is_interquartile_range_over_median():
    assert steady.spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)
    assert steady.spread([10.0] * 10) == 0.0


def test_judge_spread_against_bound():
    steady_vals = [100.0 + 0.5 * i for i in range(10)]
    noisy = [100.0, 140.0, 80.0, 120.0, 60.0, 150.0, 90.0, 130.0, 70.0, 110.0]
    verdict = steady.judge({"a": steady_vals, "b": noisy, "setup_s": noisy},
                           [spec("a"), spec("b"), spec("setup_s", bound=0.25)])
    assert verdict["a"]["ok"] and verdict["a"]["within_third"]
    assert not verdict["b"]["ok"]
    assert verdict["setup_s"]["ok"]           # measured across processes: exempt


@pytest.mark.parametrize("better, median, ok", [
    ("lower", 109.0, True), ("lower", 111.0, False),
    ("higher", 91.0, True), ("higher", 89.0, False)])
def test_judge_against_earlier_medians(better, median, ok):
    verdict = steady.judge({"m": [median] * 5}, [spec("m", better)], {"m": 100.0})
    assert verdict["m"]["ok"] is ok


def test_benchmark_json_matches_what_the_runs_emit():
    assert SPEC["per_layer"] == per_layer()
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload, ops", [("build-eval", 45), ("converge-sweep", 4)])
def test_timed_run_prints_every_end_to_end_metric(workload, ops):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == ops and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())
    # also when a short run leaves fewer than ten samples beyond every op
    assert metrics["op_tail_ms"]["value"] >= metrics["op_p50_ms"]["value"]


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "build-eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
