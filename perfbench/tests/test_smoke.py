"""Tiny-N smoke runs of every workload through the benchmark command,
including its correctness gate.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import spans  # noqa: E402

TINY = {
    "fleet": ["--ues", "40"],
    "serve_tcp": ["--ues", "12", "--epochs", "12", "--tick", "0.05"],
}


def _run(workload, trace, cwd=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), *TINY[workload]],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_untraced_run_passes_its_gate(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(bench.E2E_UNITS)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == bench.E2E_UNITS[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_run_prints_every_layer_metric(workload):
    proc = _run(workload, 1, seed=4)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _unit in spans.LAYER_METRICS]
    assert 0.0 < metrics["trace.span_coverage"]["value"] <= 1.0
    assert metrics["core.flc_samples"]["value"] > 0


def test_fleet_gate_rejects_another_seeds_metrics():
    runner = bench.Runner(bench.build_parser().parse_args(
        ["--workload", "fleet", "--seed", "5", "--seconds", "1",
         *TINY["fleet"]]))
    try:
        rep = runner.child("fleet_fading_ckpt", part="fleet_fading_ckpt")
        runner.args.seed = 6
        check = runner.child("fleet_check", part="fleet_fading_ckpt",
                             extra=["--check", rep["out"] + ".pkl"])
    finally:
        runner.close()
    assert check["mismatches"][0], "a different seed must not pass the gate"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("fleet", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
