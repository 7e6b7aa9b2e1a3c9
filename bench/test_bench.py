"""Self-test of the benchmark at tiny sizes (one quick round per workload).

    python3 -m pytest -q bench/test_bench.py

Checks that every metric named in BENCHMARK.json is reported, that the
iid workload never reaches the bivariate normal CDF, that the traced and
plain runs agree byte for byte, that the tracer skips names that no
longer exist, and that the benchmark refuses to run without sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, proc.stderr
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = _result(workload, 0)["metrics"]
    assert [m["name"] for m in SPEC["end_to_end"]] == list(metrics)
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert metrics[spec["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_metrics(workload):
    metrics = _result(workload, 1)["metrics"]
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics)
    bvn_calls = metrics["normals.log_bvn_cdf.calls"]["value"]
    if workload.startswith("iid"):
        assert bvn_calls == 0
    else:
        assert bvn_calls > 0 and metrics["esnsm.marginal_effect.calls"]["value"] > 0


def test_spec_matches_tracer():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing

    assert [dict(name=n, unit=u, better=b) for n, u, b in tracing.LAYER_METRICS] == SPEC["per_layer"]


def test_missing_names_are_reported_absent(monkeypatch):
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing

    wraps = tracing.WRAPS + [("esnsmc.smc", "TargetModel.no_such_method", "smc.gone", None)]
    monkeypatch.setattr(tracing, "WRAPS", wraps)
    tracer = tracing.Tracer()
    tracer.install(0)
    try:
        from esnsmc import smc

        assert smc.run.__wrapped__ is not None
    finally:
        tracer.uninstall()
    assert tracer.absent == ["smc.gone"]
    assert not hasattr(smc.run, "__wrapped__")
    metrics = tracing.round_metrics([], tracer.installed_names - {"smc.run"})
    assert "smc.stages" not in metrics and "smc.run.busy_s" not in metrics
    assert metrics["normals.log_bvn_cdf.calls"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("iid", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
