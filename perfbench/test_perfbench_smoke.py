"""Smoke tests of the benchmark: every workload at ``--size smoke``.

Each run must end with the result object, print exactly the metrics
``BENCHMARK.json`` declares (with the declared units), pass every
correctness check it ran, and fail no operation.  Run with::

    python3 -m pytest perfbench/test_perfbench_smoke.py -q
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


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def test_declared_metrics_match_the_harness(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import harness

    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    assert declared == harness.END_TO_END
    declared = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert declared == harness.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == ["certify", "soundness", "churn"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload: str, trace: int):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    # the correctness checks ran and all passed
    summary = next(line for line in lines if line.startswith("checks: "))
    passed, total = summary.split()[1].split("/")
    assert int(total) >= 3 and passed == total
    if trace:
        assert any(line.startswith("tracing overhead:") for line in lines)
        assert any(line.startswith("untraced ") for line in lines)


def test_fails_without_program_sources(tmp_path: Path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("certify", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
