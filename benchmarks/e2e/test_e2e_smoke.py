"""Smoke test of the end-to-end benchmark.

Runs every workload in quick mode, untraced and traced, and checks what
every run must deliver: every declared metric is emitted with its unit,
no op fails and the traced ledger balances.  Also checks ``compare`` and that the
benchmark refuses to run without the program's source.  Not part of the
tier-1 suite (``testpaths`` is ``tests``); run it with::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARATION["workloads"]]


def _benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=600,
    )


def _quick_run(workload: str, trace: int, out: Path):
    done = _benchmark(
        "run", "--workload", workload, "--seed", "0", "--quick",
        "--trace", str(trace), "--out", str(out),
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_emits_every_declared_metric(workload, trace, tmp_path):
    out = tmp_path / "result.json"
    result = _quick_run(workload, trace, out)
    declared = DECLARATION["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    saved = json.loads(out.read_text(encoding="utf-8"))
    assert saved["workloads"][workload]["failed_ratio"] == 0
    if trace:
        assert result["metrics"]["ledger_error"]["value"] <= 0.05
        trace_file = Path(f"{out}.{workload}.trace.json")
        spans = json.loads(trace_file.read_text(encoding="utf-8"))
        assert spans["span_count"] >= len(spans["spans"]) >= 1
    else:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_compare_verdicts(tmp_path):
    base = tmp_path / "a.json"
    _quick_run("churn-campus", 0, base)
    data = json.loads(base.read_text(encoding="utf-8"))

    same = _benchmark("compare", str(base), str(base))
    assert same.returncode == 0, same.stdout
    assert "regressed" not in same.stdout

    shutil.copy(base, tmp_path / "a2.json")
    sets = _benchmark("compare", str(tmp_path / "a*.json"), str(base))
    assert sets.returncode == 0, sets.stdout
    assert "A: 2 run(s), B: 1 run(s)" in sets.stdout

    # a steady run, and the same run with a doubled median latency
    data["workloads"]["churn-campus"]["spread"]["latency_p50_ms"] = 0.0
    steady = tmp_path / "steady.json"
    steady.write_text(json.dumps(data), encoding="utf-8")
    data["workloads"]["churn-campus"]["metrics"]["latency_p50_ms"]["value"] *= 2
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(data), encoding="utf-8")
    regressed = _benchmark("compare", str(steady), str(worse))
    assert regressed.returncode == 1
    assert "regressed" in regressed.stdout

    other = tmp_path / "other.json"
    moved = json.loads(json.dumps(data))
    moved["fingerprint"]["machine"]["nproc"] += 1
    other.write_text(json.dumps(moved), encoding="utf-8")
    refused = _benchmark("compare", str(base), str(other))
    assert refused.returncode == 2
    assert "refusing" in refused.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "benchmarks" / "e2e",
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    command = DECLARATION["command"]
    done = subprocess.run(
        [sys.executable, *command[1:], "--workload", WORKLOADS[0], "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
