"""Smoke test of the benchmark harness: a tiny run of every workload.

    python3 -m pytest bench/test_smoke.py

Takes about a minute and a half on two cores, mostly the traced runs.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    *_, report, result = proc.stdout.splitlines()
    return json.loads(report)["report"], json.loads(result)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_prints_every_end_to_end_metric(workload):
    report, result = result_of(run(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["failures"]
    assert result["attempted"] >= 1
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["seed"] == 7 and report["generation_s"] >= 0
    assert {"python", "nproc", "git_commit", "loadavg_start", "loadavg_end",
            "noisy"} <= set(report)
    if workload == "desk":
        probes = report["details"]["known_defects"]["probes"]
        assert len(probes) == 4
        assert all(p["status"] in ("present", "fixed") for p in probes)


def test_traced_runs_reach_every_layer_metric():
    reached = set()
    for workload in WORKLOADS:
        report, result = result_of(run(workload, 1))
        assert result["correct"] is True, report["failures"]
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        reached |= {name for name, m in result["metrics"].items() if m["value"]}
        if workload == "certify":
            untouched = [name for name in units
                         if name.startswith(("linalg.", "exprio.write_document."))]
            assert not any(result["metrics"][name]["value"] for name in untouched)
    assert reached == {m["name"] for m in SPEC["per_layer"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("certify", 0, root=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
