"""Reduced-size runs of every workload, and the form of BENCHMARK.json."""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run
import workloads

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)


def _run(cwd, workload, trace, extra=("--smoke",)):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "2", "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert [m["name"] for m in group] == list(result["metrics"])
    for m in group:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(str(tmp_path), "cantor5", 0, extra=())
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_form():
    assert sorted(SPEC) == ["command", "end_to_end", "paths", "per_layer",
                            "run_seconds", "workloads"]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for group in ("end_to_end", "per_layer")
             for m in SPEC[group]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0, 4.0, 5.0]) == (4.0, "p75")
    assert run.tail(list(range(199)))[1] == "p75"
    for n in (200, 2000):
        values = list(range(n))
        value, label = run.tail(values)
        assert label == "p95"
        assert sum(v > value for v in values) >= 10
