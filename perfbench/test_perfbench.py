"""Smoke tests of the benchmark on tiny inputs.

    python3 -m pytest perfbench/test_perfbench.py
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(cwd, workload, trace, seed=3):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@functools.cache
def _result(workload, trace, repeat=0):
    """(context, result) of a tiny run; ``repeat`` makes an independent second run."""
    done = _run(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    *_, context, result = done.stdout.splitlines()
    return json.loads(context)["context"], json.loads(result)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace, kind):
    context, result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCH[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert context["checks"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_counts(workload):
    exact = [m["name"] for m in BENCH["per_layer"]
             if m["unit"] == "count" or m["name"].endswith(("saved_mb", "_frac"))]
    first = _result(workload, 1)[1]["metrics"]
    second = _result(workload, 1, repeat=1)[1]["metrics"]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}


def test_traced_split_matches_the_workload():
    solve = _result("solve-n512", 1)[1]["metrics"]
    assert solve["approximation.solves"]["value"] > 0
    assert solve["verification.verify_ms"]["value"] == 0
    verify = _result("verify-cli", 1)[1]["metrics"]
    assert verify["approximation.solves"]["value"] == 0
    assert verify["verification.oracle_builds"]["value"] > 0
    grid = _result("grid-cli", 1)[1]["metrics"]
    assert grid["trace.saved_mb"]["value"] > 0


def test_without_library_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "spans", "__pycache__"))
    done = _run(tmp_path, "grid-cli", 0)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_gradient_check_rejects_a_wrong_answer():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        from workloads import CheckFailed, _check_gradient
    finally:
        del sys.path[:2]
    H, c, x0 = np.diag([1.0, 2.0]), np.array([1.0, -2.0]), np.zeros(2)
    _check_gradient(H, c, x0, np.array([-1.0, 1.0]), "exact")
    with pytest.raises(CheckFailed):
        _check_gradient(H, c, x0, np.array([-1.0, 1.0 + 1e-6]), "perturbed")
