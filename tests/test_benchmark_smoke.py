"""Every workload of the benchmark declared in ``BENCHMARK.json`` runs
briefly and passes its own output checks.  A change that makes a workload
print wrong results fails here, not only when the benchmark is run.

The benchmark writes its inputs and outputs next to ``perfbench/run.py``,
so each run works on a copy of ``src/`` and ``perfbench/`` in a temporary
directory and leaves the checkout as it was."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    BENCHMARK = json.load(handle)
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_and_passes_its_checks(workload, tmp_path):
    ignore = shutil.ignore_patterns("__pycache__", "_runs")
    for tree in ("src", "perfbench"):
        shutil.copytree(os.path.join(ROOT, tree), tmp_path / tree, ignore=ignore)
    argv = BENCHMARK["command"][1:] + ["--workload", workload, "--seed", "777", "--seconds", "0.1"]
    done = subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
