"""The benchmark's own tests: exact repeats, self-time accounting, and the
refusal to run without the package.

    python3 -m pytest perfbench/test_bench.py -q

They take about two minutes: every workload runs one untraced and one
traced short run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

assert run.import_package() is not None, "smjp must be importable from src/"

from workloads import WORKLOADS  # noqa: E402

SEED = 3


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_and_quality_repeat_exactly(name):
    plain = run.measure(name, SEED, seconds=0, trace=False, min_reps=1)
    traced = run.measure(name, SEED, seconds=0, trace=True, min_reps=2)
    assert plain["correct"] and traced["correct"]
    first = plain["result"]["reps"][0]
    for rep in traced["result"]["reps"]:
        assert rep["counts"] == first["counts"]
        assert rep["out"]["nll_per_event"] == first["out"]["nll_per_event"]
    assert traced["result"]["setup_counts"] == plain["result"]["setup_counts"]
    # Layer self times account for the whole root span of a traced rep.
    assert traced["self_time_error_s"] < 1e-9
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}


def test_refuses_to_run_without_the_package():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "toy-cli", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
