"""Smoke test of the benchmark harness: every workload at a tiny size.

    python3 -m pytest bench/test_smoke.py -q
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run_bench  # noqa: E402
import tracer  # noqa: E402

run_bench.import_package()

# The exact per-layer count that measures each workload's unit of work.
WORK_COUNT = {"formation_sweep": "sim.cells", "sim4d_long": "sim.steps",
              "analysis_1d": "oned.agent_steps",
              "analysis_rigidity": "rigidity.samples"}


def _run(workload, trace):
    return run_bench.run(run_bench.parse_args(
        ["--workload", workload, "--size", "smoke", "--seconds", "0",
         "--trace", str(trace)]))


@pytest.mark.parametrize("workload", run_bench.WORKLOAD_NAMES)
def test_untraced_run_is_correct_and_complete(workload):
    out = _run(workload, 0)
    result = out["result"]
    assert result["correct"], out["report"]["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run_bench.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert out["report"]["digests_equal"]


@pytest.mark.parametrize("workload", run_bench.WORKLOAD_NAMES)
def test_traced_run_matches_untraced_and_restores_package(workload):
    from rigidflock import sim

    out = _run(workload, 1)
    assert out["result"]["correct"], out["report"]["failures"]
    assert set(out["result"]["metrics"]) == set(tracer.LAYER_METRICS)
    # plain and traced jobs alternate; one digest means identical results
    assert out["report"]["traced_jobs"][:2] == [False, True]
    assert out["report"]["digests_equal"]
    assert out["report"]["absent_hooks"] == []
    # the program's own count of the work agrees with the job's size
    count = out["result"]["metrics"][WORK_COUNT[workload]]["value"]
    assert count == out["report"]["work_per_job"]
    assert not hasattr(sim.run, "__wrapped__")
    assert not hasattr(sim.wrap_angle, "__wrapped__")


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "sim4d_long",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
