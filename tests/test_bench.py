"""The benchmark's self-test passes against this checkout, and short runs of its workloads, traced or not, are correct.

bench/selftest.py runs ops and the tracer on the package in src/, so a
change there that breaks a traced function or a benchmark op fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def bench_run(workload, trace):
    """The last line of a one-second ``bench/run.py`` run, seed 1, traced or not."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["cli", "words"])
def test_a_short_benchmark_run_is_correct(workload):
    # one second of passes: an op that fails or answers wrong shows in the last line
    result = bench_run(workload, 0)
    assert (result["correct"], result["failed"]) == (True, 0), result


@pytest.mark.parametrize("workload", ["cli", "words"])
def test_a_short_traced_run_is_correct(workload):
    # the tracer wraps SymbolicPrefix.shifted and reads what a shift holds: a prefix it cannot read, or a
    # shift that goes round the wrapped method, shows here
    result = bench_run(workload, 1)
    assert (result["correct"], result["failed"]) == (True, 0), result
    if workload == "cli":
        metrics = result["metrics"]
        assert metrics["substitution.shift.calls"]["value"] > 0, metrics
        assert metrics["substitution.shift.bytes_copied"]["value"] == 0, metrics
