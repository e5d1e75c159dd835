"""Round 0 of every benchmark workload, at seed 0 and its full size,
reproduces the output digest recorded in bench/digests.json.

The benchmark's own code is read from bench/ and nothing there is
written: the generated inputs go to a temporary directory.  A change to
any output the workloads digest (a cut line, an LP text, a bound or
certify report) fails here before it fails a benchmark run.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_round_0_matches_the_recorded_digest(name, tmp_path):
    runner = run.Runner(workloads.SETUPS[name](0, tmp_path), workloads.digest)
    runner.round(0)
    assert run.reference_check(runner, name, 0) == "reference digest matched"
    assert runner.errors == []
