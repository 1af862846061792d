"""One untimed pass of every benchmark workload, in-process, through its own
correctness gate: a library change that breaks a call the benchmark makes
fails here first."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_pass_passes_its_gate(name):
    workload = WORKLOADS[name]
    ctx = workload.setup()
    work, _ = workload.inputs(ctx, 1)
    outcomes = workload.run_pass(ctx, work, None)
    units, failures = workload.check(ctx, work, outcomes)
    assert units > 0
    assert failures == []
