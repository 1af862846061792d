"""One untimed pass of every benchmark workload, in-process, through its own
correctness gate, and the tracer's install and uninstall: a library change
that breaks a call the benchmark makes, or moves a name the tracer wraps,
fails here first."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from clock import Clock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from burau.garside import _NFState  # noqa: E402
from burau.matrices import BurauMatrix  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_pass_passes_its_gate(name):
    workload = WORKLOADS[name]
    ctx = workload.setup()
    work, _ = workload.inputs(ctx, 1)
    outcomes = workload.run_pass(ctx, work, None)
    units, failures = workload.check(ctx, work, outcomes)
    assert units > 0
    assert failures == []


def test_tracer_installs_and_uninstalls_every_probe():
    # the tracer finds the functions and methods it wraps by name, so one
    # that moved or was renamed raises here
    tracer = Tracer(Clock())
    tracer.install()
    try:
        assert BurauMatrix.mat_mul.__wrapped__
        assert _NFState.push_simple.__wrapped__
    finally:
        tracer.uninstall()
    assert not hasattr(BurauMatrix.mat_mul, "__wrapped__")
    assert not hasattr(_NFState.push_simple, "__wrapped__")
