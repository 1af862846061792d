"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

import burau


@pytest.fixture
def child_env():
    """The environment for a child Python: the source tree this suite
    imports burau from goes in front of PYTHONPATH, so the child imports
    the same package."""
    src = str(Path(burau.__file__).resolve().parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
