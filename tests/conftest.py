"""Shared test set-up: the Hypothesis profile and a solve counter.

One Hypothesis profile: examples come from a fixed derivation rather than
a random seed, no example is timed against a deadline (the machine may be
shared and slow), and no example database is kept.  Hypothesis still
caches the constants it scans from the source, at collection time; that
cache goes to a temporary directory removed after the run, so a run
leaves no ``.hypothesis/`` directory behind.
"""

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile(
    "odesens", max_examples=60, deadline=None, derandomize=True, database=None)
settings.load_profile("odesens")

_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="odesens-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)


def pytest_unconfigure(config):
    shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)


@pytest.fixture
def solve_shapes(monkeypatch):
    """Records the initial-state shape of every ``run_solver`` call in the package."""
    from odesens import diffmethods, models, sensitivity, solvers

    shapes = []
    original = solvers.run_solver

    def counted(rhs, time, y0, method):
        shapes.append(np.shape(y0))
        return original(rhs, time, y0, method)

    for module in (diffmethods, models, sensitivity, solvers):
        if getattr(module, "run_solver", None) is original:
            monkeypatch.setattr(module, "run_solver", counted)
    return shapes
