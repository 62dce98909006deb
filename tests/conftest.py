"""Shared test set-up: the Hypothesis profile, a solve counter and a test model.

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

from odesens.models import MODELS, OdeModel

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


def _binding_rhs(t, y, p):
    bound = p[0] * y[0] * y[1]
    released = p[1] * y[2]
    return np.array([released - bound, -bound, bound - released])


def _binding_jac(t, y, p):
    zero = 0.0 * y[0]
    return np.array([
        [-(p[0] * y[1]), -(p[0] * y[0]), p[1], -(y[0] * y[1]), y[2]],
        [-(p[0] * y[1]), -(p[0] * y[0]), zero, -(y[0] * y[1]), zero],
        [p[0] * y[1], p[0] * y[0], -p[1], y[0] * y[1], -y[2]],
    ])


# Reversible binding A + B <-> C at rates k_on and k_off: m = 3 states and
# k = 2 rates, a layout none of the packaged models has.  Binding removes
# molecules, so the objective (sums of final states) moves with every
# input.  The complex starts at zero, the one input not required positive.
BINDING = OdeModel(
    _binding_rhs, _binding_jac,
    {"a0": 1.0, "b0": 2.0, "c0": 0.0}, {"k_on": 0.5, "k_off": 0.3},
    ("a0", "b0", "k_on", "k_off"),
)


@pytest.fixture
def binding(monkeypatch):
    """Registers :data:`BINDING` as the model ``binding`` for the duration of a test."""
    monkeypatch.setitem(MODELS, "binding", BINDING)
    return BINDING
