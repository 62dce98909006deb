"""The library's settings surface, pinned.

The counterpart of the CLI's option-surface test: every parameter of the
entry points that once took tuning options, and every field of the solver
settings types, is recorded here, so an option cannot come back unnoticed.
"""

import dataclasses
import importlib
import inspect

import pytest

from odesens.diffmethods import cross_compare, cs_jacobian, fd_jacobian
from odesens.scalars import complex_step_column
from odesens.sensitivity import forward_sensitivity_solve
from odesens.solvers import EulerMethod, RK23Method, euler_solve, rk23_solve, run_solver

_NONE = inspect.Parameter.empty

_PARAMETERS = {
    rk23_solve: [("rhs", _NONE), ("time", _NONE), ("y0", _NONE), ("method", RK23Method())],
    euler_solve: [("rhs", _NONE), ("time", _NONE), ("y0", _NONE), ("dt", _NONE)],
    run_solver: [("rhs", _NONE), ("time", _NONE), ("y0", _NONE), ("method", _NONE)],
    fd_jacobian: [("g", _NONE), ("x", _NONE)],
    cs_jacobian: [("g", _NONE), ("x", _NONE)],
    complex_step_column: [("f", _NONE), ("x", _NONE), ("k", _NONE)],
    cross_compare: [("scenario", _NONE)],
    forward_sensitivity_solve: [
        ("f", _NONE), ("jac", _NONE), ("p", _NONE), ("y0", _NONE), ("time", _NONE),
        ("method", _NONE)],
}

_FIELDS = {
    RK23Method: [("rel_tol", 1e-3), ("abs_tol", 1e-6)],
    EulerMethod: [("dt", dataclasses.MISSING)],
}


@pytest.mark.parametrize("fn", list(_PARAMETERS), ids=lambda fn: fn.__name__)
def test_parameters_are_pinned(fn):
    params = inspect.signature(fn).parameters.values()
    assert [(p.name, p.default) for p in params] == _PARAMETERS[fn]


@pytest.mark.parametrize("kind", list(_FIELDS), ids=lambda kind: kind.__name__)
def test_solver_settings_fields_are_pinned(kind):
    assert [(f.name, f.default) for f in dataclasses.fields(kind)] == _FIELDS[kind]


@pytest.mark.parametrize("name", ["cli", "diffmethods", "models", "scalars", "sensitivity", "solvers"])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"odesens.{name}")
    assert [key for key in module.__all__ if not hasattr(module, key)] == []
