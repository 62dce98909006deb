"""Numerical differentiation of whole solver runs and cross-method tables.

Finite differences and the complex step treat the map
``(y0 || p) -> stacked trajectory at prescribed output points`` as a
black box; the prescribed grid is mandatory, because differencing runs
whose output times move with the perturbation produces garbage.  The
cross table compares the sensitivity matrices obtained from the
augmented system (analytic or dual-lifted Jacobians) and from the two
numerical schemes against each other, one relative error per method
pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .scalars import complex_step_column
from .sensitivity import forward_sensitivity_solve, jacobian_provider
from .solvers import EulerMethod, Points, SpanModeError, TimeSpec, run_solver

__all__ = [
    "fd_jacobian",
    "central_fd_jacobian",
    "cs_jacobian",
    "relative_error",
    "solve_columns",
    "trajectory_map",
    "sensitivity_matrix",
    "CrossTable",
    "cross_compare",
    "CROSS_METHODS",
]

_SQRT_EPS = math.sqrt(float(np.finfo(float).eps))

CROSS_METHODS = ("analytic", "ad", "fd", "cs")


def _relative_steps(x: np.ndarray, factor: float) -> np.ndarray:
    # coordinates spanning many orders of magnitude need a relative
    # perturbation or truncation error swamps the estimate
    return factor * np.where(x != 0.0, np.abs(x), 1.0)


def _shifted_columns(x: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """``(d, d)`` matrix whose column ``k`` is ``x`` with ``steps[k]`` added to entry ``k``."""
    columns = np.repeat(x[:, None], x.shape[0], axis=1)
    columns[np.diag_indices(x.shape[0])] += steps
    return columns


def fd_jacobian(g: Callable, x) -> np.ndarray:
    """One-sided forward-difference Jacobian of a vector function.

    Column ``k`` is ``(g(x + h_k e_k) - g(x)) / h_k`` with the relative
    increment ``h_k = sqrt(eps) * |x_k|`` (``sqrt(eps)`` for a zero
    coordinate).  Accuracy is at best about half the machine precision.

    ``g`` is called once, on the ``(d, d + 1)`` matrix whose columns are
    ``x`` and the ``d`` shifted points, so it must follow numpy's
    vectorised convention: ``(d,) -> (out,)`` and ``(d, B) -> (out, B)``,
    column by column.
    """
    x = np.asarray(x, dtype=float)
    steps = _relative_steps(x, _SQRT_EPS)
    values = np.asarray(g(np.column_stack([x, _shifted_columns(x, steps)])), dtype=float)
    return (values[:, 1:] - values[:, :1]) / steps


def central_fd_jacobian(g: Callable, x, factor: float = _SQRT_EPS) -> np.ndarray:
    """Central-difference Jacobian of a vector function.

    Column ``k`` is ``(g(x + h_k e_k) - g(x - h_k e_k)) / (2 h_k)`` with the
    relative increment ``h_k = factor * |x_k|`` (``factor`` for a zero
    coordinate).  ``g`` is called once, on the ``(d, 2d)`` matrix of the
    ``d`` points shifted up followed by the ``d`` shifted down, and follows
    the vectorised convention of :func:`fd_jacobian`.
    """
    x = np.asarray(x, dtype=float)
    steps = _relative_steps(x, factor)
    d = x.shape[0]
    values = np.asarray(
        g(np.hstack([_shifted_columns(x, steps), _shifted_columns(x, -steps)])), dtype=float)
    return (values[:, :d] - values[:, d:]) / (2.0 * steps)


def cs_jacobian(g: Callable, x) -> np.ndarray:
    """Complex-step Jacobian of a real-analytic vector function.

    Column ``k`` is ``Im(g(x + i*h*e_k)) / h`` with ``h = 1e-100``; no
    subtractive cancellation, so the tiny step gives near machine-precision
    columns whenever ``g`` is evaluable on complex inputs.  ``g`` is called
    once per column on a 1-D complex point, never on a matrix of columns:
    numpy's array complex multiply rounds differently from its scalar one,
    so complex lanes would not reproduce the one-point columns bitwise.
    """
    x = np.asarray(x, dtype=float)
    return np.column_stack([complex_step_column(g, x, k) for k in range(x.shape[0])])


def relative_error(a, b) -> float:
    """Normalised Frobenius discrepancy ``||A - B|| / max(||A||, ||B||)``.

    Zero when both inputs have zero norm; symmetric by construction.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    norm_a = float(np.linalg.norm(a))
    norm_b = float(np.linalg.norm(b))
    denom = max(norm_a, norm_b)
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b)) / denom


def _stacked(per_row: np.ndarray) -> np.ndarray:
    """Column-major flattening ``(n, m, ...) -> (m * n, ...)`` of a trajectory-shaped array.

    Row ``j * n + i`` holds state component ``j`` at output row ``i``.
    """
    n, m = per_row.shape[:2]
    return per_row.swapaxes(0, 1).reshape((m * n,) + per_row.shape[2:])


def solve_columns(model, time: TimeSpec, method, x) -> np.ndarray:
    """States of the solves started from each column of ``x = (y0 || p)``.

    A 1-D ``x`` gives one solve with states ``(n_times, m)``; a ``(d, B)``
    matrix gives ``(n_times, m, B)``, lane ``b`` being the solve of column
    ``b``.  Euler runs all columns as lanes of one solve, because its steps
    do not depend on the state.
    """
    m = model.state_dim

    def solve(point):
        p = point[m:]
        return run_solver(lambda t, y: model.rhs(t, y, p), time, point[:m], method).states

    if x.ndim == 1 or isinstance(method, EulerMethod):
        return solve(x)
    # RK23 picks each step from the error of the whole state, so lanes would share steps
    return np.stack([solve(column) for column in x.T], axis=-1)


def trajectory_map(model, time: TimeSpec, method) -> Callable:
    """The map ``(y0 || p) -> column-major flattened trajectory``.

    Requires a prescribed-points time specification so that every
    perturbed run reports its states on exactly the same grid.  The map
    follows the vectorised convention of :func:`fd_jacobian`: a ``(d, B)``
    matrix of inputs gives a ``(m * n_times, B)`` matrix, one column per
    input column, from :func:`solve_columns`.
    """
    if not isinstance(time, Points):
        raise SpanModeError(
            "differencing a solver run requires prescribed output points; "
            "a plain span lets the output grid move with the perturbation"
        )

    def g(x):
        return _stacked(solve_columns(model, time, method, x))

    return g


def sensitivity_matrix(scenario, method_name: str) -> np.ndarray:
    """Stacked ``[dY/dP | dY/dY0]`` matrix of a ``Scenario`` for one method.

    Rows follow the column-major trajectory flattening; columns are the
    parameters first, then the initial-state directions, for every method
    so the results are directly comparable.
    """
    model = scenario.ode_model()
    time = scenario.time_spec()
    method = scenario.method()
    x0 = np.concatenate([scenario.initial_state(), scenario.params_array()])
    m = model.state_dim

    if method_name in ("analytic", "ad"):
        provider = jacobian_provider(model, method_name)
        bundle = forward_sensitivity_solve(
            model.rhs, provider, scenario.params_array(), scenario.initial_state(),
            time, method,
        )
        return np.hstack([_stacked(bundle.dy_dp), _stacked(bundle.dy_dy0)])

    g = trajectory_map(model, time, method)
    if method_name == "fd":
        jac = fd_jacobian(g, x0)
    elif method_name == "cs":
        jac = cs_jacobian(g, x0)
    else:
        raise ValueError(f"unknown differentiation method {method_name!r}")
    # columns arrive as [y0 | p]; reorder to [p | y0]
    return np.hstack([jac[:, m:], jac[:, :m]])


@dataclass(frozen=True)
class CrossTable:
    """All-vs-all relative errors between differentiation methods."""

    methods: tuple
    errors: np.ndarray  # upper triangle holds the pairwise errors

    def pair(self, first: str, second: str) -> float:
        i = self.methods.index(first)
        j = self.methods.index(second)
        if i == j:
            return 0.0
        i, j = min(i, j), max(i, j)
        return float(self.errors[i, j])

    def entries(self):
        n = len(self.methods)
        for i in range(n):
            for j in range(i + 1, n):
                yield self.methods[i], self.methods[j], float(self.errors[i, j])


def cross_compare(scenario) -> CrossTable:
    """Compare the sensitivity matrices of a ``Scenario`` from each of :data:`CROSS_METHODS`."""
    methods = CROSS_METHODS
    matrices = {name: sensitivity_matrix(scenario, name) for name in methods}
    n = len(methods)
    errors = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            errors[i, j] = relative_error(matrices[methods[i]], matrices[methods[j]])
    return CrossTable(methods, errors)
