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
from typing import Callable, Sequence

import numpy as np

from .scalars import DEFAULT_CS_STEP, complex_step_column
from .sensitivity import forward_sensitivity_solve, jacobian_provider
from .solvers import Points, SpanModeError, TimeSpec, run_solver

__all__ = [
    "fd_jacobian",
    "central_fd_jacobian",
    "cs_jacobian",
    "relative_error",
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


def fd_jacobian(g: Callable, x, steps=None) -> np.ndarray:
    """One-sided forward-difference Jacobian of a vector function.

    Column ``k`` is ``(g(x + h_k e_k) - g(x)) / h_k`` with the default
    increment ``h_k = sqrt(eps) * |x_k|`` (``sqrt(eps)`` for a zero
    coordinate).  Accuracy is at best about half the machine precision.
    ``steps`` overrides the per-coordinate increments.
    """
    x = np.asarray(x, dtype=float)
    if steps is None:
        steps = _relative_steps(x, _SQRT_EPS)
    else:
        steps = np.asarray(steps, dtype=float)
        if steps.shape != x.shape:
            raise ValueError("steps must provide one increment per coordinate")
    base = np.asarray(g(x), dtype=float)
    jac = np.empty((base.shape[0], x.shape[0]))
    for k in range(x.shape[0]):
        shifted = x.copy()
        shifted[k] += steps[k]
        jac[:, k] = (np.asarray(g(shifted), dtype=float) - base) / steps[k]
    return jac


def central_fd_jacobian(g: Callable, x, factor: float = _SQRT_EPS) -> np.ndarray:
    """Central-difference Jacobian of a vector function.

    Column ``k`` is ``(g(x + h_k e_k) - g(x - h_k e_k)) / (2 h_k)`` with the
    relative increment ``h_k = factor * |x_k|`` (``factor`` for a zero
    coordinate).
    """
    x = np.asarray(x, dtype=float)
    steps = _relative_steps(x, factor)
    columns = []
    for k in range(x.shape[0]):
        hi = x.copy()
        lo = x.copy()
        hi[k] += steps[k]
        lo[k] -= steps[k]
        diff = np.asarray(g(hi), dtype=float) - np.asarray(g(lo), dtype=float)
        columns.append(diff / (2.0 * steps[k]))
    return np.column_stack(columns)


def cs_jacobian(g: Callable, x, h: float = DEFAULT_CS_STEP) -> np.ndarray:
    """Complex-step Jacobian of a real-analytic vector function.

    Column ``k`` is ``Im(g(x + i*h*e_k)) / h``; no subtractive
    cancellation, so the tiny default step gives near machine-precision
    columns whenever ``g`` is evaluable on complex inputs.
    """
    x = np.asarray(x, dtype=float)
    return np.column_stack([complex_step_column(g, x, k, h) for k in range(x.shape[0])])


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


def trajectory_map(model, time: TimeSpec, method) -> Callable:
    """The map ``(y0 || p) -> column-major flattened trajectory``.

    Requires a prescribed-points time specification so that every
    perturbed run reports its states on exactly the same grid.
    """
    if not isinstance(time, Points):
        raise SpanModeError(
            "differencing a solver run requires prescribed output points; "
            "a plain span lets the output grid move with the perturbation"
        )
    m = model.state_dim

    def g(x):
        y0 = x[:m]
        p = x[m:]
        traj = run_solver(lambda t, y: model.rhs(t, y, p), time, y0, method)
        return traj.states.T.reshape(-1)

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
        pair = bundle.jacobians()
        return np.hstack([pair.wrt_params, pair.wrt_init])

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


def cross_compare(scenario, methods: Sequence[str] = CROSS_METHODS) -> CrossTable:
    """Compare every method's sensitivity matrix of a ``Scenario`` against every other's."""
    methods = tuple(methods)
    matrices = {name: sensitivity_matrix(scenario, name) for name in methods}
    n = len(methods)
    errors = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            errors[i, j] = relative_error(matrices[methods[i]], matrices[methods[j]])
    return CrossTable(methods, errors)
