"""Sensitivities of ODE solutions via the augmented variational system.

The original system ``y' = f(t, y, p)`` is extended with the variational
equations for the parameter sensitivity ``dy/dp`` (initialised to zero)
and the initial-condition sensitivity ``dy/dy0`` (initialised to the
identity), and the whole composite state is integrated in one pass.  On
top of the resulting per-time-point Jacobians this module offers forward
seed propagation, reverse adjoint contraction, solves with dual-valued
inputs (by stripping the payload, augmenting, and reassembling), and a
forward-over-reverse Hessian driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .scalars import (
    Dual1,
    contains_dual,
    eval_jacobian_dual,
    primal_values,
    tangent_part,
    tangent_values,
)
from .solvers import (
    SolverMethod,
    Span,
    SpanModeError,
    TimeSpec,
    Trajectory,
    run_solver,
)

__all__ = [
    "pack_state",
    "unpack_state",
    "analytic_jacobians",
    "dual_jacobians",
    "jacobian_provider",
    "SensitivityBundle",
    "TrajectoryJacobians",
    "forward_sensitivity_solve",
    "jvp_solution",
    "vjp_solution",
    "dual_aware_solve",
    "hessian_forward_over_reverse",
]


def pack_state(y, dy_dp, dy_dy0) -> np.ndarray:
    """Pack ``(y, dy/dp, dy/dy0)`` into one flat vector.

    Layout is ``[y; vec(dy/dp); vec(dy/dy0)]`` with column-major ``vec``,
    so for a 2-state, 4-parameter system the slices are 0:2, 2:10 and
    10:14.  Leading axes are stacked rows: ``(n, m)``, ``(n, m, k)`` and
    ``(n, m, m)`` pack into ``(n, m + m*k + m*m)``.
    """
    y = np.asarray(y)
    dy_dp = np.asarray(dy_dp)
    dy_dy0 = np.asarray(dy_dy0)
    if y.ndim == 0 or dy_dp.ndim != y.ndim + 1 or dy_dy0.ndim != y.ndim + 1:
        raise ValueError("expected a state vector and two sensitivity matrices")
    lead, m = y.shape[:-1], y.shape[-1]
    if dy_dp.shape[:-1] != lead + (m,) or dy_dy0.shape != lead + (m, m):
        raise ValueError(
            f"sensitivity shapes {dy_dp.shape}, {dy_dy0.shape} do not match state length {m}"
        )
    k = dy_dp.shape[-1]
    return np.concatenate([
        y,
        dy_dp.swapaxes(-1, -2).reshape(lead + (m * k,)),
        dy_dy0.swapaxes(-1, -2).reshape(lead + (m * m,)),
    ], axis=-1)


def unpack_state(x, state_dim: int, n_params: int):
    """Inverse of :func:`pack_state`, for one composite row or a stack of them."""
    x = np.asarray(x)
    m, k = state_dim, n_params
    expected = m + m * k + m * m
    if x.ndim == 0 or x.shape[-1] != expected:
        raise ValueError(f"composite state has shape {x.shape}, expected (..., {expected})")
    lead = x.shape[:-1]
    y = x[..., :m]
    dy_dp = x[..., m:m + m * k].reshape(lead + (k, m)).swapaxes(-1, -2)
    dy_dy0 = x[..., m + m * k:].reshape(lead + (m, m)).swapaxes(-1, -2)
    return y, dy_dp, dy_dy0


def analytic_jacobians(jac_y: Callable, jac_p: Callable):
    """Jacobian provider backed by hand-derived formulas."""

    def provider(f, t, y, p):
        return np.asarray(jac_y(t, y, p)), np.asarray(jac_p(t, y, p))

    return provider


def dual_jacobians():
    """Jacobian provider that differentiates the right-hand side with duals.

    The state and parameter vectors are lifted together, one unit seed per
    column, so every value the function touches lives at the same lifting
    level; this is what allows the provider to be applied on top of inputs
    that are already dual-valued.
    """

    def provider(f, t, y, p):
        y = np.asarray(y)
        p = np.asarray(p)
        m = y.shape[0]
        z = np.concatenate([y, p])

        def joint(w):
            return f(t, w[:m], w[m:])

        jac = eval_jacobian_dual(joint, z)
        return jac[:, :m], jac[:, m:]

    return provider


def jacobian_provider(model, kind: str):
    """Resolve ``"analytic"`` or ``"ad"`` to a Jacobian provider for an ``OdeModel``."""
    if kind == "analytic":
        if model.jac_y is None or model.jac_p is None:
            raise ValueError(f"model {model.name!r} has no analytic Jacobians")
        return analytic_jacobians(model.jac_y, model.jac_p)
    if kind == "ad":
        return dual_jacobians()
    raise ValueError(f"unknown jacobian provider {kind!r}; choose 'analytic' or 'ad'")


def _augmented_system(f: Callable, jac, state_dim: int, n_params: int):
    """Composite right-hand side with the parameter vector threaded through.

    Maps ``(t, x, p)`` with ``x`` a packed composite state to its packed
    derivative ``[f; vec(f_y V + f_p); vec(f_y W)]``; ``jac`` supplies the
    two partial derivative matrices of ``f``.
    """
    m, k = state_dim, n_params

    def aug(t, x, p):
        y, dy_dp, dy_dy0 = unpack_state(x, m, k)
        f_y, f_p = jac(f, t, y, p)
        if f_y.shape != (m, m) or f_p.shape != (m, k):
            raise ValueError(
                f"jacobian provider returned shapes {f_y.shape}, {f_p.shape}; "
                f"expected ({m}, {m}) and ({m}, {k})"
            )
        dy = np.asarray(f(t, y, p))
        dv = f_y.dot(dy_dp) + f_p
        dw = f_y.dot(dy_dy0)
        return pack_state(dy, dv, dw)

    return aug


@dataclass(frozen=True)
class TrajectoryJacobians:
    """Stacked Jacobians of the full output trajectory.

    Row ``m * n_times + i`` corresponds to state component ``m`` at output
    row ``i`` (the column-major flattening of the trajectory matrix).
    """

    wrt_params: np.ndarray   # (n_times * state_dim, n_params)
    wrt_init: np.ndarray     # (n_times * state_dim, state_dim)


@dataclass(frozen=True)
class SensitivityBundle:
    """Solution plus both sensitivity blocks at every output time."""

    times: np.ndarray
    y: np.ndarray        # (n_times, state_dim)
    dy_dp: np.ndarray    # (n_times, state_dim, n_params)
    dy_dy0: np.ndarray   # (n_times, state_dim, state_dim)
    time_spec: TimeSpec

    @property
    def state_dim(self) -> int:
        return self.y.shape[1]

    @property
    def n_params(self) -> int:
        return self.dy_dp.shape[2]

    def jacobians(self) -> TrajectoryJacobians:
        n, m = self.y.shape
        k = self.n_params
        wrt_params = np.transpose(self.dy_dp, (1, 0, 2)).reshape(m * n, k)
        wrt_init = np.transpose(self.dy_dy0, (1, 0, 2)).reshape(m * n, m)
        return TrajectoryJacobians(wrt_params, wrt_init)


def _to_trajectory_shape(flat: np.ndarray, n_times: int, state_dim: int) -> np.ndarray:
    return flat.reshape(state_dim, n_times).T


def forward_sensitivity_solve(
    f: Callable,
    jac,
    p,
    y0,
    time: TimeSpec,
    method: SolverMethod,
) -> SensitivityBundle:
    """Integrate the augmented system and unpack every output row.

    Starts from ``pack(y0, 0, I)``.  ``jac=None`` selects the dual-lifting
    Jacobian provider.  If ``y0`` or ``p`` carry dual payloads the
    composite integration is routed through :func:`dual_aware_solve`,
    which strips one payload level and recurses.
    """
    if jac is None:
        jac = dual_jacobians()
    y0 = np.asarray(y0)
    p = np.asarray(p)
    m, k = y0.shape[0], p.shape[0]
    x0 = pack_state(y0, np.zeros((m, k)), np.eye(m))
    system = _augmented_system(f, jac, m, k)

    if contains_dual(x0) or contains_dual(p):
        traj = dual_aware_solve(system, p, x0, time, method)
    else:
        traj = run_solver(lambda t, x: system(t, x, p), time, x0, method)

    y, dy_dp, dy_dy0 = unpack_state(traj.states, m, k)
    return SensitivityBundle(traj.times, y, dy_dp, dy_dy0, time_spec=time)


def jvp_solution(bundle: SensitivityBundle, g_y0, g_p) -> np.ndarray:
    """Forward-mode seed propagation through the solution map.

    Returns the trajectory-shaped directional derivative
    ``dy/dy0 @ g_y0 + dy/dp @ g_p`` at every output time.
    """
    g_y0 = np.asarray(g_y0)
    g_p = np.asarray(g_p)
    if g_y0.shape != (bundle.state_dim,) or g_p.shape != (bundle.n_params,):
        raise ValueError(
            f"seed shapes {g_y0.shape}, {g_p.shape} do not match "
            f"({bundle.state_dim},), ({bundle.n_params},)"
        )
    pair = bundle.jacobians()
    flat = pair.wrt_init.dot(g_y0) + pair.wrt_params.dot(g_p)
    return _to_trajectory_shape(flat, bundle.times.shape[0], bundle.state_dim)


def vjp_solution(bundle: SensitivityBundle, a_y):
    """Reverse-mode adjoint contraction through the solution map.

    ``a_y`` must match the trajectory shape; the result is the pair
    ``(a_y0, a_p)`` of adjoints with respect to the initial state and the
    parameters.  The bundle must come from a prescribed-points solve: the
    caller is stuck with the shape of the incoming adjoint, so the output
    grid has to be known up front rather than discovered by re-running the
    primal solve.
    """
    if isinstance(bundle.time_spec, Span):
        raise SpanModeError(
            "adjoint contraction requires a prescribed-points time specification"
        )
    a_y = np.asarray(a_y)
    n, m = bundle.times.shape[0], bundle.state_dim
    if a_y.shape != (n, m):
        raise ValueError(f"adjoint shape {a_y.shape} does not match trajectory ({n}, {m})")
    pair = bundle.jacobians()
    flat = a_y.T.reshape(m * n)
    a_p = flat.dot(pair.wrt_params)
    a_y0 = flat.dot(pair.wrt_init)
    return a_y0, a_p


def dual_aware_solve(
    rhs: Callable,
    p,
    y0,
    time: TimeSpec,
    method: SolverMethod,
) -> Trajectory:
    """Solve ``y' = rhs(t, y, p)`` for dual-valued ``y0`` and/or ``p``.

    Strips one payload level into seed vectors, integrates the augmented
    system of ``rhs`` once in the lower scalar kind (Jacobians obtained by
    one-level-lower dual lifting), and reassembles the output payload as
    ``dy/dy0 @ seed(y0) + dy/dp @ seed(p)``.  Nested duals recurse: the
    lower-kind solve routes through here again until the base kind is
    real.
    """
    y0 = np.asarray(y0)
    p = np.asarray(p)
    if not (contains_dual(y0) or contains_dual(p)):
        raise TypeError(
            "dual_aware_solve needs dual-valued inputs; "
            "use the plain solver for real or complex states"
        )
    y0_lower = primal_values(y0)
    p_lower = primal_values(p)
    seed_y0 = tangent_values(y0)
    seed_p = tangent_values(p)

    bundle = forward_sensitivity_solve(rhs, dual_jacobians(), p_lower, y0_lower, time, method)
    pair = bundle.jacobians()
    payload_flat = pair.wrt_init.dot(seed_y0) + pair.wrt_params.dot(seed_p)
    n, m = bundle.times.shape[0], bundle.state_dim
    payload = _to_trajectory_shape(payload_flat, n, m)

    states = np.empty((n, m), dtype=object)
    for i in range(n):
        for j in range(m):
            states[i, j] = Dual1(bundle.y[i, j], payload[i, j])
    return Trajectory(bundle.times, states)


def hessian_forward_over_reverse(gradient: Callable, x0) -> np.ndarray:
    """Hessian columns from a reverse-gradient routine on dual inputs.

    Column ``j`` is the tangent payload of ``gradient`` evaluated with the
    inputs lifted to duals and seeded with the unit vector ``e_j``; solves
    inside the gradient routine dispatch through :func:`dual_aware_solve`.
    ``gradient`` must accept a vector of any scalar kind and return the
    gradient vector.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    hess = np.empty((n, n))
    for j in range(n):
        lifted = np.empty(n, dtype=object)
        lifted[:] = [Dual1(x0[i], 1.0 if i == j else 0.0) for i in range(n)]
        g = np.asarray(gradient(lifted))
        hess[:, j] = [float(tangent_part(gi)) for gi in g]
    return hess
