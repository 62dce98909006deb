"""Sensitivities of ODE solutions via the augmented variational system.

The original system ``y' = f(t, y, p)`` is extended with the variational
equations for the parameter sensitivity ``dy/dp`` (initialised to zero)
and the initial-condition sensitivity ``dy/dy0`` (initialised to the
identity).  The composite state is the row stack
``[y; (dy/dp)^T; (dy/dy0)^T]``, integrated as one system in one pass.  On
top of the resulting per-time-point Jacobians this module offers forward
seed propagation, reverse adjoint contraction, solves with dual-valued
inputs (by stripping the payload, augmenting, and reassembling), and a
forward-over-reverse Hessian driver.

The augmented system is linear in its sensitivity blocks, so it carries a
structured Jacobian of its own.  Lowering a dual-valued sensitivity solve,
as the Hessian driver does, integrates the augmented system of the
augmented system; its Jacobian then needs the model's second derivatives
once per step.  A model's hand-written ``second`` supplies them; without
one they cost one ``m + k``-seed dual pass over the model's Jacobians.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .scalars import (
    contains_dual,
    eval_jacobian_dual,
    eval_jvp_dual,
    lift_dual,
    primal_values,
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
    "analytic_jacobians",
    "dual_jacobians",
    "jacobian_provider",
    "SensitivityBundle",
    "forward_sensitivity_solve",
    "jvp_solution",
    "vjp_solution",
    "dual_aware_solve",
    "hessian_forward_over_reverse",
]


def analytic_jacobians(jac_y: Callable, jac_p: Callable, second: Optional[Callable] = None):
    """Jacobian provider backed by hand-derived formulas, carrying ``second`` (see ``OdeModel``)."""

    def provider(f, t, y, p):
        return np.asarray(jac_y(t, y, p)), np.asarray(jac_p(t, y, p))

    provider.second = second
    return provider


def dual_jacobians():
    """Jacobian provider that differentiates the right-hand side with duals.

    The state and parameter vectors are lifted together with one identity
    seed block, so a single dual pass gives both Jacobians and every value
    the function touches lives at the same lifting level; this is what
    allows the provider to be applied on top of inputs that are already
    dual-valued.
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
        return analytic_jacobians(model.jac_y, model.jac_p, model.second)
    if kind == "ad":
        return dual_jacobians()
    raise ValueError(f"unknown jacobian provider {kind!r}; choose 'analytic' or 'ad'")


def _augmented_system(f: Callable, jac, state_dim: int, n_params: int):
    """Composite right-hand side with the parameter vector threaded through.

    Maps ``(t, x, p)`` with ``x`` the ``(1 + k + m, m)`` row stack
    ``[y; V^T; W^T]`` to its derivative ``[f; (f_y V + f_p)^T; (f_y W)^T]``
    in the shape of ``x``; ``jac`` supplies the two partial derivative
    matrices of ``f``.  A flat ``x``, the C-order ravel of the stack, is
    accepted too: that is how a Jacobian provider sees the state one
    payload level down.  The derivative is one product, the row stack
    times ``f_y^T``, whose row 0 is then replaced by ``f`` and whose ``V``
    rows get ``f_p^T`` added: the products of ``f_y [V | W]``, summed in
    ``q`` order, with ``f_p`` last.

    The returned function carries its own Jacobian provider as the
    attribute ``jacobians``.  The system is linear in ``(V, W)``, so with
    ``n = (1 + k + m) m`` its ``(n, n)`` and ``(n, k)`` Jacobians are
    assembled from blocks: ``[f_y, 0 | f_p]`` in row block 0, ``I (x) f_y``
    in the ``V``/``W`` columns, and in the ``y`` and ``p`` columns of row
    block ``1 + l`` the second-order terms ``sum_q d f_y[:, q] S[q, l]``
    (plus ``d f_p[:, l]`` in the ``V`` rows) with ``S = [V | W]``.  The
    derivatives of ``f_y`` and ``f_p`` in ``(y, p)`` come from
    ``jac.second`` when ``jac`` has one, whatever the scalar kind of the
    inputs, and otherwise from one dual pass of ``jac`` with ``m + k``
    seeds.  The sum over ``q`` runs in the order in which the system's
    object dot sums, ``q = 0`` first and ``f_p`` last.  Where ``jac``
    equals a dual pass over ``f`` and ``jac.second`` a dual pass over
    ``jac``, as they do for every packaged model, the blocks therefore
    equal, value for value, a dual pass over the whole system with
    ``n + k`` seeds; only the sign of an exact zero may differ.
    """
    m, k = state_dim, n_params
    seeds = np.eye(m + k)
    second_of = getattr(jac, "second", None)

    def partials(t, y, p):
        f_y, f_p = jac(f, t, y, p)
        if f_y.shape != (m, m) or f_p.shape != (m, k):
            raise ValueError(
                f"jacobian provider returned shapes {f_y.shape}, {f_p.shape}; "
                f"expected ({m}, {m}) and ({m}, {k})"
            )
        return f_y, f_p

    def aug(t, x, p):
        rows = x.reshape(1 + k + m, m)
        y = rows[0]
        f_y, f_p = partials(t, y, p)
        out = rows.dot(f_y.T)
        out[0] = f(t, y, p)
        out[1:1 + k] += f_p.T
        return out.reshape(x.shape)

    def jacobians(_aug, t, x, p):
        rows = x.reshape(1 + k + m, m)
        # first is [f_y | f_p], second its derivatives in (y, p), (m, m + k, m + k)
        if second_of is not None:
            first = np.hstack(partials(t, rows[0], p))
            second = np.asarray(second_of(t, rows[0], p))
            if second.shape != (m, m + k, m + k):
                raise ValueError(f"second derivative returned shape {second.shape}; "
                                 f"expected ({m}, {m + k}, {m + k})")
        else:
            first, second = eval_jvp_dual(
                lambda z: np.hstack(partials(t, z[:m], z[m:])), np.concatenate([rows[0], p]), seeds)
        f_y = first[:, :m]
        # rows[1 + l] is column l of S; cross[l] is row block 1 + l, columns (y, p)
        cross = second[:, 0] * rows[1:, 0, None, None]
        for q in range(1, m):
            cross = cross + second[:, q] * rows[1:, q, None, None]
        cross[:k] = cross[:k] + second[:, m:].swapaxes(0, 1)
        cross = cross.reshape((k + m) * m, m + k)
        b = 1 + k + m
        j_x = np.zeros((b * m, b * m), np.result_type(first, cross))
        j_x[m:, :m] = cross[:, :m]
        blocks = np.arange(b)
        j_x.reshape(b, m, b, m)[blocks, :, blocks] = f_y    # the diagonal blocks, I (x) f_y
        return j_x, np.concatenate([first[:, m:], cross[:, m:]])

    aug.jacobians = jacobians
    return aug


@dataclass(frozen=True)
class SensitivityBundle:
    """Solution plus both sensitivity blocks at every output time.

    ``states[i]`` is the composite state at ``times[i]``, the row stack of
    ``y``, the ``k`` columns of ``dy/dp`` and the ``m`` columns of
    ``dy/dy0``; its C-order ravel is ``[y; vec(dy/dp); vec(dy/dy0)]`` with
    column-major ``vec``.  ``y``, ``dy_dp`` and ``dy_dy0`` are views into it.
    """

    times: np.ndarray
    states: np.ndarray   # (n_times, 1 + n_params + state_dim, state_dim)
    time_spec: TimeSpec

    @property
    def state_dim(self) -> int:
        return self.states.shape[2]

    @property
    def n_params(self) -> int:
        return self.states.shape[1] - 1 - self.state_dim

    @property
    def y(self) -> np.ndarray:
        """``(n_times, state_dim)``"""
        return self.states[:, 0]

    @property
    def dy_dp(self) -> np.ndarray:
        """``(n_times, state_dim, n_params)``"""
        return self.states[:, 1:-self.state_dim].swapaxes(1, 2)

    @property
    def dy_dy0(self) -> np.ndarray:
        """``(n_times, state_dim, state_dim)``"""
        return self.states[:, -self.state_dim:].swapaxes(1, 2)


def forward_sensitivity_solve(
    f: Callable,
    jac,
    p,
    y0,
    time: TimeSpec,
    method: SolverMethod,
) -> SensitivityBundle:
    """Integrate the augmented system as one solve of its composite state.

    Starts from the row stack ``[y0; 0; I]`` of shape ``(1 + k + m, m)``.
    ``jac`` is a Jacobian provider such as :func:`analytic_jacobians` or
    :func:`dual_jacobians`.  If ``y0`` or ``p`` carry dual payloads the
    composite integration is routed through :func:`dual_aware_solve` on
    the ravelled stack, which strips one payload level and recurses.
    """
    y0 = np.asarray(y0)
    p = np.asarray(p)
    m, k = y0.shape[0], p.shape[0]
    x0 = np.concatenate([y0[None], np.zeros((k, m)), np.eye(m)])
    system = _augmented_system(f, jac, m, k)

    if contains_dual(y0) or contains_dual(p):
        traj = dual_aware_solve(system, p, x0.ravel(), time, method)
    else:
        traj = run_solver(lambda t, x: system(t, x, p), time, x0, method)
    return SensitivityBundle(traj.times, traj.states.reshape((-1,) + x0.shape), time)


def jvp_solution(bundle: SensitivityBundle, g_y0, g_p) -> np.ndarray:
    """Forward-mode seed propagation through the solution map.

    Returns the trajectory-shaped directional derivative
    ``dy/dy0 @ g_y0 + dy/dp @ g_p`` at every output time.  Seeds of shape
    ``(m,)`` and ``(k,)`` give one direction, shape ``(n_times, m)``;
    seeds of shape ``(m, n)`` and ``(k, n)`` give ``n`` directions at once,
    shape ``(n_times, m, n)``.
    """
    g_y0 = np.asarray(g_y0)
    g_p = np.asarray(g_p)
    m, k = bundle.state_dim, bundle.n_params
    if g_y0.ndim > 2 or g_y0.shape[:1] != (m,) or g_p.shape != (k,) + g_y0.shape[1:]:
        raise ValueError(
            f"seed shapes {g_y0.shape}, {g_p.shape} do not match ({m}[, n]), ({k}[, n])"
        )
    return bundle.dy_dy0.dot(g_y0) + bundle.dy_dp.dot(g_p)


def vjp_solution(bundle: SensitivityBundle, a_y):
    """Reverse-mode adjoint contraction through the solution map.

    ``a_y`` must match the trajectory shape; the result is the pair
    ``(a_y0, a_p)`` of adjoints with respect to the initial state and the
    parameters.  The bundle must come from a prescribed-points solve: the
    caller is stuck with the shape of the incoming adjoint, so the output
    grid has to be known up front rather than discovered by re-running the
    primal solve.  Only the rows where ``a_y`` is nonzero are contracted,
    so a final-row adjoint costs one row whatever the trajectory length.
    """
    if isinstance(bundle.time_spec, Span):
        raise SpanModeError(
            "adjoint contraction requires a prescribed-points time specification"
        )
    a_y = np.asarray(a_y)
    n, m = bundle.times.shape[0], bundle.state_dim
    if a_y.shape != (n, m):
        raise ValueError(f"adjoint shape {a_y.shape} does not match trajectory ({n}, {m})")
    rows = np.flatnonzero(np.any(a_y != 0, axis=1))
    a_y = a_y[rows]
    return np.tensordot(a_y, bundle.dy_dy0[rows], 2), np.tensordot(a_y, bundle.dy_dp[rows], 2)


def dual_aware_solve(
    rhs: Callable,
    p,
    y0,
    time: TimeSpec,
    method: SolverMethod,
) -> Trajectory:
    """Solve ``y' = rhs(t, y, p)`` for dual-valued ``y0`` and/or ``p``.

    Strips one payload level into seeds, integrates the augmented system
    of ``rhs`` once in the lower scalar kind, and reassembles the output
    payload as the JVP ``dy/dy0 @ seed(y0) + dy/dp @ seed(p)``.  Vector
    tangents of ``n`` seed directions give ``(m, n)`` and ``(k, n)`` seed
    matrices and a ``(n_times, m, n)`` payload, still from one lowered
    solve.  Nested duals recurse: the lower-kind solve routes through here
    again until the base kind is real.

    The lowered solve needs the Jacobians of ``rhs``.  An augmented system
    built by this module, which is what a dual-valued
    :func:`forward_sensitivity_solve` hands over, brings its own structured
    provider (see :func:`_augmented_system`); any other ``rhs`` is
    differentiated by one dual pass per step (:func:`dual_jacobians`).
    """
    y0 = np.asarray(y0)
    p = np.asarray(p)
    if not (contains_dual(y0) or contains_dual(p)):
        raise TypeError(
            "dual_aware_solve needs dual-valued inputs; "
            "use the plain solver for real or complex states"
        )
    jac = getattr(rhs, "jacobians", None) or dual_jacobians()
    bundle = forward_sensitivity_solve(
        rhs, jac, primal_values(p), primal_values(y0), time, method)
    # one call, so constants in either input widen to the seed count of the other
    seeds = tangent_values(np.concatenate([y0, p]))
    m = y0.shape[0]
    payload = jvp_solution(bundle, seeds[:m], seeds[m:])
    return Trajectory(bundle.times, lift_dual(bundle.y, payload))


def hessian_forward_over_reverse(gradient: Callable, x0) -> np.ndarray:
    """Hessian from one call of a reverse-gradient routine on dual inputs.

    The inputs are lifted with vector tangents seeded by the identity, so a
    single ``gradient`` call carries all ``n`` directions and its ``(n, n)``
    tangent block is the Hessian: column ``j`` is the derivative of the
    gradient along ``e_j``.  Solves inside the gradient routine dispatch
    through :func:`dual_aware_solve`, which runs each distinct lowered solve
    once for all directions.  ``gradient`` must accept a vector of any
    scalar kind and return the gradient vector.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    hess = np.zeros((n, n))
    # a gradient that ignores x returns constants, whose zero tangents broadcast
    hess[...] = tangent_values(gradient(lift_dual(x0, np.eye(n))))
    return hess
