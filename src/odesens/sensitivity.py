"""Sensitivities of ODE solutions via the augmented variational system.

The original system ``y' = f(t, y, p)`` is extended with the variational
equations for the parameter sensitivity ``dy/dp`` (initialised to zero)
and the initial-condition sensitivity ``dy/dy0`` (initialised to the
identity).  The composite state is the row stack
``[y; (dy/dp)^T; (dy/dy0)^T]``, integrated as one system in one pass.  A
step needs ``f`` and ``[f_y | f_p]`` at one point; a Jacobian provider
returns both as the pair ``(f, [f_y | f_p])``, and nothing else in the
step evaluates the model.  On top of the resulting per-time-point
Jacobians this module offers forward seed propagation, reverse adjoint
contraction, solves with dual-valued inputs (by stripping the payload,
augmenting, and reassembling every output row as duals; a final-row grid
makes it one row), and a forward-over-reverse Hessian driver.  Inputs with
a trailing column axis are integrated as lanes of one solve, each lane its
own system: under RK23 with its own step control.  Dual lanes lower to one
real solve of their lanes, each lane lifted with its own seeds.

The variational equations are linear in the sensitivities, and under
Euler their coefficients depend only on the state trajectory.  A real
Euler solve of a right-hand side whose lane contract is known therefore
runs in two passes: the state alone, one block of steps ahead, then the
composite recurrence, whose ``f`` and ``[f_y | f_p]`` come from one
lane-form provider call per block of steps, every lane included.  Every
number is bitwise that of a solve that calls the provider once per step,
as RK23 and any right-hand side not known to take lanes still do; RK23
lanes make that call for all lanes at once.

The augmented system is linear in its sensitivity blocks, so it carries a
structured Jacobian of its own.  Lowering a dual-valued sensitivity solve,
as the Hessian driver does, integrates the augmented system of the
augmented system; its Jacobian then needs the model's second derivatives.
A model declares none: whichever the Jacobian provider, they come from
one ``m + k``-seed dual pass over the provider itself, whose tangents of
``[f_y | f_p]`` are the second derivatives, whose primals of
``[f_y | f_p]`` are the first, and whose primals of ``f`` are the
augmented system's value row.  That structured provider takes lanes,
so a real lowered Euler solve runs in the same two passes, with no
per-step model call.  Its state is the flat stack of the model's
composite state, so its state pass is the model's own two-pass
recurrence, one model provider call per block of steps; one structured
provider call per block, with one lane pass over the model's provider,
then gives every step's structured Jacobian.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .scalars import (
    Dual1,
    contains_dual,
    eval_jacobian_dual,
    lift_dual,
    primal_values,
    tangent_values,
)
from .solvers import (
    EulerMethod,
    RK23Method,
    SolverMethod,
    Span,
    SpanModeError,
    TimeSpec,
    Trajectory,
    _euler_grid,
    _euler_steps,
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

# Euler steps times lanes whose Jacobians one provider call evaluates: enough
# to share the cost of the call, few enough that a block stays small however
# many lanes a solve has (1024 steps of one lane, 42 of the FD Hessian's 24)
_BLOCK_LANES = 1024


def _check_shape(name, array, shape, lanes=None):
    expected = shape if lanes is None else shape + (lanes,)
    if array.shape != expected:
        tail = "" if lanes is None else f" with a last axis of {lanes} lanes"
        raise ValueError(f"{name} returned shape {array.shape}; expected {shape}{tail}")


def _dual_pass(f: Callable, t, y, p, part=None):
    """``f(t, y, p)`` on duals and its derivative in ``(y, p)``, from one pass.

    The state and parameter vectors are lifted together with one identity
    seed block (see :func:`~odesens.scalars.eval_jacobian_dual`), lanes
    included; a vector ``t`` of lane times enters as a lane dual of zero
    tangent.  So does a ``t`` that is already the lane dual of an enclosing
    pass, as the AD provider meets it inside a pass over itself: it becomes
    a constant of this pass's level.  Returns the dual output, whose
    primals are ``f``, and the derivative, of shape ``f.shape + (m + k,)``
    and over lanes ``f.shape + (m + k, lanes)``.  With ``part``, the
    derivative is that of ``f(t, y, p)[part]`` alone.
    """
    m = len(y)
    if isinstance(t, (np.ndarray, Dual1)):
        t = Dual1(t)
    out = []

    def g(z):
        out.append(f(t, z[:m], z[m:]))
        return out[0] if part is None else out[0][part]

    derivative = eval_jacobian_dual(g, np.concatenate([y, p]))
    return out[0], derivative


def analytic_jacobians(jac: Callable):
    """Jacobian provider of a hand-written ``[f_y | f_p]``.

    ``jac`` takes ``(t, y, p)``; see ``OdeModel``.  Like every provider,
    ``provider(f, t, y, p)`` returns the pair ``(f(t, y, p), [f_y | f_p])``,
    so a step evaluates the model through its provider only.  A lowered
    solve of the Hessian takes ``f``, ``[f_y | f_p]`` and its derivatives
    from one dual pass over this provider (see :func:`_augmented_system`),
    so there ``f`` and ``jac`` run on duals only, over lanes in an Euler
    solve.
    """

    def provider(f, t, y, p):
        return f(t, y, p), np.asarray(jac(t, y, p))

    return provider


def dual_jacobians():
    """Jacobian provider that differentiates the right-hand side with duals.

    The provider returns the pair ``(f(t, y, p), [f_y | f_p])`` from one
    dual pass: the state and parameter vectors are lifted together with one
    identity seed block, the pass gives ``[f_y | f_p]`` as its tangents and
    ``f`` as its primals, and every value the function touches lives at the
    same lifting level; this is what allows the provider to be applied on
    top of inputs that are already dual-valued.  Lanes, ``y`` of shape
    ``(m, B)`` and ``p`` of shape ``(k, B)``, take that one pass too, with
    lane duals (see :func:`~odesens.scalars.eval_jacobian_dual`); ``f``
    must then follow the lane contract of ``OdeModel``.  A vector ``t`` of
    lane times enters the pass as a lane dual of zero tangent, so ``f`` may
    combine it with the state by arithmetic and the numpy functions a
    ``Dual1`` takes, such as ``np.exp``, each lane bitwise its pass at a
    real ``t``.  A lowered solve of the Hessian runs this provider on
    duals, one pass nested in another (see :func:`_augmented_system`): the
    primals of the outer pass are this provider's pair, bit for bit.
    """

    def provider(f, t, y, p):
        out, first = _dual_pass(f, t, y, p)
        return primal_values(out), first

    return provider


def _check_lanes(name: str, fn: Callable, y, p):
    """Raise ``ValueError`` if ``fn`` on the lanes of ``y`` and ``p`` mixes them.

    Lane ``b`` of one call at the lane times ``_PROBE_TIMES`` must equal,
    bit for bit, the call at column ``b`` and that lane's time.  An output
    without the lane axis, a constant, passes if it equals every one-point
    call.
    """
    lanes = np.asarray(fn(_PROBE_TIMES, y, p), float)
    for b, t in enumerate(_PROBE_TIMES.tolist()):
        one = np.asarray(fn(t, y[:, b], p[:, b]), float)
        if lanes.shape not in (one.shape, one.shape + (len(_PROBE_TIMES),)):
            raise ValueError(f"model {name} of {len(_PROBE_TIMES)} lanes returned shape "
                             f"{lanes.shape}; expected {one.shape} with a last axis of lanes")
        lane = lanes if lanes.shape == one.shape else lanes[..., b]
        if lane.tobytes() != one.tobytes():
            at = next(i for i in np.ndindex(one.shape) if lane[i].tobytes() != one[i].tobytes())
            raise ValueError(f"model {name} mixes lanes: entry {at} of lane {b} is {lane[at]!r}, "
                             f"but {one[at]!r} at that lane's point alone")


# lane times, and scales of the default state and parameters, at which
# jacobian_provider checks the lane contract: three distinct points
_PROBE_TIMES = np.array([0.25, 0.5, 0.75])
_PROBE_SCALES = np.array([0.75, 1.0, 1.25])

# (id, kind) -> each model whose lane contract has passed for that provider kind;
# a model is a frozen dataclass, so once is enough, not once per provider: a short
# command makes a provider, and the check costs it about 30 us for predator-prey
_CHECKED = weakref.WeakValueDictionary()


def jacobian_provider(model, kind: str):
    """Resolve ``"analytic"`` or ``"ad"`` to a Jacobian provider for an ``OdeModel``.

    The model's ``rhs`` and ``jac`` follow its lane contract, so the
    provider records ``model.rhs``: a real Euler sensitivity solve of that
    ``rhs`` with this provider evaluates blocks of steps in one lane-form
    call (see :func:`forward_sensitivity_solve`).  A model that breaks the
    contract would give wrong numbers there without an error, so the
    contract is checked here, once per model and kind: ``rhs``, and
    ``jac`` for the analytic provider, which calls it, run on three lanes
    at scaled default points and distinct lane times, and each lane must
    equal its one-point call bit for bit; otherwise ``ValueError`` names
    the function, the lane and the first entry that differs.
    """
    if kind not in ("analytic", "ad"):
        raise ValueError(f"unknown jacobian provider {kind!r}; choose 'analytic' or 'ad'")
    if _CHECKED.get((id(model), kind)) is not model:
        y = np.array(list(model.states.values()), float)[:, None] * _PROBE_SCALES
        p = np.array(list(model.params.values()), float)[:, None] * _PROBE_SCALES[::-1]
        _check_lanes("rhs", model.rhs, y, p)
        if kind == "analytic":
            _check_lanes("jac", model.jac, y, p)
        _CHECKED[id(model), kind] = model
    provider = analytic_jacobians(model.jac) if kind == "analytic" else dual_jacobians()
    provider._lane_rhs = model.rhs
    return provider


def _augmented_system(f: Callable, jac, state_dim: int, n_params: int):
    """Composite right-hand side with the parameter vector threaded through.

    Maps ``(t, x, p)`` with ``x`` the flat state, the C-order ravel of the
    ``(1 + k + m, m)`` row stack ``[y; V^T; W^T]``, to its derivative
    ``[f; (f_y V + f_p)^T; (f_y W)^T]`` in the shape of ``x``; the provider
    ``jac`` supplies both ``f`` and ``[f_y | f_p]``, the ``(m, m + k)``
    derivative of ``f`` in ``(y, p)``, from one call, and nothing else
    evaluates ``f``.  Every solve steps the flat state, as a Jacobian
    provider sees it one payload level down; the row stack itself gives its
    derivative in its own shape.  The derivative is one product, the row
    stack times ``f_y^T``, whose row 0 is then replaced by ``f`` and whose
    ``V`` rows get ``f_p^T`` added: the products of ``f_y [V | W]``, summed
    in ``q`` order, with ``f_p`` last.

    With ``p`` of shape ``(k, L)``, ``x`` of shape ``(n, L)`` holds ``L``
    flat stacks, one per lane, and the derivative keeps that shape: one
    lane-form call of ``jac`` serves every lane, and the product is the
    stacked ``matmul`` of C-contiguous operands, lane ``b`` bitwise the
    one-lane ``dot``.  RK23, whose step control reads ``(V, W)``, steps
    this system one point at a time, at each lane's own point for lanes;
    so does an Euler solve of any right-hand side not known to take
    lanes.  A real Euler solve of a model's ``rhs`` with its provider
    runs the same product in two passes instead (see
    :func:`_two_pass_euler`).

    The returned function also carries its own Jacobian provider as the
    attribute ``jacobians``, which returns the system's value with its
    Jacobian, so a lowered step calls nothing else.  The system is
    linear in ``(V, W)``, so with ``n = (1 + k + m) m`` its ``(n, n + k)``
    derivative in ``(x, p)`` is assembled from blocks: ``[f_y, 0 | f_p]``
    in row block 0, ``I (x) f_y`` in the ``V``/``W`` columns, and in the
    ``y`` and ``p`` columns of row block ``1 + l`` the second-order terms
    ``sum_q d f_y[:, q] S[q, l]`` (plus ``d f_p[:, l]`` in the ``V`` rows)
    with ``S = [V | W]``.  One rule serves every provider and scalar kind:
    one dual pass over ``jac`` itself with ``m + k`` seeds gives ``f``,
    ``[f_y | f_p]`` and its derivatives.  The primals of its ``f`` are row
    0 of the value, the primals of its ``[f_y | f_p]`` the first
    derivatives, whose shape is checked before anything reads them, and
    the tangents of its ``[f_y | f_p]`` their derivatives in ``(y, p)``.
    On lane duals a provider of constants, such as the analytic provider
    of the ``zero`` model, gives ``[f_y | f_p]`` without the lane axis,
    and that one block serves every lane.  The sum over ``q`` runs in the
    order in which the system's object dot sums, ``q = 0`` first and
    ``f_p`` last.  Where ``jac`` equals a dual pass over ``f``, as it does
    for every packaged model, the blocks therefore equal, value for value,
    a dual pass over the whole system with ``n + k`` seeds; only the sign
    of an exact zero may differ.

    ``jacobians`` takes lanes as the system does, its dual pass a lane
    pass: ``t`` of shape ``(L,)``, ``x`` ``(n, L)`` and ``p`` ``(k, L)``
    give the value ``(n, L)`` and the Jacobian ``(n, n + k, L)``, each lane
    bitwise its one-point call.  If ``jac`` also takes ``f`` in lanes, as
    the provider of a model's ``rhs`` does (its ``_lane_rhs``),
    ``jacobians`` records the system as its own ``_lane_rhs``, so a real
    lowered Euler solve runs in the two passes of :func:`_two_pass_euler`,
    and the system records the pair ``(f, jac)`` as its ``_model``: its
    state at every substep is the model's composite state, which the
    state pass then takes from the model's own two-pass recurrence
    instead of stepping this system (see :func:`_state_pass`), and one
    ``jacobians`` call evaluates a block of steps.  A system of such a
    system records neither, and its solves, those of nested duals, take
    one structured Jacobian per step: its value row is then the primal of
    the object ``dot`` of the dual pass, which may differ in the last bit
    from the real ``dot`` that its state pass would step.
    """
    m, k = state_dim, n_params
    n = (1 + k + m) * m
    # the y and p columns of the (n, n + k) block, and the index of the
    # diagonal blocks I (x) f_y in the V/W rows and columns
    y_p = np.r_[:m, n:n + k]
    lanes = np.arange(m, n).reshape(k + m, m)
    diagonal = (lanes[:, :, None], lanes[:, None, :])
    block = (m, m + k)

    def derivative(rows, value, first):
        # rows (1 + k + m, m) and first (m, m + k), or each with a last axis of lanes
        if rows.ndim == 2:
            # compared here, not in a call: this runs once per step
            if first.shape != block:
                _check_shape("jacobian provider", first, block)
            # the product with a strided view of f_y may round differently
            out = rows.dot(np.ascontiguousarray(first[:, :m]).T)
        else:
            _check_shape("jacobian provider", first, block, rows.shape[2])
            # a right-hand side of constants gives one value for all lanes
            value = np.reshape(value, (m, -1))
            # lane b of the stacked matmul is the one-lane dot of C-contiguous operands
            # lanes first, as transposed views: np.moveaxis costs microseconds a call
            f_y = np.ascontiguousarray(first[:, :m].transpose(2, 0, 1))
            out = np.matmul(np.ascontiguousarray(rows.transpose(2, 0, 1)),
                            f_y.swapaxes(-1, -2)).transpose(1, 2, 0)
        out[0] = value
        out[1:1 + k] += first[:, m:].swapaxes(0, 1)
        return out

    def aug(t, x, p):
        # p of shape (k, L) makes x of shape (n, L) L flat lanes
        rows = x.reshape(1 + k + m, m, *p.shape[1:])
        return derivative(rows, *jac(f, t, rows[0], p)).reshape(x.shape)

    def jacobians(_aug, t, x, p):
        lanes = p.shape[1:]
        rows = x.reshape(1 + k + m, m, *lanes)
        # the provider on duals: second, the tangents of [f_y | f_p], is (m, m + k, m + k)
        (value, first), second = _dual_pass(lambda t, y, p: jac(f, t, y, p), t, rows[0], p, part=1)
        first = primal_values(first)
        if lanes and first.shape == block:
            # on lane duals a provider of constants gives one block for all lanes
            first = np.broadcast_to(first[..., None], block + lanes)
        # derivative checks the shape of first before anything reads it
        dx = derivative(rows, primal_values(value), first).reshape(x.shape)
        # rows[1 + l] is column l of S; cross[l] is row block 1 + l, columns (y, p)
        cross = second[:, 0] * rows[1:, 0, None, None]
        for q in range(1, m):
            cross = cross + second[:, q] * rows[1:, q, None, None]
        cross[:k] = cross[:k] + second[:, m:].swapaxes(0, 1)
        j = np.zeros((n, n + k) + lanes, np.result_type(first, cross))
        j[:m, y_p] = first
        j[m:, y_p] = cross.reshape((n - m, m + k) + lanes)
        j[diagonal] = first[:, :m]
        return dx, j

    aug.jacobians = jacobians
    if getattr(jac, "_lane_rhs", None) is f and not hasattr(f, "jacobians"):
        # so a real lowered Euler solve takes two passes, one call per block of
        # steps, its state pass the model's own; a system of a system steps one
        # point at a time (see above)
        jacobians._lane_rhs = aug
        aug._model = (f, jac, m, k)
    return aug


@dataclass(frozen=True)
class SensitivityBundle:
    """Solution plus both sensitivity blocks at every output time.

    ``states[i]`` is the composite state at ``times[i]``, the row stack of
    ``y``, the ``k`` columns of ``dy/dp`` and the ``m`` columns of
    ``dy/dy0``; its C-order ravel is ``[y; vec(dy/dp); vec(dy/dy0)]`` with
    column-major ``vec``.  ``y``, ``dy_dp`` and ``dy_dy0`` are views into it.
    A lane solve's states carry a lane axis after the time axis, and so do
    the views; ``states[:, b]`` is the bundle of lane ``b``.

    The bundle of dual-valued inputs holds duals, every output row lifted
    from its lowered solve one scalar kind down; a final-row grid makes it
    one row.
    """

    times: np.ndarray
    states: np.ndarray   # (n_times, [lanes,] 1 + n_params + state_dim, state_dim)
    time_spec: TimeSpec

    @property
    def state_dim(self) -> int:
        return self.states.shape[-1]

    @property
    def n_params(self) -> int:
        return self.states.shape[-2] - 1 - self.state_dim

    @property
    def y(self) -> np.ndarray:
        """``(n_times, state_dim)``"""
        return self.states[..., 0, :]

    @property
    def dy_dp(self) -> np.ndarray:
        """``(n_times, state_dim, n_params)``"""
        return self.states[..., 1:-self.state_dim, :].swapaxes(-1, -2)

    @property
    def dy_dy0(self) -> np.ndarray:
        """``(n_times, state_dim, state_dim)``"""
        return self.states[..., -self.state_dim:, :].swapaxes(-1, -2)

    def take(self, rows) -> SensitivityBundle:
        """The bundle of the output rows ``rows``, an index array or a slice."""
        return SensitivityBundle(self.times[rows], self.states[rows], self.time_spec)


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
    the ravelled stack, which strips one payload level and recurses.  The
    bundle's states are then that solve's rows of duals, as row stacks; a
    final-row grid makes it one row.

    ``y0`` of shape ``(m, B)`` and ``p`` of shape ``(k, B)`` are ``B``
    lanes of one solve: the state is ``(B, 1 + k + m, m)``, lane ``b`` the
    stack of column ``b``, and the bundle's states gain the lane axis after
    the time axis.  Each lane is bitwise the solve of its column.  Under
    RK23 that holds because each lane keeps its own step control (see
    :func:`~odesens.solvers.rk23_solve`), so RK23 lanes need a
    :class:`~odesens.solvers.Points` grid: over a span they are rejected,
    as each lane would report its own step times.  Dual lanes go to
    :func:`dual_aware_solve` as the ``(n, B)`` columns of their flat
    stacks, so their lowered solve is one real solve of ``B`` lanes.  Any
    other pair of shapes is rejected, a 1-D ``p`` with lanes of ``y0`` or
    a lane count that differs included, whichever the provider.

    A real Euler solve, one lane or ``B``, runs in two passes (see
    :func:`_two_pass_euler`) when the provider records ``f`` as its
    ``_lane_rhs``: ``f`` and the provider then follow a lane contract,
    which lets one provider call evaluate a block of steps, with ``t`` a
    vector of lane times.  That is a model's ``rhs`` with the model's
    provider from :func:`jacobian_provider`, and the augmented system of
    such a pair with its structured provider, analytic or AD, which is what
    a lowered solve of :func:`dual_aware_solve` hands over.  Any other
    ``f`` or provider is not known to take lanes, the system of such a
    system, which nested duals lower to, included, so the composite system
    is stepped with one provider call per step at a real ``t``, lanes one
    column at a time.  Both ways give the same bits.  Outside the two
    passes, one coupled system is one solve of the ravel of its row stack,
    the flat state of :func:`_augmented_system`, under either integrator.

    RK23, whose step control reads the sensitivities, steps the composite
    with one provider call per stage.  Its lanes are one solve of the
    ``(n, L)`` matrix whose columns are the ravelled stacks, which
    :func:`_augmented_system` takes, when the provider records ``f`` as its
    ``_lane_rhs``: every stage is then one lane-form provider call with
    ``t`` the vector of lane times.  With any other provider RK23 lanes run
    one column at a time.
    """
    y0 = np.asarray(y0)
    p = np.asarray(p)
    if y0.ndim not in (1, 2) or p.ndim != y0.ndim or p.shape[1:] != y0.shape[1:]:
        raise ValueError(f"y0 of shape {y0.shape} and p of shape {p.shape} are not one "
                         "input, (m,) and (k,), nor B lanes, (m, B) and (k, B)")
    m, k = y0.shape[0], p.shape[0]
    if y0.ndim > 1 and isinstance(method, RK23Method) and isinstance(time, Span):
        raise ValueError("RK23 sensitivity lanes need prescribed output points: "
                         "over a span each lane would report its own step times")

    def row_stack(y):
        return np.concatenate([y[None], np.zeros((k, m)), np.eye(m)])

    # [y0; 0; I], and for lanes one stack per column of y0, lanes first
    x0 = row_stack(y0) if y0.ndim == 1 else np.stack([row_stack(y) for y in y0.T])
    system = _augmented_system(f, jac, m, k)
    dual = contains_dual(y0) or contains_dual(p)
    lane_rhs = getattr(jac, "_lane_rhs", None) is f

    def solve(start):
        if dual:
            return dual_aware_solve(system, p, start, time, method)
        return run_solver(lambda t, x: system(t, x, p), time, start, method)

    if isinstance(method, EulerMethod) and lane_rhs and not dual:
        traj = _two_pass_euler(f, jac, p, y0, x0, time, method)
    elif y0.ndim == 1:
        # one coupled system is stepped as its ravel, under either integrator
        traj = solve(x0.ravel())
    elif lane_rhs or dual:
        # RK23 lanes, and dual lanes for their lowered solve, as the columns of
        # their flat stacks, (n, L)
        traj = solve(x0.reshape(len(x0), -1).T)
        traj = Trajectory(traj.times, np.moveaxis(traj.states, -1, 1))
    else:
        columns = [forward_sensitivity_solve(f, jac, p[:, b], y0[:, b], time, method)
                   for b in range(y0.shape[1])]
        return SensitivityBundle(columns[0].times, np.stack([c.states for c in columns], 1), time)
    return SensitivityBundle(traj.times, traj.states.reshape((-1,) + x0.shape), time)


def _two_pass_euler(f: Callable, jac, p, y0, x0, time: TimeSpec, method: EulerMethod) -> Trajectory:
    """Euler solve of the augmented system whose Jacobians are evaluated ahead of its steps.

    The variational equations are linear in ``(V, W)``, and under Euler
    their coefficients depend only on the state trajectory, which does not
    depend on ``(V, W)``.  So a state pass gives the state alone at every
    substep (see :func:`_state_pass`), and the recurrence records the
    states of a block of substeps at a time, as many as make
    :data:`_BLOCK_LANES` lanes together with the solve's lanes.  The
    provider then gives ``f`` and ``[f_y | f_p]`` of those steps, every
    lane included, in one lane-form call, and the composite recurrence
    takes them through the Euler loop with the product of the per-step
    system, or for lanes its stacked ``matmul`` form: the row stack times
    the transpose of a C-contiguous ``f_y``, row 0 set to ``f``, then
    ``f_p^T`` added.  Each step's operands are those of the per-step solve,
    so every number is bitwise the same.  The state pass runs one block
    ahead of the recurrence, so memory grows with the output rows and the
    lanes, not with the substeps.

    An error of the state pass is raised once the recurrence comes to the
    step that met it, inside the recurrence's Euler loop, so a non-finite
    row the recurrence made before names the step, t and h the per-step
    solve names.  An error of the provider is raised at the first step of
    its block.
    """
    grid, n_subs = _euler_grid(time, method.dt)
    states = _state_pass(f, p, y0, grid, n_subs)
    return run_solver(_recurrence(f, jac, p, y0, states), time, x0, method)


def _recurrence(f: Callable, jac, p, y0, states) -> Callable:
    """Right-hand side of the composite recurrence whose state pass is ``states``.

    ``states`` yields the substeps of the state from ``y0`` as
    :func:`~odesens.solvers._euler_steps` does, each with the state after
    it.  Each call takes the next substep's ``f`` and ``[f_y | f_p]`` from
    a generator that reads ``states`` a block of substeps ahead and
    evaluates each block in one lane-form provider call (see
    :func:`_two_pass_euler`).
    """
    m, k = len(y0), len(p)
    lanes = y0[0].size
    block_steps = max(1, _BLOCK_LANES // lanes)
    # the step (and lane) axes of a block's f and [f_y | f_p], moved first by a
    # transpose: np.moveaxis costs microseconds a call, which a short solve notices
    axes = tuple(range(1, y0.ndim + 1))

    def block(times, held):
        # the provider's lanes are the block's steps times the solve's lanes, steps major
        shape = (len(times),) + y0.shape[1:]
        n = len(times) * lanes
        value, first = jac(f, np.repeat(times, lanes), held.swapaxes(0, 1).reshape(m, n),
                           np.repeat(p.reshape(k, 1, -1), len(times), axis=1).reshape(k, n))
        _check_shape("jacobian provider", first, (m, m + k), n)
        value = np.reshape(value, (m, -1))
        if value.shape[1] != n:
            # a right-hand side of constants gives one value for all lanes
            value = np.broadcast_to(value, (m, n))
        value = value.reshape((m,) + shape).transpose(axes + (0,))
        first = first.reshape((m, m + k) + shape).transpose(tuple(a + 1 for a in axes) + (0, 1))
        # per step and lane: f, f_y^T of a C-contiguous f_y, and f_p^T
        f_y = np.ascontiguousarray(first[..., :m])
        return zip(value, f_y.swapaxes(-1, -2), first[..., m:].swapaxes(-1, -2))

    def steps():
        y, times = y0, []
        held = np.empty((block_steps,) + y0.shape, np.result_type(y0, p))
        try:
            for t, _, after in states:
                held[len(times)] = y
                times.append(t)
                y = after
                if len(times) == block_steps:
                    full, times = times, []
                    yield from block(full, held)
        except Exception:
            # the recurrence takes the steps before the failing one, then meets the error
            if times:
                yield from block(times, held[:len(times)])
            raise
        if times:
            yield from block(times, held[:len(times)])

    supply = steps()

    # one lane takes the product of the per-step system, lanes its stacked form
    def one_lane(t, x):
        value, f_y_t, f_p_t = next(supply)
        out = x.dot(f_y_t)
        out[0] = value
        out[1:1 + k] += f_p_t
        return out

    def stacked(t, x):
        value, f_y_t, f_p_t = next(supply)
        out = np.matmul(x, f_y_t)
        out[:, 0] = value
        out[:, 1:1 + k] += f_p_t
        return out

    return one_lane if y0.ndim == 1 else stacked


def _state_pass(f: Callable, p, y0, grid, n_subs):
    """The state pass of a two-pass solve: every substep, as ``_euler_steps`` yields it.

    The state alone is ``y0`` stepped by ``f``.  The augmented system of a
    model's ``rhs`` with its provider, which a lowered solve steps, knows
    that pair (see :func:`_augmented_system`): its state, the flat stack
    ``[y; V^T; W^T]``, is then the model's own composite state, bitwise, so
    its substeps are taken from the model's two-pass recurrence, whose
    provider call evaluates a block of steps, instead of stepping ``f``,
    which would call the model's provider once per step.
    """
    model = getattr(f, "_model", None)
    if model is None:
        if y0.ndim == 1:
            return _euler_steps(lambda t, y: f(t, y, p), grid, n_subs, y0)

        def lane_rhs(t, y):
            # over lanes a right-hand side of constants gives one value for all
            # lanes, as in the per-step system; reshaped only then, as a reshape
            # on every step took the two-lane reference-grid Euler gradient
            # from about 0.13 to 0.14 s
            value = f(t, y, p)
            return value if value.ndim == 2 else np.reshape(value, (len(y), -1))
        return _euler_steps(lane_rhs, grid, n_subs, y0)
    rhs, jac, m, k = model
    y = y0[:m]
    recurrence = _recurrence(rhs, jac, p, y, _state_pass(rhs, p, y, grid, n_subs))
    # flat stacks (n,), or lanes (n, L), as row stacks (1 + k + m, m), lanes first
    x0 = np.ascontiguousarray(y0.T).reshape(y0.shape[1:] + (1 + k + m, m))
    flat = y0.shape[::-1]
    return ((t, end, x.reshape(flat).T) for t, end, x in _euler_steps(recurrence, grid, n_subs, x0))


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
    primal solve.  Only the rows where ``a_y`` is nonzero are taken from
    the bundle and contracted, so a final-row adjoint costs one row
    whatever the trajectory length.  An all-zero adjoint takes no row; on a
    dual-valued bundle it gives object arrays of the int ``0``.  A lane
    bundle raises ``ValueError``: each lane has its own adjoints, so
    contract the bundle of lane ``b``, whose states are ``states[:, b]``.
    """
    if isinstance(bundle.time_spec, Span):
        raise SpanModeError(
            "adjoint contraction requires a prescribed-points time specification"
        )
    if bundle.states.ndim != 3:
        raise ValueError(f"vjp_solution takes one lane's bundle, not {bundle.states.shape[1]} "
                         "lanes; contract the bundle of lane b, whose states are states[:, b]")
    a_y = np.asarray(a_y)
    n, m = bundle.times.shape[0], bundle.state_dim
    if a_y.shape != (n, m):
        raise ValueError(f"adjoint shape {a_y.shape} does not match trajectory ({n}, {m})")
    rows = np.flatnonzero(np.any(a_y != 0, axis=1))
    part = bundle.take(rows)
    a_y = a_y[rows]
    return np.tensordot(a_y, part.dy_dy0, 2), np.tensordot(a_y, part.dy_dp, 2)


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

    The returned trajectory's ``states``, the ``(n_times, m)`` object array
    of duals, lifts every output row of the lowered bundle with the seeds;
    a final-row grid, which the objectives of the forward-over-reverse
    Hessian take, makes it one row.  ``y0`` of shape ``(m, B)`` and ``p``
    of shape ``(k, B)`` are ``B`` lanes: one lowered solve of ``B`` real
    lanes, after which each lane is contracted and lifted with its own
    seeds, giving ``(n_times, m, B)`` states, lane ``b`` bitwise the solve
    of column ``b``.  Any other pair of shapes raises ``ValueError``.

    The lowered solve needs the Jacobians of ``rhs``.  An augmented system
    built by this module, which is what a dual-valued
    :func:`forward_sensitivity_solve` hands over, brings its own structured
    provider (see :func:`_augmented_system`).  Analytic or AD, that
    provider takes lanes, so an Euler lowered solve evaluates it once per
    block of steps, ahead of the recurrence, and its state pass is the
    model's own two-pass solve, with one model provider call per block of
    steps (see :func:`_state_pass`); under RK23, or one level further down
    for nested duals, the lowered solve calls it once per step.  Any other
    ``rhs`` is differentiated by one dual pass per step
    (:func:`dual_jacobians`).
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
    m = len(y0)
    # one input is the one lane of the loop below
    x = np.concatenate([y0, p]).reshape(m + len(p), -1)
    states = bundle.states if y0.ndim > 1 else bundle.states[:, None]
    lifted = []
    for b in range(x.shape[1]):
        lane = SensitivityBundle(bundle.times, states[:, b], time)
        # one call a lane, so constants in either input widen to the seed count of the other
        seeds = tangent_values(x[:, b])
        lifted.append(lift_dual(lane.y, jvp_solution(lane, seeds[:m], seeds[m:])))
    return Trajectory(bundle.times, np.stack(lifted, -1) if y0.ndim > 1 else lifted[0])


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
