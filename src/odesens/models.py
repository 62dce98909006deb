"""Concrete ODE systems and the end-to-end scalar objective built on them.

The centrepiece is the two-species predator-prey system with its
hand-derived Jacobians; a one-state linear model (closed-form solution
available) and a zero right-hand-side stub serve as test oracles.  Each
model declares its input keys with their defaults and which must be
positive, and :data:`MODELS` is the registry, keyed by model name, that
scenarios, scenario files and the CLI flags are built from.  The module
also carries the scenario description shared by the library and the CLI,
and the objective
``z = sum(last row of solve(y0, p)) + sum(last row of solve(y0, p/2))``
together with its gradient and Hessian drivers; each driver takes the
``OdeModel`` it runs, none defaults to one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Callable

import numpy as np

from .diffmethods import central_fd_jacobian, cs_jacobian, solve_columns
from .scalars import is_finite_scalar
from .sensitivity import (
    SensitivityBundle,
    forward_sensitivity_solve,
    hessian_forward_over_reverse,
    jacobian_provider,
    vjp_solution,
)
from .solvers import (
    EulerMethod,
    Points,
    RK23Method,
    SolverMethod,
    SpanModeError,
    TimeSpec,
    _FinalRow,
    run_columns,
)

__all__ = [
    "OdeModel",
    "MODELS",
    "get_model",
    "lv_rhs",
    "lv_jac",
    "lv_invariant",
    "linear_rhs",
    "Scenario",
    "scenario_keys",
    "SOLVERS",
    "parse_scenario_text",
    "load_scenario",
    "format_scenario",
    "fmain_objective",
    "fmain_gradient_forward",
    "fmain_gradient_reverse",
    "fmain_gradient_fd",
    "fmain_gradient_cs",
    "fmain_hessian",
    "fmain_hessian_fd",
]

# relative increment of the differenced reverse gradient in fmain_hessian_fd
_HESSIAN_FD_STEP = 1e-5


def lv_rhs(t, y, p):
    """Predator-prey right-hand side, generic over the scalar kind.

    ``y = (prey, predator)``, ``p = (eps1, gamma1, eps2, gamma2)``:
    prey grows at ``eps1`` and is eaten at ``gamma1 * predator``; the
    predator dies at ``eps2`` and grows at ``gamma2 * prey``.
    """
    return np.array([
        (p[0] - p[1] * y[1]) * y[0],
        -(p[2] - p[3] * y[0]) * y[1],
    ])


def lv_jac(t, y, p):
    """``[f_y | f_p]`` of :func:`lv_rhs`: the state columns, then the parameter columns."""
    zero = 0.0 * y[0]
    return np.array([
        [p[0] - p[1] * y[1], -(p[1] * y[0]), y[0], -(y[1] * y[0]), zero, zero],
        [p[3] * y[1], -(p[2] - p[3] * y[0]), zero, zero, -y[1], y[0] * y[1]],
    ])


def lv_invariant(y, p) -> float:
    """Conserved quantity of the exact predator-prey flow.

    Constant along exact solutions, so its drift measures solver error;
    minimal at the interior equilibrium.
    """
    y1, y2 = float(y[0]), float(y[1])
    if y1 <= 0.0 or y2 <= 0.0:
        raise ValueError("the invariant is defined for positive populations only")
    return p[3] * y1 - p[2] * math.log(y1) + p[1] * y2 - p[0] * math.log(y2)


def linear_rhs(t, y, p):
    """One-state linear model ``y' = a*y`` with closed-form sensitivities."""
    return np.array([p[0] * y[0]])


def _linear_jac(t, y, p):
    return np.array([[p[0], y[0]]])


def _zero_rhs(t, y, p):
    """Stub model with a frozen zero derivative (any scalar kind)."""
    return 0.0 * np.asarray(y)


def _zero_jac(t, y, p):
    return np.zeros((len(y), len(y) + len(p)) + np.shape(y)[1:])


@dataclass(frozen=True)
class OdeModel:
    """A right-hand side, its first derivatives and the scenario inputs it reads.

    ``rhs(t, y, p)`` gives ``f`` for ``m`` states and ``k`` parameters, and
    ``jac(t, y, p)`` its ``(m, m + k)`` derivative ``[f_y | f_p]`` in
    ``(y, p)``, states first.  ``states`` maps each initial-value key to its
    default and ``params`` each parameter key to its default, in the order
    the right-hand side expects them; ``positive`` names the keys a
    scenario must hold positive.  A model has no name of its own: its key
    in :data:`MODELS` is its name, and that entry is all a model needs for
    scenarios, scenario files and CLI flags to accept its keys.

    A sensitivity step reads ``rhs`` and ``jac`` at the same point through
    a Jacobian provider, which returns the pair ``(f, [f_y | f_p])`` (see
    :func:`~odesens.sensitivity.analytic_jacobians`).  An Euler
    sensitivity solve calls ``rhs`` alone for its state pass, then the
    provider once per block of steps.

    ``rhs`` and ``jac`` must work elementwise over a trailing lane axis:
    ``y`` of shape ``(m, B)`` and ``p`` of shape ``(k, B)`` give ``f`` of
    shape ``(m, B)`` and ``[f_y | f_p]`` of shape ``(m, m + k, B)``, lane
    ``b`` bitwise the value at column ``b``.  Euler and RK23 solves and
    their sensitivities run many real inputs as such lanes.
    :func:`~odesens.sensitivity.jacobian_provider` checks this once, on
    three lanes at scaled defaults, and raises ``ValueError`` for a model
    that mixes them; an output without the lane axis passes if it is the
    same at every lane, as a right-hand side of constants is.  Under lanes
    ``t`` may be a vector of lane times, one per column: an Euler
    sensitivity solve evaluates a block of steps at their own times in one
    call, and under RK23 lanes ``t`` is always that vector, as each lane
    steps from its own time.  In a
    dual-number lane pass that vector is a lane dual of zero tangent (see
    :func:`~odesens.sensitivity.dual_jacobians`), so ``rhs`` may combine
    ``t`` with the state by arithmetic and by the numpy functions a
    ``Dual1`` takes: ``np.exp``, ``np.log``, ``np.sqrt``, ``np.sin`` and
    ``np.cos``.  Every packaged model is autonomous.

    The complex step runs ``rhs`` on complex states.  Under either
    integrator its columns are lanes of numpy ``complex128`` scalars (see
    :func:`~odesens.solvers.run_columns`), so ``rhs`` may combine the state
    only by arithmetic: ``np.exp(y[0])`` raises ``TypeError``, while
    ``np.exp(t)`` works, as ``t`` is a float, or under RK23 a float vector
    of lane times.  A lane is bitwise its one-column solve when
    ``rhs`` works one component at a time (``p[0] * y[0]``): an array
    product of a complex state (``p[:2] * y``) takes numpy's array
    multiply in the one-column solve, which rounds differently.

    A model declares no higher derivatives.  The lowered solves of a
    Hessian take ``f``, ``[f_y | f_p]`` and its derivatives in ``(y, p)``
    from one dual pass over the model's Jacobian provider, over lanes in
    an Euler solve, one pass per block of steps.  An Euler lowered solve's state
    pass is the model's own sensitivity solve: ``rhs`` alone once per
    step, then the provider once per block of steps, on reals.  With
    analytic Jacobians the dual pass evaluates ``rhs`` and ``jac`` on lane
    duals of ``t``, with dual Jacobians ``rhs`` on nested ones; so ``jac``
    too may combine a lane vector ``t`` with the state only by arithmetic
    and those functions.
    """

    rhs: Callable
    jac: Callable
    states: dict
    params: dict
    positive: tuple

    @property
    def state_dim(self) -> int:
        return len(self.states)


_LV_STATES = {"y0_1": 1000.0, "y0_2": 20.0}
_LV_PARAMS = {"eps1": 0.015, "gamma1": 0.0001, "eps2": 0.03, "gamma2": 0.0001}

MODELS = {
    "lv": OdeModel(lv_rhs, lv_jac, _LV_STATES, _LV_PARAMS,
                   (*_LV_STATES, *_LV_PARAMS)),
    # the rate may have any sign
    "linear": OdeModel(linear_rhs, _linear_jac, {"y0_1": 1000.0}, {"eps1": 0.015},
                       ("y0_1",)),
    # the stub reads the predator-prey inputs and checks only its start
    "zero": OdeModel(_zero_rhs, _zero_jac, _LV_STATES, _LV_PARAMS,
                     tuple(_LV_STATES)),
}


def get_model(name: str) -> OdeModel:
    try:
        return MODELS[name]
    except KeyError:
        raise ValueError(f"unknown model {name!r}; choose from {sorted(MODELS)}") from None


SOLVERS = ("euler", "rk23")


def scenario_keys() -> dict:
    """Scenario file schema, ``{key: type}``, built from :data:`MODELS` on each call.

    Every registered model's parameters, then every model's states, then
    the run settings: a newly registered model's keys are accepted at once.
    """
    models = MODELS.values()
    inputs = [key for model in models for key in model.params]
    inputs += [key for model in models for key in model.states]
    return {**dict.fromkeys(inputs, float), **_RUN_KEYS}


@dataclass(frozen=True)
class Scenario:
    """A fully pinned experiment: model, its inputs, grid and solver.

    ``values`` holds the model's inputs by key, parameters then states;
    keys left out take the model's defaults.  A key that only other
    registered models read is dropped, so one scenario file or set of
    flags serves every model; a key that no registered model reads is
    rejected.  The defaults reproduce the reference setup: predator-prey
    rates (0.015, 0.0001, 0.03, 0.0001), initial populations (1000, 20),
    the window [0, 1000] sampled at 10001 points, and a 0.1 Euler step.
    """

    model: str = "lv"
    values: dict = field(default_factory=dict)
    t0: float = 0.0
    t_end: float = 1000.0
    n_points: int = 10001
    solver: str = "euler"
    dt: float = 0.1
    rel_tol: float = 1e-3
    abs_tol: float = 1e-6

    def __post_init__(self):
        model = get_model(self.model)
        values = {**model.params, **model.states}
        for key, value in self.values.items():
            if key in values:
                values[key] = value
            elif key not in scenario_keys() or key in _RUN_KEYS:
                raise ValueError(f"unknown scenario key {key!r}")
        object.__setattr__(self, "values", values)
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}; choose 'euler' or 'rk23'")
        run = {key: getattr(self, key) for key, kind in _RUN_KEYS.items() if kind is float}
        for key, value in {**values, **run}.items():
            # a bool is an int to Python, but no scenario file can hold one
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{key} must be a real number, got {value!r}")
            if not is_finite_scalar(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        if not self.t_end > self.t0:
            raise ValueError(f"t_end ({self.t_end!r}) must exceed t0 ({self.t0!r})")
        if isinstance(self.n_points, bool) or not isinstance(self.n_points, numbers.Integral):
            raise ValueError(f"n_points must be an integer, got {self.n_points!r}")
        if self.n_points < 1:
            raise ValueError(f"n_points must be at least 1, got {self.n_points!r}")
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        RK23Method(self.rel_tol, self.abs_tol)  # checked even where Euler never reads them
        for key in model.positive:
            if not values[key] > 0.0:
                raise ValueError(f"{key} must be positive, got {values[key]!r}")

    def ode_model(self) -> OdeModel:
        return get_model(self.model)

    def params_array(self) -> np.ndarray:
        return np.array([self.values[key] for key in self.ode_model().params])

    def initial_state(self) -> np.ndarray:
        return np.array([self.values[key] for key in self.ode_model().states])

    def time_spec(self) -> Points:
        return Points(np.linspace(self.t0, self.t_end, self.n_points))

    def method(self) -> SolverMethod:
        if self.solver == "euler":
            return EulerMethod(self.dt)
        return RK23Method(self.rel_tol, self.abs_tol)

    def with_updates(self, **changes) -> "Scenario":
        """Copy with the model, run settings or model inputs replaced, all given by key."""
        inputs = {key: changes.pop(key) for key in list(changes)
                  if key != "model" and key not in _RUN_KEYS}
        return replace(self, values={**self.values, **inputs}, **changes)


# the run settings of a scenario and their types, in file order after the model inputs
_RUN_KEYS = {f.name: type(f.default) for f in fields(Scenario) if f.name not in ("model", "values")}


def parse_scenario_text(text: str, model: str = "lv") -> Scenario:
    """Parse the key=value scenario format; keys outside :func:`scenario_keys` are rejected."""
    keys = scenario_keys()
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise ValueError(f"line {lineno}: unknown scenario key {key!r}")
        if key in entries:
            raise ValueError(f"line {lineno}: duplicate scenario key {key!r}")
        caster = keys[key]
        try:
            entries[key] = caster(value)
        except ValueError:
            raise ValueError(
                f"line {lineno}: cannot parse {value!r} as {caster.__name__} for key {key!r}"
            ) from None
    return Scenario(model=model).with_updates(**entries)


def load_scenario(path, model: str = "lv") -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario_text(handle.read(), model=model)


def format_scenario(scenario: Scenario) -> str:
    """The key=value text of a scenario: its model's inputs, then the run settings."""
    settings = {**scenario.values, **{key: getattr(scenario, key) for key in _RUN_KEYS}}
    # a float formats as its shortest round-trip repr, a string bare
    return "".join(f"{key}={value}\n" for key, value in settings.items())


def _final_row(time: TimeSpec) -> _FinalRow:
    """The grid of ``time``, whose solves step it whole and keep only its last row."""
    if not isinstance(time, Points):
        raise SpanModeError("this objective requires a prescribed-points time specification")
    return _FinalRow(time.times)


def fmain_objective(y0, p, time: TimeSpec, method: SolverMethod, model: OdeModel):
    """Scalar objective: solve ``model`` at ``p`` and at ``p/2``, sum the final rows.

    Columns ``y0`` of shape ``(m, B)`` and ``p`` of shape ``(k, B)`` give
    the ``B`` objectives of the column pairs, from ``2B`` lanes of one
    :func:`solve_columns` call: the complex step's ``(d, d)`` points take
    one solve of ``2d`` lanes under either integrator (see
    :func:`cs_jacobian`).  1-D inputs run the two solves one by one, which
    here beats two lanes (see :func:`_two_lanes`).

    The objective and every driver built on it read only the last row of
    each solve, so ``time`` is handed down as a final-row grid: each solve
    takes every step of the grid, and keeps and reports that one row, the
    last row of the full solve bit for bit.  No other row is held, and
    under RK23 none is filled from the Hermite extension.
    """
    time = _final_row(time)
    y0 = np.asarray(y0)
    p = np.asarray(p)
    if y0.ndim == 1:
        first = solve_columns(model, time, method, np.concatenate([y0, p]))
        second = solve_columns(model, time, method, np.concatenate([y0, p / 2.0]))
        return np.sum(first[-1]) + np.sum(second[-1])
    b = y0.shape[1]
    x = np.vstack([np.hstack([y0, y0]), np.hstack([p, p / 2.0])])
    last = solve_columns(model, time, method, x)[-1]
    return np.sum(last[:, :b], axis=0) + np.sum(last[:, b:], axis=0)


def _sensitivity_solver(model, jac, time, method) -> Callable:
    """``(y0, p) ->`` the sensitivity bundle of the model with the named Jacobian provider."""
    provider = jacobian_provider(model, jac)
    return lambda y0, p: forward_sensitivity_solve(model.rhs, provider, p, y0, time, method)


def _two_lanes(dtype, method: SolverMethod) -> bool:
    """Whether the sensitivity solves at ``p`` and ``p/2`` of a 1-D input run as two lanes.

    A real or dual input ``(y0 || p)``, of type ``dtype``, under Euler
    does: the lanes share every step of the state pass and of the
    recurrence, and each lane is bitwise its own solve.  On the reference
    grid (in process, best of 5, one BLAS thread) that took
    :func:`fmain_gradient_reverse` from 0.099 to 0.085 s.  A dual input
    is the forward-over-reverse Hessian's, whose lowered pair so becomes
    one solve of two lanes: its model state pass, its model recurrence and
    its lowered recurrence each run once over both lanes, with one
    structured Jacobian call a block.  On [0, 20] that took the Hessian
    15.4% less time (median of 10 pairs, 35 s ``bench/run.py`` runs of
    hessian-short, each pair faster), for 3% more peak memory.  Two paths
    keep their two solves, each slower as lanes: RK23, whose lane loop
    pays for the step control of each lane, 0.0245 s as two solves against
    0.0379 s as lanes for a real input (best of 15), and for the
    reference-grid forward-over-reverse Hessian 0.445 s against 0.480 s
    (analytic) and 0.857 s against 0.934 s (AD; fresh process, medians of
    10 pairs); and :func:`fmain_objective`, whose plain solves take one
    cheap ``rhs`` call a step, 0.0394 s as two solves against 0.0418 s as
    lanes.

    The RK23 pair loses as lanes for two reasons (reference grid,
    final-row analytic sensitivity solves, one BLAS thread).  RK23 lanes
    take their attempts together, so the pair takes as many as its slower
    lane: the solve at ``p`` takes 317 step attempts and the one at ``p/2``
    188, so the two lanes run 317 two-lane attempts, 634 lane-attempts for
    505 attempts of work (+26%).  And each lane-attempt costs about 22%
    more, 54.7 against 44.8 us.  Together they make 34.7 ms as lanes
    against 22.6 ms as two solves.  A cheaper lane loop can recover only
    the second factor.
    """
    return isinstance(method, EulerMethod) and np.dtype(dtype).kind in "iufO"


def _pairs(solve: Callable, y0, p, method: SolverMethod) -> list:
    """One pair ``(bundle at p, bundle at p/2)`` per column of ``y0`` and ``p``.

    Columns ``y0`` of shape ``(m, B)`` and ``p`` of shape ``(k, B)`` give
    ``B`` pairs, from the ``2B`` lanes of one solve of ``[p | p/2]``.  A
    1-D input is one column, so two lanes, or two solves where
    :func:`_two_lanes` says so.
    """
    if y0.ndim == 1:
        if not _two_lanes(np.result_type(y0, p), method):
            return [(solve(y0, p), solve(y0, p / 2.0))]
        y0, p = y0[:, None], p[:, None]
    b = y0.shape[1]
    both = solve(np.hstack([y0, y0]), np.hstack([p, p / 2.0]))
    lanes = [SensitivityBundle(both.times, both.states[:, j], both.time_spec) for j in range(2 * b)]
    return list(zip(lanes[:b], lanes[b:]))


def fmain_gradient_forward(
    y0, p, time: TimeSpec, method: SolverMethod,
    model: OdeModel, jac: str = "analytic",
) -> np.ndarray:
    """Gradient of the objective from unit-seed forward propagations.

    One seed per entry of ``(y0 || p)``, all carried at once as the columns
    of the identity; the half-scaled parameters of the second solve
    contribute a factor 1/2 on its parameter seed.  The objective reads
    only the final row, so the solves keep and contract only that row (see
    :func:`fmain_objective`).  Takes one input, ``y0`` of shape ``(m,)`` and
    ``p`` of shape ``(k,)``; columns are rejected.  The two sensitivity
    systems of ``p`` and ``p/2`` come from :func:`_pairs`: two lanes of one
    solve under Euler, real or dual inputs alike, and two solves under
    RK23.
    """
    y0, p = np.asarray(y0), np.asarray(p)
    if y0.ndim != 1 or p.ndim != 1:
        raise ValueError(f"the forward gradient takes y0 of shape (m,) and p of shape (k,), "
                         f"got {y0.shape} and {p.shape}")
    time = _final_row(time)
    [(bundle1, bundle2)] = _pairs(_sensitivity_solver(model, jac, time, method), y0, p, method)
    m = bundle1.state_dim
    seeds = np.eye(m + bundle1.n_params)
    d1 = bundle1.dy_dy0[-1].dot(seeds[:m]) + bundle1.dy_dp[-1].dot(seeds[m:])
    d2 = bundle2.dy_dy0[-1].dot(seeds[:m]) + bundle2.dy_dp[-1].dot(0.5 * seeds[m:])
    return d1.sum(axis=0) + d2.sum(axis=0)


def _pair_gradient(bundle1, bundle2) -> np.ndarray:
    """The objective's gradient from the bundles of its solves at ``p`` and ``p/2``.

    The adjoint is ones on the last row of ``bundle.times`` and zero on any
    other; the drivers' final-row solves keep that row alone, so it has
    one row, and a dual-valued bundle lifts just that one.
    """
    n, m = bundle1.times.shape[0], bundle1.state_dim
    adjoint = np.zeros((n, m))
    adjoint[-1, :] = 1.0
    a_y0_1, a_p_1 = vjp_solution(bundle1, adjoint)
    a_y0_2, a_p_2 = vjp_solution(bundle2, adjoint)
    return np.concatenate([a_y0_1 + a_y0_2, a_p_1 + 0.5 * a_p_2])


def fmain_gradient_reverse(
    y0, p, time: TimeSpec, method: SolverMethod,
    model: OdeModel, jac: str = "analytic",
) -> np.ndarray:
    """Gradient of the objective from one adjoint contraction per solve.

    The adjoint of the trajectory is ones on the final row, the one row its
    final-row solves keep (see :func:`fmain_objective`); the parameter
    adjoint of the half-scaled solve is folded in with the chain-rule
    factor 1/2.  Runs on dual-valued inputs unchanged, which is what the
    forward-over-reverse Hessian driver relies on.

    Columns ``y0`` of shape ``(m, B)`` and ``p`` of shape ``(k, B)`` give
    the ``(m + k, B)`` gradients of the column pairs, each column bitwise
    its 1-D gradient.  The ``2B`` sensitivity systems of ``[p | p/2]``
    are lanes of one solve under either integrator (see :func:`_pairs`
    and :func:`run_columns`).  A 1-D input under Euler, real or dual, is
    one such column, two lanes, so the forward-over-reverse Hessian makes
    one lowered solve of two lanes; under RK23 its two solves run one by
    one.
    """
    time = _final_row(time)
    solve = _sensitivity_solver(model, jac, time, method)
    y0 = np.asarray(y0)
    m = y0.shape[0]

    def gradient(x):
        gradients = [_pair_gradient(*pair) for pair in _pairs(solve, x[:m], x[m:], method)]
        return gradients[0] if x.ndim == 1 else np.column_stack(gradients)

    return run_columns(gradient, np.concatenate([y0, np.asarray(p)]))


def _of_stacked_input(fn: Callable, y0, p, time, method, **kwargs):
    """``fn(y0, p, time, method)`` as a vector map of ``x = (y0 || p)``, plus ``x0``."""
    y0 = np.asarray(y0, dtype=float)
    p = np.asarray(p, dtype=float)
    m = y0.shape[0]

    def g(x):
        # a scalar objective becomes one output row, (1,) or (1, B)
        return np.reshape(fn(x[:m], x[m:], time, method, **kwargs), (-1,) + x.shape[1:])

    return g, np.concatenate([y0, p])


def fmain_gradient_fd(
    y0, p, time: TimeSpec, method: SolverMethod, model: OdeModel,
) -> np.ndarray:
    """Central finite differences of the objective, step sqrt(eps)*|x_k|."""
    objective, x0 = _of_stacked_input(fmain_objective, y0, p, time, method, model=model)
    return central_fd_jacobian(objective, x0)[0]


def fmain_gradient_cs(
    y0, p, time: TimeSpec, method: SolverMethod, model: OdeModel,
) -> np.ndarray:
    """Complex-step derivative of the objective in each input direction."""
    objective, x0 = _of_stacked_input(fmain_objective, y0, p, time, method, model=model)
    return cs_jacobian(objective, x0)[0]


def fmain_hessian(
    y0, p, time: TimeSpec, method: SolverMethod,
    model: OdeModel, jac: str = "analytic",
) -> np.ndarray:
    """Forward-over-reverse Hessian of the objective.

    Evaluates the reverse-gradient routine on dual-seeded inputs; the inner
    solves dispatch through the payload-stripping dual solve, under Euler
    one lowered solve of the two lanes ``p`` and ``p/2``.
    """
    gradient, x0 = _of_stacked_input(
        fmain_gradient_reverse, y0, p, time, method, model=model, jac=jac)
    return hessian_forward_over_reverse(gradient, x0)


def fmain_hessian_fd(
    y0, p, time: TimeSpec, method: SolverMethod,
    model: OdeModel, jac: str = "analytic",
) -> np.ndarray:
    """Central finite differences of the reverse gradient, step 1e-5*|x_k|.

    The ``2d`` shifted points of the ``d`` inputs are one call of the
    column-vectorised :func:`fmain_gradient_reverse`: ``4d`` sensitivity
    lanes of one solve, under RK23 each lane with its own step control.
    """
    gradient, x0 = _of_stacked_input(
        fmain_gradient_reverse, y0, p, time, method, model=model, jac=jac)
    return central_fd_jacobian(gradient, x0, _HESSIAN_FD_STEP)
