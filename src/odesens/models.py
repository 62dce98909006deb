"""Concrete ODE systems and the end-to-end scalar objective built on them.

The centrepiece is the two-species predator-prey system with its
hand-derived Jacobians; a one-state linear model (closed-form solution
available) and a zero right-hand-side stub serve as test oracles.  Each
model declares its input keys with their defaults and which must be
positive, and :data:`MODELS` is the registry that scenarios, scenario
files and the CLI flags are built from.  The module also carries the
scenario description shared by the library and the CLI, and the objective
``z = sum(last row of solve(y0, p)) + sum(last row of solve(y0, p/2))``
together with its forward- and reverse-mode gradient drivers.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Optional

import numpy as np

from .diffmethods import central_fd_jacobian, cs_jacobian, solve_columns
from .sensitivity import (
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
)

__all__ = [
    "OdeModel",
    "MODELS",
    "get_model",
    "lv_rhs",
    "lv_jac_y",
    "lv_jac_p",
    "lv_invariant",
    "linear_rhs",
    "zero_rhs",
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


def lv_jac_y(t, y, p):
    """State Jacobian of :func:`lv_rhs`."""
    return np.array([
        [p[0] - p[1] * y[1], -(p[1] * y[0])],
        [p[3] * y[1], -(p[2] - p[3] * y[0])],
    ])


def lv_jac_p(t, y, p):
    """Parameter Jacobian of :func:`lv_rhs`."""
    zero = 0.0 * y[0]
    return np.array([
        [y[0], -(y[1] * y[0]), zero, zero],
        [zero, zero, -y[1], y[0] * y[1]],
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


def _linear_jac_y(t, y, p):
    return np.array([[p[0]]])


def _linear_jac_p(t, y, p):
    return np.array([[y[0]]])


def zero_rhs(t, y, p):
    """Stub model with a frozen zero derivative (any scalar kind)."""
    return 0.0 * np.asarray(y)


def _zero_jac_y(t, y, p):
    return np.zeros((len(y), len(y)))


def _zero_jac_p(t, y, p):
    return np.zeros((len(y), len(p)))


@dataclass(frozen=True)
class OdeModel:
    """A right-hand side, its Jacobians and the scenario inputs it reads.

    ``states`` maps each initial-value key to its default and ``params``
    each parameter key to its default, in the order the right-hand side
    expects them; ``positive`` names the keys a scenario must hold
    positive.  An entry in :data:`MODELS` is all a model needs for
    scenarios, scenario files and CLI flags to accept its keys.
    """

    name: str
    rhs: Callable
    jac_y: Optional[Callable]
    jac_p: Optional[Callable]
    states: dict
    params: dict
    positive: tuple

    @property
    def state_dim(self) -> int:
        return len(self.states)


_LV_STATES = {"y0_1": 1000.0, "y0_2": 20.0}
_LV_PARAMS = {"eps1": 0.015, "gamma1": 0.0001, "eps2": 0.03, "gamma2": 0.0001}

MODELS = {
    "lv": OdeModel("lv", lv_rhs, lv_jac_y, lv_jac_p, _LV_STATES, _LV_PARAMS,
                   (*_LV_STATES, *_LV_PARAMS)),
    # the rate may have any sign
    "linear": OdeModel("linear", linear_rhs, _linear_jac_y, _linear_jac_p,
                       {"y0_1": 1000.0}, {"eps1": 0.015}, ("y0_1",)),
    # the stub reads the predator-prey inputs and checks only its start
    "zero": OdeModel("zero", zero_rhs, _zero_jac_y, _zero_jac_p, _LV_STATES, _LV_PARAMS,
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
            if not math.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value!r}")
        if not self.t_end > self.t0:
            raise ValueError("t_end must exceed t0")
        if not isinstance(self.n_points, numbers.Integral):
            raise ValueError(f"n_points must be an integer, got {self.n_points!r}")
        if self.n_points < 1:
            raise ValueError("n_points must be at least 1")
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


def _require_points(time: TimeSpec):
    if not isinstance(time, Points):
        raise SpanModeError("this objective requires a prescribed-points time specification")


def _model_or_lv(model: Optional[OdeModel]) -> OdeModel:
    return model if model is not None else MODELS["lv"]


def fmain_objective(y0, p, time: TimeSpec, method: SolverMethod, model: Optional[OdeModel] = None):
    """Scalar objective: solve at ``p`` and at ``p/2``, sum the final rows.

    Columns ``y0`` of shape ``(m, B)`` and ``p`` of shape ``(k, B)`` give
    the ``B`` objectives of the column pairs, from ``2B`` lanes of one
    :func:`solve_columns` call.  1-D inputs run the two solves one by one,
    so the complex inputs of the complex step never become lanes (see
    :func:`cs_jacobian`).
    """
    _require_points(time)
    model = _model_or_lv(model)
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


def _fmain_bundles(y0, p, time, method, model, jac):
    model = _model_or_lv(model)
    provider = jacobian_provider(model, jac)
    p = np.asarray(p)
    bundle1 = forward_sensitivity_solve(model.rhs, provider, p, y0, time, method)
    bundle2 = forward_sensitivity_solve(model.rhs, provider, p / 2.0, y0, time, method)
    return bundle1, bundle2


def fmain_gradient_forward(
    y0, p, time: TimeSpec, method: SolverMethod,
    model: Optional[OdeModel] = None, jac: str = "analytic",
) -> np.ndarray:
    """Gradient of the objective from unit-seed forward propagations.

    One seed per entry of ``(y0 || p)``, all carried at once as the columns
    of the identity; the half-scaled parameters of the second solve
    contribute a factor 1/2 on its parameter seed.  The objective reads
    only the final row, so only the final-row sensitivities are contracted.
    """
    _require_points(time)
    bundle1, bundle2 = _fmain_bundles(y0, p, time, method, model, jac)
    m = bundle1.state_dim
    seeds = np.eye(m + bundle1.n_params)
    d1 = bundle1.dy_dy0[-1].dot(seeds[:m]) + bundle1.dy_dp[-1].dot(seeds[m:])
    d2 = bundle2.dy_dy0[-1].dot(seeds[:m]) + bundle2.dy_dp[-1].dot(0.5 * seeds[m:])
    return d1.sum(axis=0) + d2.sum(axis=0)


def fmain_gradient_reverse(
    y0, p, time: TimeSpec, method: SolverMethod,
    model: Optional[OdeModel] = None, jac: str = "analytic",
) -> np.ndarray:
    """Gradient of the objective from one adjoint contraction per solve.

    The adjoint of the trajectory is ones on the final row and zero
    elsewhere; the parameter adjoint of the half-scaled solve is folded in
    with the chain-rule factor 1/2.  Runs on dual-valued inputs unchanged,
    which is what the forward-over-reverse Hessian driver relies on.
    """
    _require_points(time)
    bundle1, bundle2 = _fmain_bundles(y0, p, time, method, model, jac)
    n, m = bundle1.times.shape[0], bundle1.state_dim
    adjoint = np.zeros((n, m))
    adjoint[-1, :] = 1.0
    a_y0_1, a_p_1 = vjp_solution(bundle1, adjoint)
    a_y0_2, a_p_2 = vjp_solution(bundle2, adjoint)
    return np.concatenate([a_y0_1 + a_y0_2, a_p_1 + 0.5 * a_p_2])


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
    y0, p, time: TimeSpec, method: SolverMethod, model: Optional[OdeModel] = None,
) -> np.ndarray:
    """Central finite differences of the objective, step sqrt(eps)*|x_k|."""
    objective, x0 = _of_stacked_input(fmain_objective, y0, p, time, method, model=model)
    return central_fd_jacobian(objective, x0)[0]


def fmain_gradient_cs(
    y0, p, time: TimeSpec, method: SolverMethod, model: Optional[OdeModel] = None,
) -> np.ndarray:
    """Complex-step derivative of the objective in each input direction."""
    objective, x0 = _of_stacked_input(fmain_objective, y0, p, time, method, model=model)
    return cs_jacobian(objective, x0)[0]


def fmain_hessian(
    y0, p, time: TimeSpec, method: SolverMethod,
    model: Optional[OdeModel] = None, jac: str = "analytic",
) -> np.ndarray:
    """Forward-over-reverse Hessian of the objective.

    Evaluates the reverse-gradient routine on dual-seeded inputs; the inner
    solves dispatch through the payload-stripping dual solve.
    """
    gradient, x0 = _of_stacked_input(
        fmain_gradient_reverse, y0, p, time, method, model=model, jac=jac)
    return hessian_forward_over_reverse(gradient, x0)


def fmain_hessian_fd(
    y0, p, time: TimeSpec, method: SolverMethod,
    model: Optional[OdeModel] = None, jac: str = "analytic",
) -> np.ndarray:
    """Central finite differences of the reverse gradient, step 1e-5*|x_k|."""
    gradient, x0 = _of_stacked_input(
        fmain_gradient_reverse, y0, p, time, method, model=model, jac=jac)

    def columns(x):
        return np.column_stack([gradient(column) for column in x.T])

    return central_fd_jacobian(columns, x0, _HESSIAN_FD_STEP)
