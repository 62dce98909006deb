"""Concrete ODE systems and the end-to-end scalar objective built on them.

The centrepiece is the two-species predator-prey system with its
hand-derived Jacobians; a one-state linear model (closed-form solution
available) and a zero right-hand-side stub serve as test oracles.  The
module also carries the scenario description shared by the library and
the CLI, and the objective ``z = sum(last row of solve(y0, p)) + sum(last
row of solve(y0, p/2))`` together with its forward- and reverse-mode
gradient drivers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .diffmethods import central_fd_jacobian, cs_jacobian
from .sensitivity import (
    forward_sensitivity_solve,
    hessian_forward_over_reverse,
    jacobian_provider,
    jvp_solution,
    vjp_solution,
)
from .solvers import (
    EulerMethod,
    Points,
    RK23Method,
    SolverMethod,
    SpanModeError,
    TimeSpec,
    ToleranceConfig,
    run_solver,
)

__all__ = [
    "LVParams",
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
    "SCENARIO_KEYS",
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


@dataclass(frozen=True)
class LVParams:
    """Rates of the predator-prey system; all four must be positive."""

    eps1: float
    gamma1: float
    eps2: float
    gamma2: float

    def __post_init__(self):
        for name in ("eps1", "gamma1", "eps2", "gamma2"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"parameter {name} must be positive")

    def as_array(self) -> np.ndarray:
        return np.array([self.eps1, self.gamma1, self.eps2, self.gamma2])


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
    """A right-hand side, its Jacobians and the scenario keys it reads.

    ``state_keys`` name the initial values and ``param_keys`` the
    parameters, in the order the right-hand side expects them.
    """

    name: str
    rhs: Callable
    jac_y: Optional[Callable]
    jac_p: Optional[Callable]
    state_keys: tuple
    param_keys: tuple

    @property
    def state_dim(self) -> int:
        return len(self.state_keys)

    @property
    def param_dim(self) -> int:
        return len(self.param_keys)


_LV_STATE = ("y0_1", "y0_2")
_LV_PARAMS = ("eps1", "gamma1", "eps2", "gamma2")

MODELS = {
    "lv": OdeModel("lv", lv_rhs, lv_jac_y, lv_jac_p, _LV_STATE, _LV_PARAMS),
    "linear": OdeModel("linear", linear_rhs, _linear_jac_y, _linear_jac_p, ("y0_1",), ("eps1",)),
    "zero": OdeModel("zero", zero_rhs, _zero_jac_y, _zero_jac_p, _LV_STATE, _LV_PARAMS),
}


def get_model(name: str) -> OdeModel:
    try:
        return MODELS[name]
    except KeyError:
        raise ValueError(f"unknown model {name!r}; choose from {sorted(MODELS)}") from None


SOLVERS = ("euler", "rk23")

# Scenario file schema: one key=value per line, '#' starts a comment.
SCENARIO_KEYS = {
    "eps1": float,
    "gamma1": float,
    "eps2": float,
    "gamma2": float,
    "y0_1": float,
    "y0_2": float,
    "t0": float,
    "t_end": float,
    "n_points": int,
    "solver": str,
    "dt": float,
    "rel_tol": float,
    "abs_tol": float,
}


@dataclass(frozen=True)
class Scenario:
    """A fully pinned experiment: model, parameters, grid and solver.

    The defaults reproduce the reference setup: rates
    (0.015, 0.0001, 0.03, 0.0001), initial populations (1000, 20), the
    window [0, 1000] sampled at 10001 points, and a 0.1 Euler step.  The
    model's ``state_keys`` and ``param_keys`` select which fields it reads.
    """

    model: str = "lv"
    eps1: float = 0.015
    gamma1: float = 0.0001
    eps2: float = 0.03
    gamma2: float = 0.0001
    y0_1: float = 1000.0
    y0_2: float = 20.0
    t0: float = 0.0
    t_end: float = 1000.0
    n_points: int = 10001
    solver: str = "euler"
    dt: float = 0.1
    rel_tol: float = 1e-3
    abs_tol: float = 1e-6

    def __post_init__(self):
        model = get_model(self.model)
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}; choose 'euler' or 'rk23'")
        if not self.t_end > self.t0:
            raise ValueError("t_end must exceed t0")
        if self.n_points < 1:
            raise ValueError("n_points must be at least 1")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if any(getattr(self, key) <= 0.0 for key in model.state_keys):
            raise ValueError("initial populations must be positive")
        if self.model == "lv":
            LVParams(*self.params_array())

    def ode_model(self) -> OdeModel:
        return get_model(self.model)

    def params_array(self) -> np.ndarray:
        return np.array([getattr(self, key) for key in self.ode_model().param_keys])

    def initial_state(self) -> np.ndarray:
        return np.array([getattr(self, key) for key in self.ode_model().state_keys])

    def points(self) -> np.ndarray:
        return np.linspace(self.t0, self.t_end, self.n_points)

    def time_spec(self) -> Points:
        return Points(self.points())

    def tolerance(self) -> ToleranceConfig:
        return ToleranceConfig(rel_tol=self.rel_tol, abs_tol=self.abs_tol)

    def method(self) -> SolverMethod:
        if self.solver == "euler":
            return EulerMethod(self.dt)
        return RK23Method(self.tolerance())

    def with_updates(self, **changes) -> "Scenario":
        return replace(self, **changes)


def parse_scenario_text(text: str, model: str = "lv") -> Scenario:
    """Parse the key=value scenario format; unknown keys are rejected."""
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCENARIO_KEYS:
            raise ValueError(f"line {lineno}: unknown scenario key {key!r}")
        caster = SCENARIO_KEYS[key]
        try:
            fields[key] = caster(value)
        except ValueError:
            raise ValueError(
                f"line {lineno}: cannot parse {value!r} as {caster.__name__} for key {key!r}"
            ) from None
    return Scenario(model=model, **fields)


def load_scenario(path, model: str = "lv") -> Scenario:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario_text(handle.read(), model=model)


def format_scenario(scenario: Scenario) -> str:
    def fmt(value):
        return value if isinstance(value, str) else repr(value)

    lines = [f"{key}={fmt(getattr(scenario, key))}" for key in SCENARIO_KEYS]
    return "\n".join(lines) + "\n"


def _require_points(time: TimeSpec):
    if not isinstance(time, Points):
        raise SpanModeError("this objective requires a prescribed-points time specification")


def _resolve(model: Optional[OdeModel], jac: str):
    model = model if model is not None else MODELS["lv"]
    return model, jacobian_provider(model, jac)


def fmain_objective(y0, p, time: TimeSpec, method: SolverMethod, model: Optional[OdeModel] = None):
    """Scalar objective: solve at ``p`` and at ``p/2``, sum the final rows."""
    _require_points(time)
    model = model if model is not None else MODELS["lv"]
    y0 = np.asarray(y0)
    p = np.asarray(p)
    p2 = p / 2.0
    first = run_solver(lambda t, y: model.rhs(t, y, p), time, y0, method)
    second = run_solver(lambda t, y: model.rhs(t, y, p2), time, y0, method)
    return np.sum(first.states[-1]) + np.sum(second.states[-1])


def _fmain_bundles(y0, p, time, method, model, jac):
    model, provider = _resolve(model, jac)
    p = np.asarray(p)
    bundle1 = forward_sensitivity_solve(model.rhs, provider, p, y0, time, method)
    bundle2 = forward_sensitivity_solve(model.rhs, provider, p / 2.0, y0, time, method)
    return bundle1, bundle2


def fmain_gradient_forward(
    y0, p, time: TimeSpec, method: SolverMethod,
    model: Optional[OdeModel] = None, jac: str = "analytic",
) -> np.ndarray:
    """Gradient of the objective from unit-seed forward propagations.

    One seed per entry of ``(y0 || p)``; the half-scaled parameters of the
    second solve contribute a factor 1/2 on its parameter seed.
    """
    _require_points(time)
    bundle1, bundle2 = _fmain_bundles(y0, p, time, method, model, jac)
    m, k = bundle1.state_dim, bundle1.n_params
    grad = np.empty(m + k)
    for j in range(m + k):
        seed = np.zeros(m + k)
        seed[j] = 1.0
        d1 = jvp_solution(bundle1, seed[:m], seed[m:])
        d2 = jvp_solution(bundle2, seed[:m], 0.5 * seed[m:])
        grad[j] = float(np.sum(d1[-1]) + np.sum(d2[-1]))
    return grad


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
        return np.atleast_1d(fn(x[:m], x[m:], time, method, **kwargs))

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
    return central_fd_jacobian(gradient, x0, _HESSIAN_FD_STEP)
