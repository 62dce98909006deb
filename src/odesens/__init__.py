"""Derivatives of ODE solutions with respect to parameters and initial values.

Builds the augmented variational system for any right-hand side, solves it
with a fixed-step Euler or an adaptive embedded 3(2) Runge-Kutta scheme
(both generic over real, complex and dual scalar kinds), and layers
forward/reverse derivative propagation, finite-difference and complex-step
baselines, and forward-over-reverse Hessians on top.
"""

from .scalars import Dual1, complex_step_column, eval_jacobian_dual, eval_jvp_dual
from .solvers import (
    EulerMethod,
    MaxStepsExceededError,
    NonFiniteStateError,
    Points,
    RK23Method,
    SolverError,
    Span,
    SpanModeError,
    StepUnderflowError,
    Trajectory,
    euler_solve,
    hermite_interp,
    rk23_solve,
    rk23_step,
    run_solver,
)
from .sensitivity import (
    SensitivityBundle,
    analytic_jacobians,
    dual_aware_solve,
    dual_jacobians,
    forward_sensitivity_solve,
    hessian_forward_over_reverse,
    jvp_solution,
    vjp_solution,
)
from .models import (
    MODELS,
    OdeModel,
    Scenario,
    fmain_gradient_forward,
    fmain_gradient_reverse,
    fmain_hessian,
    fmain_hessian_fd,
    fmain_objective,
    format_scenario,
    get_model,
    load_scenario,
    lv_invariant,
    lv_jac_p,
    lv_jac_y,
    lv_rhs,
    parse_scenario_text,
)
from .diffmethods import (
    CrossTable,
    central_fd_jacobian,
    cross_compare,
    cs_jacobian,
    fd_jacobian,
    relative_error,
)

__version__ = "0.1.0"
