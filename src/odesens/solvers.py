"""Explicit Euler and adaptive embedded Runge-Kutta 3(2) integrators.

Both integrators are generic over the scalar kind of the state (real,
complex, dual): the stepping arithmetic never leaves the kind, while
step-size control reduces each component to a real magnitude first.
Output can be requested either as a plain time span, in which case the
solver reports its own step points, or as a prescribed vector of time
points.  Prescribed points are filled from the cubic Hermite continuous
extension of accepted steps, so they never influence step selection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .scalars import is_finite_scalar, magnitude

__all__ = [
    "Span",
    "Points",
    "TimeSpec",
    "Trajectory",
    "EulerMethod",
    "RK23Method",
    "SolverMethod",
    "SolverError",
    "NonFiniteStateError",
    "MaxStepsExceededError",
    "StepUnderflowError",
    "SpanModeError",
    "euler_solve",
    "rk23_step",
    "rk23_solve",
    "hermite_interp",
    "run_solver",
]

_EPS = float(np.finfo(float).eps)

# step budget of a solve: RK23 step attempts, Euler steps
_MAX_STEPS = 1_000_000

# RK23 step control, fixed as in ode23: the new step is the old one times
# _SAFETY * err^(-1/3), bounded to [_MIN_FACTOR, _MAX_FACTOR]
_SAFETY = 0.8
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0


class SolverError(RuntimeError):
    """Base class for integration failures."""


class NonFiniteStateError(SolverError):
    """A state component became NaN or infinite during integration."""


class MaxStepsExceededError(SolverError):
    """A solve needs more steps than its budget allows."""


class StepUnderflowError(SolverError):
    """The adaptive step size shrank below the resolvable scale at t."""


class SpanModeError(ValueError):
    """An operation that needs a prescribed output grid got a plain span."""


@dataclass(frozen=True)
class Span:
    """Integration window ``[t0, t_end]``; the solver picks output times.

    The endpoints are stored as Python floats, whatever real type they
    arrive as.
    """

    t0: float
    t_end: float

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.t_end)):
            raise ValueError(f"span [{self.t0}, {self.t_end}] must be finite")
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "t_end", float(self.t_end))
        if not self.t_end > self.t0:
            raise ValueError(f"t_end ({self.t_end}) must exceed t0 ({self.t0})")


@dataclass(frozen=True)
class Points:
    """Strictly increasing output times; row k of the result is at times[k].

    A single point is allowed and means "initial state only".
    """

    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        if times.ndim != 1 or times.shape[0] < 1:
            raise ValueError("prescribed time points must form a non-empty 1-D vector")
        if not np.all(np.isfinite(times)):
            raise ValueError("prescribed time points must be finite")
        if times.shape[0] > 1 and not np.all(np.diff(times) > 0.0):
            raise ValueError("prescribed time points must be strictly increasing")
        object.__setattr__(self, "times", times)


TimeSpec = Union[Span, Points]


@dataclass(frozen=True)
class Trajectory:
    """Time grid plus the state at each grid row."""

    times: np.ndarray
    states: np.ndarray


@dataclass(frozen=True)
class EulerMethod:
    """Fixed-step explicit Euler with step size ``dt``."""

    dt: float


@dataclass(frozen=True)
class RK23Method:
    """Adaptive embedded 3(2) Runge-Kutta with error tolerances.

    The defaults are those of ``ode23`` (rel 1e-3, abs 1e-6).
    """

    rel_tol: float = 1e-3
    abs_tol: float = 1e-6

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("rel_tol", "abs_tol"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")


SolverMethod = Union[EulerMethod, RK23Method]


def run_solver(rhs: Callable, time: TimeSpec, y0, method: SolverMethod) -> Trajectory:
    """Dispatch to the configured integrator."""
    if isinstance(method, EulerMethod):
        return euler_solve(rhs, time, y0, method.dt)
    if isinstance(method, RK23Method):
        return rk23_solve(rhs, time, y0, method)
    raise TypeError(f"unknown solver method: {method!r}")


def _state_array(y0) -> np.ndarray:
    y = np.array(y0)
    if y.ndim == 0:
        raise ValueError("initial state must be an array of at least one dimension")
    return y


def _magnitudes(v: np.ndarray) -> np.ndarray:
    if v.dtype == object:
        return np.array([magnitude(x) for x in v.flat]).reshape(v.shape)
    return np.abs(v)


def _all_finite(v: np.ndarray) -> bool:
    if v.dtype == object:
        return all(is_finite_scalar(x) for x in v.flat)
    return bool(np.isfinite(v).all())


def _at(step: int, t, h) -> str:
    return f"at step {step} (t = {float(t)!r}, h = {float(h)!r})"


def _check_finite(v: np.ndarray, step: int, t: float, h: float):
    if not _all_finite(v):
        raise NonFiniteStateError(f"non-finite state {_at(step, t, h)}")


def _check_euler_budget(n_steps: float, dt: float, t0: float, t_end: float):
    if n_steps > _MAX_STEPS:
        raise MaxStepsExceededError(
            f"Euler with dt = {dt!r} needs {n_steps:.6g} steps on [{t0!r}, {t_end!r}], "
            f"above the budget of {_MAX_STEPS}"
        )


def _check_euler_rows(states: np.ndarray, grid: np.ndarray, n_subs: np.ndarray):
    """Raise for the first non-finite row after row 0, naming the step that made it."""
    rows = states[1:]
    if rows.dtype == object:
        bad = np.array([not _all_finite(row) for row in rows], dtype=bool)
    else:
        bad = ~np.isfinite(rows).all(axis=tuple(range(1, rows.ndim)))
    if bad.any():
        gap = int(bad.argmax())
        h = (grid[gap + 1] - grid[gap]) / n_subs[gap]
        raise NonFiniteStateError(
            f"non-finite state {_at(int(n_subs[:gap + 1].sum()), grid[gap + 1], h)}")


def euler_solve(rhs: Callable, time: TimeSpec, y0, dt: float) -> Trajectory:
    """Integrate ``y' = rhs(t, y)`` with the explicit Euler recurrence.

    For a plain span the states follow ``y_{k+1} = y_k + dt * rhs(t_k, y_k)``
    with the final step shortened to land exactly on ``t_end``.  For
    prescribed points each gap is covered with uniform substeps of size at
    most ``dt`` and only the requested rows are reported.  Both run as one
    loop over the gaps of the output grid, on Python floats: a span is its
    step grid with one substep per gap.

    Generic over the scalar kind of ``y0``; ``dt`` and the time grid stay
    real.  ``y0`` may have any shape of at least one dimension: ``rhs``
    receives and returns states of that shape and the result holds
    ``(n_times,) + y0.shape`` states.  The steps depend only on ``dt`` and
    the grid, never on the state, so the columns of an ``(m, B)`` state may
    be ``B`` independent lanes that take the same steps, each lane bitwise
    the one-lane solve of its column for real elementwise arithmetic.  The
    step count is fixed by ``dt`` and the grid, so a solve that would need
    more than the step budget it shares with RK23 raises
    ``MaxStepsExceededError`` before its first step.

    Finiteness is checked once, after the loop, over every row but the
    initial one.  A non-finite component stays non-finite under
    ``y + h * f``, so the first non-finite row is the gap end a check after
    every gap would have stopped at, and the error names the same step.  A
    failing solve therefore finishes its fixed steps first (at most the
    budget) and may print one more numpy ``RuntimeWarning``.  If ``rhs``
    raises after a non-finite row, that row is still what is reported.
    """
    if not (dt > 0.0 and math.isfinite(dt)):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if isinstance(time, Points):
        grid = time.times.copy()
        # the shave keeps a gap that equals dt up to roundoff at one substep;
        # a subnormal dt overflows a count to inf, which the budget rejects
        with np.errstate(over="ignore"):
            n_subs = np.maximum(1.0, np.ceil((np.diff(grid) / dt) * (1.0 - 1e-12)))
        _check_euler_budget(n_subs.sum(), dt, float(grid[0]), float(grid[-1]))
        n_subs = n_subs.astype(int)
    elif isinstance(time, Span):
        q = (time.t_end - time.t0) / dt
        n_full = math.floor(q) if q < math.inf else q  # q is inf for a subnormal dt
        if q - n_full > 1.0 - 1e-9:
            n_full += 1
        # a shortened last step covers a remainder; t0 + dt * n_full is the last full-step time
        n_steps = n_full + (time.t_end - (time.t0 + dt * n_full) > dt * 1e-9)
        _check_euler_budget(n_steps, dt, time.t0, time.t_end)
        grid = time.t0 + dt * np.arange(n_full + 1)
        if n_steps > n_full:
            grid = np.append(grid, time.t_end)
        grid[-1] = time.t_end
        n_subs = np.ones(n_steps, dtype=int)
    else:
        raise TypeError(f"unknown time specification: {time!r}")

    y = _state_array(y0)
    rows = [y]
    gaps = zip(grid[:-1].tolist(), (np.diff(grid) / n_subs).tolist(), n_subs.tolist())
    try:
        for a, h, n_sub in gaps:
            for j in range(n_sub):
                y = y + h * rhs(a + j * h, y)
            rows.append(y)
    except Exception:
        _check_euler_rows(np.array(rows), grid, n_subs)
        raise
    states = np.array(rows)
    _check_euler_rows(states, grid, n_subs)
    return Trajectory(grid, states)


def rk23_step(rhs: Callable, t: float, y: np.ndarray, h: float, k1=None):
    """One embedded 3(2) step.

    Returns ``(y_next, err_estimate, k4)`` where ``y_next`` is the 3rd-order
    advance, ``err_estimate`` the difference to the embedded 2nd-order
    solution and ``k4 = rhs(t + h, y_next)``, reusable as the next step's
    first stage and as the derivative for Hermite interpolation.
    """
    if h <= 0.0:
        raise ValueError("step size must be positive")
    if k1 is None:
        k1 = rhs(t, y)
    k2 = rhs(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = rhs(t + 0.75 * h, y + (0.75 * h) * k2)
    y_next = y + h * ((2.0 / 9.0) * k1 + (1.0 / 3.0) * k2 + (4.0 / 9.0) * k3)
    k4 = rhs(t + h, y_next)
    err = h * ((-5.0 / 72.0) * k1 + (1.0 / 12.0) * k2 + (1.0 / 9.0) * k3 - 0.125 * k4)
    return y_next, err, k4


def _error_norm(err, y_old, y_new, tol: RK23Method) -> float:
    scale = tol.abs_tol + tol.rel_tol * np.maximum(_magnitudes(y_old), _magnitudes(y_new))
    return float(np.max(_magnitudes(err) / scale))


def _initial_step(t0: float, t_end: float, y0, f0, tol: RK23Method) -> float:
    scale = tol.abs_tol + tol.rel_tol * _magnitudes(y0)
    d0 = float(np.max(_magnitudes(y0) / scale))
    d1 = float(np.max(_magnitudes(f0) / scale))
    guess = d0 / d1 if d1 > 0.0 else math.inf
    h = min(0.1 * (t_end - t0), guess)
    h = max(h, 16.0 * _EPS * abs(t0 + 1.0))
    return min(h, t_end - t0)


def rk23_solve(rhs: Callable, time: TimeSpec, y0, method: RK23Method = RK23Method()) -> Trajectory:
    """Adaptive 3(2) integration with FSAL stage reuse.

    A step is accepted when the scaled error norm
    ``max_i |e_i| / (abs_tol + rel_tol * max(|y_i|, |y_next_i|))`` is at
    most one; magnitudes include complex or dual payloads, so perturbations
    carried there influence step selection.  With prescribed points the
    step sequence is identical to the plain-span run and requested rows are
    filled from the cubic Hermite extension of the accepted steps.

    ``y0`` may have any shape of at least one dimension, and is always one
    coupled system: the norm runs over every entry, so the steps and states
    are bitwise those of the solve of ``y0.ravel()``.  Independent lanes
    stacked in one state would share steps and change each other's
    results; running them separately is the job of
    ``diffmethods.solve_columns``.

    ``method`` supplies the two tolerances.  The step-control constants
    are fixed, as in ``ode23``: safety factor 0.8, step change bounded to
    [0.2, 5], and at most the shared budget of step attempts.
    """
    points = None
    if isinstance(time, Points):
        points = time.times
        t0, t_end = float(points[0]), float(points[-1])
    elif isinstance(time, Span):
        t0, t_end = time.t0, time.t_end
    else:
        raise TypeError(f"unknown time specification: {time!r}")

    y = _state_array(y0)
    if points is not None and points.shape[0] == 1:
        return Trajectory(points.copy(), np.array([y]))

    f = np.asarray(rhs(t0, y))
    h = _initial_step(t0, t_end, y, f, method)
    _check_finite(f, 0, t0, h)

    knot_t = [t0]
    knot_y = [y]
    knot_f = [f]
    t = t0
    attempts = 0
    while t < t_end:
        attempts += 1
        if attempts > _MAX_STEPS:
            raise MaxStepsExceededError(
                f"exceeded {_MAX_STEPS} step attempts {_at(attempts, t, h)}")
        clamped = h >= t_end - t
        h_try = (t_end - t) if clamped else h
        y_next, err_vec, k4 = rk23_step(rhs, t, y, h_try, k1=f)
        _check_finite(np.asarray(y_next), attempts, t + h_try, h_try)
        err = _error_norm(np.asarray(err_vec), np.asarray(y), np.asarray(y_next), method)
        if err <= 1.0:
            t = t_end if clamped else t + h_try
            y = y_next
            f = k4
            knot_t.append(t)
            knot_y.append(y)
            knot_f.append(f)
        if err == 0.0:
            factor = _MAX_FACTOR
        else:
            factor = min(_MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err ** (-1.0 / 3.0)))
        h = h_try * factor
        # only a rejected step signals underflow: a tiny start step (y0 = 0)
        # that is accepted grows on its own
        if err > 1.0 and h < 16.0 * _EPS * max(abs(t), t_end - t0):
            raise StepUnderflowError(f"step size underflow {_at(attempts, t, h)}")

    if points is None:
        return Trajectory(np.array(knot_t), np.array(knot_y))

    kt, ky, kf = np.array(knot_t), np.array(knot_y), np.array(knot_f)
    # rows on a knot (t_end included, as it is the last knot) copy it exactly;
    # every other row lies strictly inside knot interval [idx, idx + 1]
    idx = np.searchsorted(kt, points, side="right") - 1
    states = ky[idx]
    inner = np.flatnonzero(kt[idx] != points)
    i = idx[inner]
    # one time per query row, broadcast over the axes of the state
    column = (-1,) + (1,) * (ky.ndim - 1)
    states[inner] = hermite_interp(
        kt[i].reshape(column), ky[i], kf[i], kt[i + 1].reshape(column), ky[i + 1], kf[i + 1],
        points[inner].reshape(column))
    return Trajectory(points.copy(), states)


def hermite_interp(t_a, y_a, f_a, t_b, y_b, f_b, t_query):
    """Cubic Hermite value between two solver knots.

    Exact at the endpoints and reproduces cubic polynomials exactly when
    ``f_a``/``f_b`` are the endpoint derivatives.  The times may be arrays
    that broadcast against the states, one interval per query.
    """
    if not np.all(t_a < t_b):
        raise ValueError(f"knot interval [{t_a}, {t_b}] is empty or reversed")
    if not np.all((t_a <= t_query) & (t_query <= t_b)):
        raise ValueError(f"query time {t_query} outside knot interval [{t_a}, {t_b}]")
    h = t_b - t_a
    s = (t_query - t_a) / h
    s2 = s * s
    s3 = s2 * s
    h00 = 2.0 * s3 - 3.0 * s2 + 1.0
    h10 = s3 - 2.0 * s2 + s
    h01 = -2.0 * s3 + 3.0 * s2
    h11 = s3 - s2
    return h00 * y_a + (h10 * h) * f_a + h01 * y_b + (h11 * h) * f_b
