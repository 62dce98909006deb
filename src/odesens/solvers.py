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
    "run_columns",
]

_EPS = float(np.finfo(float).eps)

# step budget of a solve: RK23 step attempts, Euler steps
_MAX_STEPS = 1_000_000

# gaps of an Euler grid converted to Python floats at a time, and the gap
# ends a final-row Euler solve keeps at a time
_GAP_SLICE = 1024

# state entries of the RK23 output rows filled from the Hermite extension at a
# time: the knots gathered for them stay small however wide the state (985 rows
# of a lowered Hessian solve's (19, 14)), and a narrow state fills in one call
_FILL_ENTRIES = 2 ** 18

# RK23 step control, fixed as in ode23: the new step is the old one times
# _SAFETY * err^(-1/3), inf for a zero norm, bounded to [_MIN_FACTOR, _MAX_FACTOR].
# The power is Python's ** of a float, the C library's pow, one lane at a time:
# numpy's power of an array may round differently.  A NaN norm takes _MIN_FACTOR
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
        for name in ("t0", "t_end"):
            if not is_finite_scalar(getattr(self, name)):
                raise ValueError(f"span {name} must be finite, got {getattr(self, name)!r}")
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "t_end", float(self.t_end))
        if not self.t_end > self.t0:
            raise ValueError(f"t_end ({self.t_end}) must exceed t0 ({self.t0})")


@dataclass(frozen=True)
class Points:
    """Strictly increasing output times; row k of the result is at times[k].

    A single point is allowed and means "initial state only".  The private
    subclass ``_FinalRow`` steps the same grid but keeps only its last row.
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


class _FinalRow(Points):
    """Points whose solve steps the whole grid but reports only the last row.

    Euler's steps depend only on the grid and RK23's only on the span, so
    that row is bitwise the last row of the :class:`Points` solve; a caller
    that reads no other row, such as the objective, holds no other row.
    """


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
            if not is_finite_scalar(getattr(self, name)):
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


# numpy complex128 scalars, not Python complex: the two divide differently
_complex_scalars = np.frompyfunc(np.complex128, 1, 1)


def run_columns(solve: Callable, x):
    """``solve`` of each column of ``x``, stacked on a last axis.

    A 1-D ``x`` is one call, ``solve(x)``.  A ``(d, B)`` matrix is one
    call on the whole matrix too, under either integrator, so ``solve``
    must treat its columns as lanes and return their results on a last
    axis.  Euler's steps depend only on ``dt`` and the grid, and each
    RK23 lane keeps its own step control (see :func:`rk23_solve`), so each
    lane is bitwise its own solve.

    Complex lanes, the points of a complex step, are bitwise their column
    solves only in scalar arithmetic.  They are stepped as an object array
    of numpy ``complex128`` scalars and returned as ``complex``: numpy's
    array complex multiply rounds differently from its scalar one, so
    each entry of a lane takes the scalar arithmetic of the one-column
    solve, where indexing the state gives such scalars.  The stages and
    steps multiply such a state only by real numbers, where scalar and
    array arithmetic agree, and step control reads its magnitudes as one
    complex array (see :func:`_as_complex`).  A ``solve`` of complex lanes
    may therefore combine the state only by arithmetic: a ``complex128``
    scalar has no ``exp`` method for ``np.exp`` to call.
    """
    if x.ndim == 1 or not np.iscomplexobj(x):
        return solve(x)
    return solve(_complex_scalars(x)).astype(complex)


def _state_array(y0) -> np.ndarray:
    y = np.array(y0)
    if y.ndim == 0:
        raise ValueError("initial state must be an array of at least one dimension")
    return y


def _as_complex(v: np.ndarray) -> np.ndarray:
    """``v``, as one ``complex`` array if it holds the lanes of a complex step (see run_columns).

    Array ``np.abs`` and scalar ``abs`` of a ``complex128`` may differ in the
    last bit, so the magnitudes of such lanes are those of the column solve
    only when taken from the array.
    """
    if v.dtype == object and v.size and isinstance(v.flat[0], np.complex128):
        return v.astype(complex)
    return v


def _magnitudes(v: np.ndarray) -> np.ndarray:
    v = _as_complex(v)
    if v.dtype == object:
        return np.array([magnitude(x) for x in v.flat]).reshape(v.shape)
    return np.abs(v)


def _finite_over(v: np.ndarray, axes) -> np.ndarray:
    """Whether ``v`` is finite over ``axes`` at each index of its other axes: by row or by lane."""
    v = _as_complex(v)
    finite = (np.isfinite(v) if v.dtype != object else
              np.array([is_finite_scalar(x) for x in v.flat], dtype=bool).reshape(v.shape))
    return finite.all(axis=axes)


def _at(step: int, t, h) -> str:
    return f"at step {step} (t = {float(t)!r}, h = {float(h)!r})"


def _check_finite(v: np.ndarray, step: int, t: float, h: float):
    if not _finite_over(v, None):
        raise NonFiniteStateError(f"non-finite state {_at(step, t, h)}")


def _check_euler_budget(n_steps: float, dt: float, t0: float, t_end: float):
    if n_steps > _MAX_STEPS:
        raise MaxStepsExceededError(
            f"Euler with dt = {dt!r} needs {n_steps:.6g} steps on [{t0!r}, {t_end!r}], "
            f"above the budget of {_MAX_STEPS}"
        )


def _check_euler_rows(states: np.ndarray, grid: np.ndarray, n_subs: np.ndarray, first: int):
    """Raise for the first non-finite row after row 0, naming the step that made it.

    Row ``1 + i`` of ``states`` is the end of gap ``first + i`` of the grid.
    """
    bad = ~_finite_over(states[1:], tuple(range(1, states.ndim)))
    if bad.any():
        gap = first + int(bad.argmax())
        h = (grid[gap + 1] - grid[gap]) / n_subs[gap]
        raise NonFiniteStateError(
            f"non-finite state {_at(int(n_subs[:gap + 1].sum()), grid[gap + 1], h)}")


def _euler_grid(time: TimeSpec, dt: float):
    """The output grid of an Euler solve and the substep count of each of its gaps.

    Raises for a ``dt`` that is not positive and finite, and raises
    ``MaxStepsExceededError`` for a solve above the step budget.
    """
    if not (dt > 0.0 and is_finite_scalar(dt)):
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
    return grid, n_subs


def _euler_steps(rhs: Callable, grid: np.ndarray, n_subs: np.ndarray, y):
    """The Euler recurrence from ``y`` over the grid, one substep at a time.

    Yields ``(t, end, y + h * rhs(t, y))`` for every substep, the state
    after it, with ``end`` true on the last substep of its gap.  Substep
    ``j`` of a gap ``[a, b]`` of ``n_sub`` substeps is at ``a + j * h``
    with ``h = (b - a) / n_sub``, on Python floats.  The gaps are converted
    a slice at a time, so the Python floats of a long grid are never all
    held at once; ``zip`` stops at the slice's last gap, before the end
    point that the slice's grid ends with.

    This is the one Euler loop: :func:`euler_solve` steps through it, and
    so do the state passes of a two-pass sensitivity solve (see
    :func:`~odesens.sensitivity._two_pass_euler`).  The last substep of a
    gap is written out after the loop over the others: one loop over all
    of them, ``end`` taken as ``j == n_sub - 1``, cost about 65 ns a step,
    +2% on the reference-grid ``solve``.
    """
    for i in range(0, len(n_subs), _GAP_SLICE):
        ends, subs = grid[i:i + _GAP_SLICE + 1], n_subs[i:i + _GAP_SLICE]
        for a, h, n_sub in zip(ends.tolist(), (np.diff(ends) / subs).tolist(), subs.tolist()):
            for j in range(n_sub - 1):
                t = a + j * h
                y = y + h * rhs(t, y)
                yield t, False, y
            t = a + (n_sub - 1) * h
            y = y + h * rhs(t, y)
            yield t, True, y


def euler_solve(rhs: Callable, time: TimeSpec, y0, dt: float) -> Trajectory:
    """Integrate ``y' = rhs(t, y)`` with the explicit Euler recurrence.

    For a plain span the states follow ``y_{k+1} = y_k + dt * rhs(t_k, y_k)``
    with the final step shortened to land exactly on ``t_end``.  For
    prescribed points each gap is covered with uniform substeps of size at
    most ``dt`` and only the requested rows are reported.  Both step through
    :func:`_euler_steps`, the one Euler loop, over the substeps of the
    output grid, on Python floats: a span is its step grid with one
    substep per gap.  A final-row grid (the private ``_FinalRow``) takes
    every step of its grid and reports its last row alone, bitwise the last
    row of the :class:`Points` solve.

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

    Finiteness is checked over the rows of the gap ends, not after every
    step: once after the loop, and for a final-row solve, which keeps the
    gap ends of one slice of gaps at a time in one buffer, also before the
    buffer is overwritten.  A non-finite component stays non-finite under
    ``y + h * f``, so the first non-finite row is the gap end a check after
    every gap would have stopped at, and the error names the same step, t
    and h in both.  A failing solve therefore finishes its fixed steps
    first (at most the budget), a final-row solve those of the slice it
    fails in, and may print one more numpy ``RuntimeWarning``.  If ``rhs``
    raises after a non-finite row, that row is still what is reported.
    """
    grid, n_subs = _euler_grid(time, dt)
    y = _state_array(y0)
    # row 0 and the gap ends after it: the whole grid, or a slice of gaps at a time
    n_rows = min(len(grid), _GAP_SLICE + 1) if isinstance(time, _FinalRow) else len(grid)
    # states[1] is the end of gap `first`
    states, filled, first = y[None], 1, 0
    try:
        for _, end, y in _euler_steps(rhs, grid, n_subs, y):
            if not end:
                continue
            if filled == n_rows:
                # only a final-row solve wraps, once the rows of its slice are checked
                _check_euler_rows(states, grid, n_subs, first)
                first, filled = first + filled - 1, 1
            if filled == len(states) or y.dtype != states.dtype:
                # in the kind of every row so far: a real y0 under a complex or
                # dual rhs promotes, as stacking the rows would
                grown = np.empty((n_rows,) + y.shape, np.result_type(states, y))
                grown[:filled] = states[:filled]
                states = grown
            states[filled] = y
            filled += 1
    finally:
        _check_euler_rows(states[:filled], grid, n_subs, first)
    if isinstance(time, _FinalRow):
        return Trajectory(grid[-1:].copy(), states[filled - 1:filled].copy())
    return Trajectory(grid, states)


def _stages(rhs: Callable, t, y, h, k1):
    """``(y_next, err, k4)`` of an embedded 3(2) step from its first stage ``k1 = rhs(t, y)``.

    ``t`` and ``h`` are floats, or for lanes vectors of lane times and
    steps, which broadcast over the last axis of the state.
    """
    k2 = rhs(t + 0.5 * h, y + (0.5 * h) * k1)
    k3 = rhs(t + 0.75 * h, y + (0.75 * h) * k2)
    y_next = y + h * ((2.0 / 9.0) * k1 + (1.0 / 3.0) * k2 + (4.0 / 9.0) * k3)
    k4 = rhs(t + h, y_next)
    err = h * ((-5.0 / 72.0) * k1 + (1.0 / 12.0) * k2 + (1.0 / 9.0) * k3 - 0.125 * k4)
    return y_next, err, k4


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
    return _stages(rhs, t, y, h, k1)


def _error_norm(err, y_old, y_new, tol: RK23Method):
    """The scaled error norm of a step: a scalar, or one per lane of ``(m, B)`` states."""
    scale = tol.abs_tol + tol.rel_tol * np.maximum(_magnitudes(y_old), _magnitudes(y_new))
    return np.max(_magnitudes(err) / scale, axis=0)


def _initial_step(t0: float, t_end: float, y0, f0, tol: RK23Method) -> float:
    scale = tol.abs_tol + tol.rel_tol * _magnitudes(y0)
    d0 = float(np.max(_magnitudes(y0) / scale))
    d1 = float(np.max(_magnitudes(f0) / scale))
    guess = d0 / d1 if d1 > 0.0 else math.inf
    h = min(0.1 * (t_end - t0), guess)
    h = max(h, 16.0 * _EPS * abs(t0 + 1.0))
    return min(h, t_end - t0)


def _hermite_fill(kt: np.ndarray, ky: np.ndarray, kf: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The states at ``points`` from the knots of one system: ``ky[i]`` and ``kf[i]`` at ``kt[i]``."""
    # rows on a knot (t_end included, as it is the last knot) copy it exactly;
    # every other row lies strictly inside knot interval [idx, idx + 1]
    idx = np.searchsorted(kt, points, side="right") - 1
    # gathers by take, not fancy indexing: with numpy 2.4.6, ky[idx] of a (10001, 2)
    # gather took 110 us and ky.take(idx, axis=0) 9 us; take gathers object knots too
    states = ky.take(idx, axis=0)
    inner = np.flatnonzero(kt.take(idx) != points)
    # one time per query row, broadcast over the axes of the state
    column = (-1,) + (1,) * (ky.ndim - 1)
    # a slice of rows at a time, so the knots of every row are never gathered at once
    n_rows = max(1, _FILL_ENTRIES // ky[0].size)
    for start in range(0, len(inner), n_rows):
        rows = inner[start:start + n_rows]
        i = idx.take(rows)
        states[rows] = hermite_interp(
            kt.take(i).reshape(column), ky.take(i, axis=0), kf.take(i, axis=0),
            kt.take(i + 1).reshape(column), ky.take(i + 1, axis=0), kf.take(i + 1, axis=0),
            points.take(rows).reshape(column))
    return states


def rk23_solve(rhs: Callable, time: TimeSpec, y0, method: RK23Method = RK23Method()) -> Trajectory:
    """Adaptive 3(2) integration with FSAL stage reuse.

    A step is accepted when the scaled error norm
    ``max_i |e_i| / (abs_tol + rel_tol * max(|y_i|, |y_next_i|))`` is at
    most one; magnitudes include complex or dual payloads, so perturbations
    carried there influence step selection.  With prescribed points the
    step sequence is identical to the plain-span run and requested rows are
    filled from the cubic Hermite extension of the accepted steps.

    A 1-D ``y0`` is one system.  A ``(m, B)`` state is ``B`` independent
    lanes, each with its own step control: its own ``t``, ``h``, error
    norm, first stage and knots.  Every stage is one ``rhs`` call over all
    lanes, with ``t`` the vector of lane times (the lane contract of
    ``OdeModel``), and a lane that has reached ``t_end`` is frozen at a
    zero step until the last lane has.  So for real elementwise arithmetic
    each lane is bitwise the solve of its column; the power in the step
    factor is taken one lane at a time on Python floats for that.  A state of more axes is
    rejected: a coupled system of several axes is solved as its ravel, as
    :func:`~odesens.sensitivity.forward_sensitivity_solve` does.  Lanes
    need prescribed points: over a span each lane would report its own
    step times, so a :class:`Span` with lanes is rejected.

    A final-row grid (the private ``_FinalRow``) takes the same steps and
    reports the last knot, at ``t_end``, alone: the row the :class:`Points`
    solve copies from it, with no Hermite fill.

    ``method`` supplies the two tolerances.  The step-control constants
    are fixed, as in ``ode23``: safety factor 0.8, step change bounded to
    [0.2, 5], and at most the shared budget of step attempts, per lane.  A
    failure is a ``SolverError`` naming the attempt, t and h.  A lane that
    fails stops stepping while the others go on, and the solve then raises
    the error of the lowest-index failed lane, the one its column solves,
    run one after another, would have met first.
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
    if y.ndim > 2:
        raise ValueError(f"RK23 takes one system of shape (n,) or lanes of shape (n, B), "
                         f"got a state of shape {y.shape}; solve a coupled system as its ravel")
    if y.ndim == 2 and points is None:
        raise ValueError("RK23 lanes need prescribed output points: "
                         "over a span each lane would report its own step times")
    if points is not None and points.shape[0] == 1:
        return Trajectory(points.copy(), np.array([y]))
    if y.ndim == 2:
        return _rk23_lanes(rhs, points, y, method, isinstance(time, _FinalRow))

    f = np.asarray(rhs(t0, y))
    h = _initial_step(t0, t_end, y, f, method)
    _check_finite(f, 0, t0, h)

    knots = [(t0, y, f)]
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
        err = float(_error_norm(np.asarray(err_vec), np.asarray(y), np.asarray(y_next), method))
        if err <= 1.0:
            t = t_end if clamped else t + h_try
            y, f = y_next, k4
            knots.append((t, y, f))
        h = h_try * min(_MAX_FACTOR,
                        max(_MIN_FACTOR, _SAFETY * err ** (-1.0 / 3.0) if err else math.inf))
        # only a rejected step signals underflow: a tiny start step (y0 = 0)
        # that is accepted grows on its own
        if err > 1.0 and h < 16.0 * _EPS * max(abs(t), t_end - t0):
            raise StepUnderflowError(f"step size underflow {_at(attempts, t, h)}")

    if isinstance(time, _FinalRow):
        return Trajectory(points[-1:].copy(), np.array([y]))
    kt, ky, kf = (np.array(part) for part in zip(*knots))
    if points is None:
        return Trajectory(kt, ky)
    return Trajectory(points.copy(), _hermite_fill(kt, ky, kf, points))


def _rk23_lanes(rhs: Callable, points: np.ndarray, y: np.ndarray, tol: RK23Method,
                final_row: bool) -> Trajectory:
    """The lane loop of :func:`rk23_solve`: ``y`` of shape ``(m, B)`` is ``B`` systems.

    Each lane takes the steps and arithmetic of the single-system loop on
    its column, at its own ``t`` and ``h``; a lane that is done or has
    failed takes a zero step, at its last accepted state, whose stages are
    finite.  A lane whose first stage is not finite fails at step 0 and
    has no such state, so all its stages are zero: ``rhs`` sees only
    finite states, as in the column solve that raises at step 0.  After
    each attempt the lane states are kept, with which lanes took a knot,
    and each lane's rows are filled from its own knots.

    The failure bookkeeping of an attempt runs only when it has work, as
    most attempts have none: failed lanes are taken out of the live ones
    once some lane has failed, the lanes whose state is not finite are
    looked for only when some state is not, and the underflow test runs
    only when some live lane was rejected.  The step factors are one
    Python ``**`` per lane, bounded on the lane array with ``np.fmax`` and
    ``np.fmin``, which keep ``max(0.2, nan)`` at 0.2.
    """
    t0, t_end = float(points[0]), float(points[-1])
    lanes = y.shape[1]
    t = np.full(lanes, t0)
    f = np.asarray(rhs(t, y))
    h = np.array([_initial_step(t0, t_end, y[:, b], f[:, b], tol) for b in range(lanes)])
    # the error that stopped each failed lane
    failed = ~_finite_over(f, 0)
    errors = {b: NonFiniteStateError(f"non-finite state {_at(0, t0, h[b])}")
              for b in np.flatnonzero(failed).tolist()}
    stage_rhs = rhs
    if failed.any():
        # such a lane's own stages, rhs at its start again, would hand the next
        # stage y + 0 * inf = NaN
        f = np.where(failed, 0.0, f)

        def stage_rhs(t, y):
            return np.where(failed, 0.0, rhs(t, y))
    # per attempt: lane times, states and first stages, and the lanes that took a knot
    knots = [(t, y, f, np.ones(lanes, bool))]
    attempts = 0
    while True:
        live = t < t_end
        if errors:
            live[list(errors)] = False
        if not live.any():
            break
        attempts += 1
        if attempts > _MAX_STEPS:
            for b in np.flatnonzero(live).tolist():
                errors[b] = MaxStepsExceededError(
                    f"exceeded {_MAX_STEPS} step attempts {_at(attempts, t[b], h[b])}")
            break
        clamped = h >= t_end - t
        h_try = np.where(live, np.where(clamped, t_end - t, h), 0.0)
        y_next, err_vec, k4 = _stages(stage_rhs, t, y, h_try, f)
        finite = _finite_over(y_next, 0)
        if not finite.all():
            for b in np.flatnonzero(live & ~finite).tolist():
                errors[b] = NonFiniteStateError(
                    f"non-finite state {_at(attempts, t[b] + h_try[b], h_try[b])}")
            live &= finite
            # a lane that failed here takes its error norm, whose value is not used, at
            # its last state: a non-finite one would make an invalid quotient
            y_next = np.where(finite, y_next, y)
        err = _error_norm(err_vec, y, y_next, tol)
        accept = live & (err <= 1.0)
        t = np.where(accept, np.where(clamped, t_end, t + h_try), t)
        y = np.where(accept, y_next, y)
        f = np.where(accept, k4, f)
        # the powers one lane at a time, the bounds on the array: np.fmax(0.2, nan) is
        # 0.2, as max(0.2, nan) is, where np.maximum would give a NaN step
        h = h_try * np.fmin(_MAX_FACTOR, np.fmax(
            _MIN_FACTOR, [_SAFETY * e ** (-1.0 / 3.0) if e else math.inf for e in err.tolist()]))
        if (live & ~accept).any():
            underflow = live & ~accept & (h < 16.0 * _EPS * np.maximum(np.abs(t), t_end - t0))
            for b in np.flatnonzero(underflow).tolist():
                errors[b] = StepUnderflowError(f"step size underflow {_at(attempts, t[b], h[b])}")
        if accept.any() and not final_row:
            knots.append((t, y, f, accept))

    if errors:
        raise errors[min(errors)]
    if final_row:
        return Trajectory(points[-1:].copy(), y[None])
    # the knots of complex lanes fill as complex arrays, as a column's do: filled as
    # objects, the same bits took the full-grid complex-step matrix 28 -> 81 ms
    kt, ky, kf, took = (_as_complex(np.array(part)) for part in zip(*knots))
    states = [_hermite_fill(kt[took[:, b], b], ky[took[:, b], :, b], kf[took[:, b], :, b], points)
              for b in range(lanes)]
    return Trajectory(points.copy(), np.stack(states, axis=-1))


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
