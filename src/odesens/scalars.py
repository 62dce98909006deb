"""Scalar kinds used for derivative propagation.

Every numeric routine in this package is written against plain arithmetic
(+, -, *, /) so that it can run unchanged on four scalar kinds:

* ``float``    -- ordinary real arithmetic,
* ``complex``  -- carrier for the complex-step derivative estimate,
* ``Dual1``    -- first-order dual numbers (value, directional derivative),
* nested duals -- ``Dual1`` whose components are themselves ``Dual1``,
  giving second-order (and, recursively, higher) directional derivatives.

The helpers at the bottom evaluate Jacobian-vector products, full
Jacobians, and second directional derivatives of arbitrary vector
functions by lifting their inputs into the appropriate kind.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Dual1",
    "DEFAULT_CS_STEP",
    "magnitude",
    "is_finite_scalar",
    "primal_part",
    "tangent_part",
    "lift_dual",
    "primal_values",
    "tangent_values",
    "contains_dual",
    "eval_jvp_dual",
    "eval_jacobian_dual",
    "eval_second_directional",
    "complex_step_column",
]

# With a first-order method there is no subtractive cancellation, so the
# increment can sit far below sqrt(eps) without loss.
DEFAULT_CS_STEP = 1e-100

_REAL_KINDS = (int, float, np.integer, np.floating)


class Dual1:
    """First-order dual number ``(primal, tangent)``.

    Arithmetic follows the usual rules, e.g. ``(a, a') * (b, b') =
    (a*b, a*b' + a'*b)``; lifting a constant gives a tangent of exactly
    zero.  Components may themselves be ``Dual1``, which nests the type
    into a second-order carrier; nothing below distinguishes the two
    cases because only component arithmetic is used.

    Division by a dual whose (bottom-level) primal is zero raises
    ``ZeroDivisionError``: none of the supported models divide, so such a
    division is always a bug rather than a value to propagate.
    """

    __slots__ = ("primal", "tangent")

    def __init__(self, primal, tangent=0.0):
        self.primal = primal
        self.tangent = tangent

    def __repr__(self):
        return f"Dual1({self.primal!r}, {self.tangent!r})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        parts = _const_parts(other)
        if parts is None:
            return NotImplemented
        p, t = parts
        return Dual1(self.primal + p, self.tangent + t)

    __radd__ = __add__

    def __sub__(self, other):
        parts = _const_parts(other)
        if parts is None:
            return NotImplemented
        p, t = parts
        return Dual1(self.primal - p, self.tangent - t)

    def __rsub__(self, other):
        parts = _const_parts(other)
        if parts is None:
            return NotImplemented
        p, t = parts
        return Dual1(p - self.primal, t - self.tangent)

    def __mul__(self, other):
        parts = _const_parts(other)
        if parts is None:
            return NotImplemented
        p, t = parts
        return Dual1(self.primal * p, self.primal * t + self.tangent * p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        parts = _const_parts(other)
        if parts is None:
            return NotImplemented
        p, t = parts
        _require_invertible(p)
        return Dual1(
            self.primal / p,
            (self.tangent * p - self.primal * t) / (p * p),
        )

    def __rtruediv__(self, other):
        parts = _const_parts(other)
        if parts is None:
            return NotImplemented
        p, t = parts
        _require_invertible(self.primal)
        sp = self.primal
        return Dual1(p / sp, (t * sp - p * self.tangent) / (sp * sp))

    def __neg__(self):
        return Dual1(-self.primal, -self.tangent)

    def __pos__(self):
        return self

    def __pow__(self, n):
        if not isinstance(n, _REAL_KINDS):
            return NotImplemented
        if n == 0:
            return Dual1(self.primal ** 0, self.tangent * 0.0)
        return Dual1(
            self.primal ** n,
            (n * self.primal ** (n - 1)) * self.tangent,
        )


def _const_parts(value):
    """Split an operand into (primal, tangent), treating numbers as constants."""
    if isinstance(value, Dual1):
        return value.primal, value.tangent
    if isinstance(value, _REAL_KINDS):
        return value, 0.0
    return None


def _bottom_primal(value):
    while isinstance(value, Dual1):
        value = value.primal
    return value


def _require_invertible(divisor):
    if _bottom_primal(divisor) == 0:
        raise ZeroDivisionError("division by a dual number with zero primal")


def magnitude(x) -> float:
    """Real magnitude of a scalar of any kind.

    Duals report the largest magnitude over all payload slots so that a
    perturbation carried in a tangent can influence adaptive step-size
    control just as the primal does.
    """
    if isinstance(x, Dual1):
        return max(magnitude(x.primal), magnitude(x.tangent))
    return abs(x)


def is_finite_scalar(x) -> bool:
    if isinstance(x, Dual1):
        return is_finite_scalar(x.primal) and is_finite_scalar(x.tangent)
    if isinstance(x, complex):
        return math.isfinite(x.real) and math.isfinite(x.imag)
    return math.isfinite(x)


def primal_part(x):
    return x.primal if isinstance(x, Dual1) else x


def tangent_part(x):
    return x.tangent if isinstance(x, Dual1) else 0.0


def contains_dual(arr) -> bool:
    arr = np.asarray(arr)
    if arr.dtype != object:
        return False
    return any(isinstance(v, Dual1) for v in arr.flat)


def _scalar_array(values: Sequence) -> np.ndarray:
    values = list(values)
    if any(isinstance(v, Dual1) for v in values):
        out = np.empty(len(values), dtype=object)
        out[:] = values
        return out
    return np.asarray(values)


def lift_dual(x, seed) -> np.ndarray:
    """Lift a vector into duals with the given tangent seeds."""
    x = np.asarray(x)
    seed = np.asarray(seed)
    if x.shape != seed.shape:
        raise ValueError(f"seed shape {seed.shape} does not match input shape {x.shape}")
    out = np.empty(x.shape[0], dtype=object)
    out[:] = [Dual1(xi, si) for xi, si in zip(x, seed)]
    return out


def primal_values(arr) -> np.ndarray:
    return _scalar_array([primal_part(v) for v in np.asarray(arr)])


def tangent_values(arr) -> np.ndarray:
    return _scalar_array([tangent_part(v) for v in np.asarray(arr)])


def eval_jvp_dual(f: Callable, x, seed):
    """Evaluate ``(f(x), J_f(x) @ seed)`` with one dual-lifted pass.

    The tangent is the exact derivative of the floating-point composition
    of ``f`` in the seed direction.  ``f`` must accept a vector of any
    scalar kind and return a vector.
    """
    lifted = lift_dual(x, seed)
    out = f(lifted)
    value = primal_values(out)
    tangent = tangent_values(out)
    return value, tangent


def eval_jacobian_dual(f: Callable, x) -> np.ndarray:
    """Full Jacobian of ``f`` at ``x``, one unit-seed dual pass per column."""
    x = np.asarray(x)
    n = x.shape[0]
    columns = []
    value = None
    for k in range(n):
        seed = np.zeros(n)
        seed[k] = 1.0
        value, column = eval_jvp_dual(f, x, seed)
        columns.append(column)
    if value is None:
        value = np.asarray(f(x))
    m = len(value)
    if any(contains_dual(c) for c in columns):
        jac = np.empty((m, n), dtype=object)
    else:
        jac = np.empty((m, n))
    for k, column in enumerate(columns):
        jac[:, k] = column
    return jac


def eval_second_directional(f: Callable, x, u, v):
    """Value and first/second directional derivatives of ``f`` at ``x``.

    Seeds a nested dual in the directions ``u`` (inner) and ``v`` (outer);
    the returned ``duv`` equals ``u^T H v`` per output component for twice
    differentiable ``f`` and is symmetric in the two directions.
    """
    x = np.asarray(x)
    u = np.asarray(u)
    v = np.asarray(v)
    if x.shape != u.shape or x.shape != v.shape:
        raise ValueError("direction shapes must match the input shape")
    lifted = np.empty(x.shape[0], dtype=object)
    lifted[:] = [
        Dual1(Dual1(xi, ui), Dual1(vi, 0.0)) for xi, ui, vi in zip(x, u, v)
    ]
    out = list(np.asarray(f(lifted)))
    value = _scalar_array([primal_part(primal_part(o)) for o in out])
    du = _scalar_array([tangent_part(primal_part(o)) for o in out])
    dv = _scalar_array([primal_part(tangent_part(o)) for o in out])
    duv = _scalar_array([tangent_part(tangent_part(o)) for o in out])
    return value, du, dv, duv


def complex_step_column(f: Callable, x, k: int, h: float = DEFAULT_CS_STEP) -> np.ndarray:
    """Column ``k`` of the Jacobian of real-analytic ``f`` via a complex step.

    Returns ``Im(f(x + i*h*e_k)) / h``, which is cancellation-free at first
    order and therefore exact to roundoff for polynomial ``f``.
    """
    x = np.asarray(x, dtype=float)
    if not 0 <= k < x.shape[0]:
        raise IndexError(f"column index {k} out of range for input of length {x.shape[0]}")
    if h <= 0.0:
        raise ValueError("complex-step increment must be positive")
    z = x.astype(complex)
    z[k] += 1j * h
    out = np.asarray(f(z))
    return np.imag(out) / h
