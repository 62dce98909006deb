"""Scalar kinds used for derivative propagation.

Every numeric routine in this package is written against plain arithmetic
(+, -, *, /) so that it can run unchanged on four scalar kinds:

* ``float``    -- ordinary real arithmetic,
* ``complex``  -- carrier for the complex-step derivative estimate,
* ``Dual1``    -- first-order dual numbers (value, directional derivative),
  whose tangent may also be a vector of several seed directions,
* nested duals -- ``Dual1`` whose components are themselves ``Dual1``,
  giving second-order (and, recursively, higher) directional derivatives.

The helpers at the bottom evaluate Jacobian-vector products and full
Jacobians of arbitrary vector functions by lifting their inputs into
duals; lifting inputs that are already duals gives second directional
derivatives.
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

    The tangent may also be a 1-D ndarray holding one derivative per seed
    direction (vector forward mode).  The same rules then apply component
    by component, so one pass carries every direction and each component
    is bitwise the tangent a one-seed pass would give.  A constant keeps
    the scalar tangent ``0.0``, which broadcasts against any vector.

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

    Duals report the largest magnitude over all payload slots, every
    direction of a vector tangent included, so that a perturbation carried
    in a tangent can influence adaptive step-size control just as the
    primal does.  RK23 on a vector-seeded dual state therefore controls its
    steps by the largest payload over all seeds, and can step differently
    from separate one-seed solves.  No CLI path steps a dual state: the
    dual-aware solve lowers dual inputs to real solves.
    """
    if isinstance(x, Dual1):
        return max(magnitude(x.primal), *map(magnitude, np.ravel(x.tangent)))
    return abs(x)


def is_finite_scalar(x) -> bool:
    if isinstance(x, Dual1):
        return is_finite_scalar(x.primal) and all(map(is_finite_scalar, np.ravel(x.tangent)))
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


def _scalar_array(values: Sequence, shape) -> np.ndarray:
    values = list(values)
    if any(isinstance(v, Dual1) for v in values):
        out = np.empty(len(values), dtype=object)
        out[:] = values
        return out.reshape(shape)
    return np.asarray(values).reshape(shape)


_dual_of = np.frompyfunc(Dual1, 2, 1)


def lift_dual(x, seed) -> np.ndarray:
    """Lift an array into duals with the given tangent seeds, element by element.

    A seed of the shape of ``x`` gives each element a scalar tangent.  A
    seed of shape ``x.shape + (n,)`` gives element ``i`` the tangent vector
    ``seed[i]`` of ``n`` seed directions, so ``lift_dual(x, np.eye(n))``
    seeds every coordinate of a length-``n`` vector at once.
    """
    x = np.asarray(x)
    seed = np.asarray(seed)
    if seed.shape == x.shape:
        return _dual_of(x, seed)
    if seed.shape[:-1] != x.shape:
        raise ValueError(f"seed shape {seed.shape} does not match input shape {x.shape}")
    lifted = np.empty(x.shape, dtype=object)
    lifted.flat[:] = list(map(Dual1, x.ravel().tolist(), seed.reshape(x.size, seed.shape[-1])))
    return lifted


def primal_values(arr) -> np.ndarray:
    """Primals of an array of duals and constants, in the array's shape."""
    arr = np.asarray(arr)
    return _scalar_array(map(primal_part, arr.flat), arr.shape)


def tangent_values(arr) -> np.ndarray:
    """Tangents of an array of duals and constants.

    With scalar tangents the result has the shape of ``arr``.  If any entry
    carries a vector of ``n`` seed directions it has shape
    ``arr.shape + (n,)``, and the scalar zero tangents of constants widen
    to ``n`` zeros.
    """
    arr = np.asarray(arr)
    tangents = [tangent_part(v) for v in arr.flat]
    width = next((t.shape for t in tangents if isinstance(t, np.ndarray)), None)
    if width is None:
        return _scalar_array(tangents, arr.shape)
    zeros = np.zeros(width)
    widened = [t if isinstance(t, np.ndarray) else t + zeros for t in tangents]
    return np.array(widened).reshape(arr.shape + width)


def _seeded_tangents(out, n: int) -> np.ndarray:
    """Tangents of an ``n``-seed dual pass, in shape ``out.shape + (n,)``.

    An output that never touched the input carries only the scalar zero
    tangent of a constant, which widens to ``n`` zeros.
    """
    out = np.asarray(out)
    tangent = tangent_values(out)
    return tangent if tangent.ndim > out.ndim else np.zeros(out.shape + (n,))


def eval_jvp_dual(f: Callable, x, seed):
    """Evaluate ``(f(x), J_f(x) @ seed)`` with one dual-lifted pass.

    The tangent is the exact derivative of the floating-point composition
    of ``f`` in the seed direction.  ``f`` must accept a vector of any
    scalar kind and return an array.  A seed of shape ``x.shape + (n,)``
    carries ``n`` directions, and the tangent then has shape
    ``f(x).shape + (n,)``, constant outputs included.
    """
    x = np.asarray(x)
    seed = np.asarray(seed)
    out = f(lift_dual(x, seed))
    if seed.ndim > x.ndim:
        return primal_values(out), _seeded_tangents(out, seed.shape[-1])
    return primal_values(out), tangent_values(out)


def eval_jacobian_dual(f: Callable, x) -> np.ndarray:
    """Full Jacobian of ``f`` at ``x`` from one dual pass seeded with the identity.

    Each input carries the vector tangent of its unit seed, so ``f`` runs
    once and the tangent block, of shape ``f(x).shape + (len(x),)``, is the
    Jacobian.
    """
    x = np.asarray(x)
    n = x.shape[0]
    return _seeded_tangents(f(lift_dual(x, np.eye(n))), n)


def complex_step_column(f: Callable, x, k: int) -> np.ndarray:
    """Column ``k`` of the Jacobian of real-analytic ``f`` via a complex step.

    Returns ``Im(f(x + i*h*e_k)) / h`` with ``h = DEFAULT_CS_STEP``, which
    is cancellation-free at first order and therefore exact to roundoff for
    polynomial ``f``.
    """
    x = np.asarray(x, dtype=float)
    if not 0 <= k < x.shape[0]:
        raise IndexError(f"column index {k} out of range for input of length {x.shape[0]}")
    z = x.astype(complex)
    z[k] += 1j * DEFAULT_CS_STEP
    out = np.asarray(f(z))
    return np.imag(out) / DEFAULT_CS_STEP
