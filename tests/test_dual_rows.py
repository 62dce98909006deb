"""Dual-valued solves, row by row: byte pins and which rows get lifted.

A dual-valued solve lowers its inputs to one real sensitivity solve and
rebuilds the payload from it.  The pins below hold the SHA-256 of every
row's primal and tangent bytes, nested components included, for
``dual_aware_solve`` and for a dual-input ``forward_sensitivity_solve``
bundle, and of ``vjp_solution`` on that bundle.  They were recorded from
the reference implementation and must not be edited to make a change pass.
"""

import hashlib

import numpy as np
import pytest

from odesens import sensitivity
from odesens.models import MODELS, fmain_hessian, lv_rhs
from odesens.scalars import Dual1, contains_dual, lift_dual, primal_values, tangent_values
from odesens.sensitivity import (
    dual_aware_solve,
    forward_sensitivity_solve,
    jacobian_provider,
    vjp_solution,
)
from odesens.solvers import EulerMethod, Points, RK23Method

LV_P = np.array([0.015, 1e-4, 0.03, 1e-4])
LV_Y0 = np.array([1000.0, 20.0])

METHODS = {"euler": EulerMethod(0.1), "rk23": RK23Method()}
GRIDS = {"grid": Points(np.linspace(0.0, 1.0, 6)), "one-point": Points(np.array([0.0])),
         # 200 Euler steps, over which a one-ulp change in a nested lowered step
         # reaches the pinned bytes, where the 10 steps of "grid" may not
         "long": Points(np.linspace(0.0, 20.0, 41))}


def _inputs(kind):
    """``(y0, p)`` lifted with one scalar seed, three vector seeds, or nested seeds."""
    x0 = np.concatenate([LV_Y0, LV_P])
    rng = np.random.default_rng(41)
    if kind == "scalar":
        x = lift_dual(x0, rng.uniform(-1.0, 1.0, 6) * x0)
    elif kind == "vector":
        x = lift_dual(x0, rng.uniform(-1.0, 1.0, (6, 3)) * x0[:, None])
    else:
        u, v = rng.uniform(-1.0, 1.0, (2, 6)) * x0
        x = np.array([Dual1(Dual1(a, b), Dual1(c, 0.0)) for a, b, c in zip(x0, u, v)], dtype=object)
    return x[:2], x[2:]


def _digest(*arrays) -> str:
    """SHA-256 over shape, dtype and bytes of every real component, nested duals included."""
    h = hashlib.sha256()

    def feed(a):
        a = np.asarray(a)
        h.update(f"{a.shape}{a.dtype}".encode())
        if contains_dual(a):
            feed(primal_values(a))
            feed(tangent_values(a))
        else:
            h.update(np.asarray(a, float).tobytes())

    for a in arrays:
        feed(a)
    return h.hexdigest()[:16]


def _adjoints(n):
    """Final-row, two-row and all-zero adjoints of an ``n``-row LV trajectory."""
    final = np.zeros((n, 2))
    final[-1] = 1.0
    out = {"final": final, "zero": np.zeros((n, 2))}
    if n > 2:
        two = np.zeros((n, 2))
        two[3] = [0.5, -2.0]
        two[-1] = [1.0, 1.0]
        out["two"] = two
    return out


# (method, input kind, grid) -> digests of dual_aware_solve(...).states, of
# vjp_solution on a dual-input forward_sensitivity_solve bundle for each
# adjoint of _adjoints, and of that bundle's states, read after the contractions
PINNED = {
    ("euler", "scalar", "grid"): ("d97909a7a7918cc9", "4ec2c143538d4d15", "15c6a23bb0b3aed9"),
    ("euler", "vector", "grid"): ("365cba743e485d6f", "a0bff8684f5836d6", "c6b3e5ab65bd057b"),
    ("euler", "nested", "grid"): ("d4cca0ee960a7404", "efe6ab71fda866f6", "8fbd036ff793899e"),
    ("euler", "scalar", "one-point"): ("2056c923da3ae4b3", "904ab5e96f3e3b34", "7675bb9c2d219046"),
    ("euler", "vector", "one-point"): ("1051685eef489685", "32464ca40a1853d8", "4cf8e00fe693ec0f"),
    ("euler", "nested", "one-point"): ("757e082e21c13993", "1c2eba4d213caf70", "cc88b7a8251a3417"),
    ("rk23", "scalar", "grid"): ("2db1947cc2933565", "ad8299bab46dc758", "5dad124aa6f1d854"),
    ("rk23", "vector", "grid"): ("13be1fe6c5322fb3", "f3713303188466d7", "141e1a02b555ca1a"),
    ("rk23", "nested", "grid"): ("60d28fb15354d143", "4ba7a9521b8d6409", "c7e69c01f65e0566"),
    ("rk23", "scalar", "one-point"): ("2056c923da3ae4b3", "904ab5e96f3e3b34", "7675bb9c2d219046"),
    ("rk23", "vector", "one-point"): ("1051685eef489685", "32464ca40a1853d8", "4cf8e00fe693ec0f"),
    ("rk23", "nested", "one-point"): ("757e082e21c13993", "1c2eba4d213caf70", "cc88b7a8251a3417"),
    ("euler", "scalar", "long"): ("633133ace96c6b6f", "b7f44c685e297af3", "8bbcc3b96c4e28bf"),
    ("euler", "vector", "long"): ("7d17bcc3b81698cc", "b57409ba735ac2c5", "00f61e0b30b5b05f"),
    ("euler", "nested", "long"): ("da3b2f5c9d7eaefe", "3d8021a52a07203f", "d87170370c5bc400"),
    ("rk23", "scalar", "long"): ("3b1289a542c99233", "657bd79ad39cbcc2", "1ec9a18920007ec6"),
    ("rk23", "vector", "long"): ("2340e1049b83029d", "7985481ea25c2067", "279eca1aae093cd7"),
    ("rk23", "nested", "long"): ("bbfba3a6c21f4333", "5d27449dc30d90de", "0392a90e3a0f6b24"),
}


def _digests(method, kind, grid):
    y0, p = _inputs(kind)
    time, method = GRIDS[grid], METHODS[method]
    traj = dual_aware_solve(lv_rhs, p, y0, time, method)
    bundle = forward_sensitivity_solve(
        lv_rhs, jacobian_provider(MODELS["lv"], "analytic"), p, y0, time, method)
    contractions = [vjp_solution(bundle, a) for a in _adjoints(len(time.times)).values()]
    return (_digest(traj.times, traj.states), _digest(*(x for pair in contractions for x in pair)),
            _digest(bundle.times, bundle.states))


@pytest.mark.parametrize("case", PINNED, ids="-".join)
def test_every_row_of_a_dual_valued_solve_is_pinned(case):
    assert _digests(*case) == PINNED[case]


@pytest.mark.parametrize("method", METHODS)
def test_an_all_zero_adjoint_gives_object_zeros(method):
    y0, p = _inputs("vector")
    time = GRIDS["grid"]
    bundle = forward_sensitivity_solve(
        lv_rhs, jacobian_provider(MODELS["lv"], "analytic"), p, y0, time, METHODS[method])
    for adjoint in vjp_solution(bundle, np.zeros((len(time.times), 2))):
        assert adjoint.dtype == object
        assert [type(v) for v in adjoint] == [int] * len(adjoint)
        assert np.all(adjoint == 0)


def test_a_for_hessian_lifts_only_the_rows_its_adjoint_reads(monkeypatch):
    # the reverse gradient's adjoint reads the final row of each of its two
    # lowered solves; the first lift seeds the 6 inputs
    lifted, contracted = [], []
    lift, jvp = sensitivity.lift_dual, sensitivity.jvp_solution

    def counted_lift(x, seed):
        lifted.append(np.shape(x))
        return lift(x, seed)

    def counted_jvp(bundle, g_y0, g_p):
        contracted.append(bundle.states.shape)
        return jvp(bundle, g_y0, g_p)

    monkeypatch.setattr(sensitivity, "lift_dual", counted_lift)
    monkeypatch.setattr(sensitivity, "jvp_solution", counted_jvp)
    fmain_hessian(LV_Y0, LV_P, Points(np.linspace(0.0, 20.0, 201)), EulerMethod(0.1), MODELS["lv"])
    assert lifted == [(6,), (1, 14), (1, 14)]
    assert contracted == [(1, 19, 14)] * 2
