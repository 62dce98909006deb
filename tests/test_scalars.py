import numpy as np
import pytest

from odesens.models import lv_jac_p, lv_jac_y, lv_rhs
from odesens.scalars import (
    Dual1,
    complex_step_column,
    eval_jacobian_dual,
    eval_jvp_dual,
    eval_second_directional,
    magnitude,
)

LV_P = np.array([0.015, 1e-4, 0.03, 1e-4])
LV_Y = np.array([1000.0, 20.0])


def lv_joint(z):
    return lv_rhs(0.0, z[:2], z[2:])


class TestDualArithmetic:
    def test_product_rule(self):
        a = Dual1(3.0, 1.0)
        b = Dual1(5.0, 0.0)
        c = a * b
        assert c.primal == 15.0
        assert c.tangent == 5.0

    def test_constant_lift_has_zero_tangent(self):
        x = Dual1(2.0, 1.0)
        y = x + 7.0
        assert y.tangent == 1.0
        z = 7.0 * x
        assert z.tangent == 7.0

    def test_division_matches_quotient_rule(self):
        x = Dual1(2.0, 1.0)
        y = Dual1(4.0, 3.0)
        q = x / y
        assert q.primal == 0.5
        assert q.tangent == pytest.approx((1.0 * 4.0 - 2.0 * 3.0) / 16.0, rel=1e-15)

    def test_division_by_zero_primal_is_hard_error(self):
        with pytest.raises(ZeroDivisionError):
            Dual1(1.0, 1.0) / Dual1(0.0, 2.0)
        with pytest.raises(ZeroDivisionError):
            1.0 / Dual1(0.0, 2.0)
        nested = Dual1(Dual1(0.0, 1.0), Dual1(1.0, 0.0))
        with pytest.raises(ZeroDivisionError):
            Dual1(1.0, 0.0) / nested

    def test_magnitude_covers_payload(self):
        assert magnitude(Dual1(1.0, -3.0)) == 3.0
        assert magnitude(Dual1(Dual1(1.0, 2.0), Dual1(0.5, -4.0))) == 4.0
        assert magnitude(3 + 4j) == 5.0


# Random compositions of +, -, *, / with an independent recursive
# differentiation oracle; the two associate the chain rule differently,
# so agreement is a real floating-point statement.

def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return ("var", int(rng.integers(0, 3)))
        return ("const", float(rng.uniform(0.5, 3.0)))
    op = rng.choice(["add", "sub", "mul", "div"])
    return (op, _random_expr(rng, depth - 1), _random_expr(rng, depth - 1))


def _eval_expr(expr, x):
    kind = expr[0]
    if kind == "var":
        return x[expr[1]]
    if kind == "const":
        return expr[1]
    a = _eval_expr(expr[1], x)
    b = _eval_expr(expr[2], x)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    return a / b


def _eval_deriv(expr, x, dx):
    kind = expr[0]
    if kind == "var":
        return dx[expr[1]]
    if kind == "const":
        return 0.0
    a = _eval_expr(expr[1], x)
    b = _eval_expr(expr[2], x)
    da = _eval_deriv(expr[1], x, dx)
    db = _eval_deriv(expr[2], x, dx)
    if kind == "add":
        return da + db
    if kind == "sub":
        return da - db
    if kind == "mul":
        return da * b + a * db
    return da / b - (a * db) / (b * b)


def test_random_compositions_match_analytic_derivative_to_4_ulps():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        expr = _random_expr(rng, 4)
        x = rng.uniform(0.5, 2.0, 3)
        dx = rng.uniform(-1.0, 1.0, 3)
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                value = _eval_expr(expr, x)
                deriv = _eval_deriv(expr, x, dx)
        except ZeroDivisionError:
            continue
        if not (np.isfinite(value) and np.isfinite(deriv)) or abs(value) > 1e6:
            continue
        lifted = _eval_expr(expr, [Dual1(x[i], dx[i]) for i in range(3)])
        tangent = lifted.tangent if isinstance(lifted, Dual1) else 0.0
        tol = 4.0 * np.spacing(max(abs(deriv), abs(value), 1.0))
        assert abs(tangent - deriv) <= tol
        checked += 1


class TestJvpAndJacobian:
    def test_lv_jvp_first_state_column(self):
        # seed e1 on the state block picks the first column of the state Jacobian
        x = np.concatenate([LV_Y, LV_P])
        seed = np.zeros(6)
        seed[0] = 1.0
        value, tangent = eval_jvp_dual(lv_joint, x, seed)
        assert value == pytest.approx([13.0, 1.4], rel=1e-15)
        assert tangent == pytest.approx([0.013, 0.002], rel=1e-15)

    def test_zero_seed_gives_zero_tangent(self):
        x = np.concatenate([LV_Y, LV_P])
        _, tangent = eval_jvp_dual(lv_joint, x, np.zeros(6))
        assert np.all(tangent == 0.0)

    def test_product_function(self):
        value, tangent = eval_jvp_dual(
            lambda z: np.array([z[0] * z[1]]), np.array([3.0, 5.0]), np.array([1.0, 0.0])
        )
        assert value[0] == 15.0
        assert tangent[0] == 5.0

    def test_seed_length_mismatch(self):
        with pytest.raises(ValueError):
            eval_jvp_dual(lv_joint, np.zeros(6), np.zeros(5))

    def test_lv_jacobian_state_block(self):
        jac = eval_jacobian_dual(lambda y: lv_rhs(0.0, y, LV_P), LV_Y)
        assert jac == pytest.approx(np.array([[0.013, -0.1], [0.002, 0.07]]), rel=1e-15)

    def test_lv_jacobian_param_block(self):
        jac = eval_jacobian_dual(lambda p: lv_rhs(0.0, LV_Y, p), LV_P)
        expected = np.array([[1000.0, -20000.0, 0.0, 0.0], [0.0, 0.0, -20.0, 20000.0]])
        assert np.allclose(jac.astype(float), expected, rtol=1e-15, atol=0.0)

    def test_identity_map(self):
        jac = eval_jacobian_dual(lambda z: z, np.array([1.0, 2.0, 3.0]))
        assert np.array_equal(jac.astype(float), np.eye(3))

    def test_matches_analytic_lv_jacobians_at_random_points(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            y = rng.uniform(0.01, 3000.0, 2)
            p = rng.uniform(1e-5, 1.0, 4)
            jac = eval_jacobian_dual(lambda z: lv_rhs(0.0, z[:2], z[2:]),
                                     np.concatenate([y, p])).astype(float)
            expected = np.hstack([lv_jac_y(0.0, y, p), lv_jac_p(0.0, y, p)])
            assert np.all(np.abs(jac - expected) <= 1e-15 * np.maximum(np.abs(jac), np.abs(expected)))


class TestSecondDirectional:
    def test_square(self):
        value, du, dv, duv = eval_second_directional(
            lambda z: np.array([z[0] * z[0]]), np.array([3.0]), np.array([1.0]), np.array([1.0])
        )
        assert (value[0], du[0], dv[0], duv[0]) == (9.0, 6.0, 6.0, 2.0)

    def test_linear_has_zero_curvature(self):
        value, du, dv, duv = eval_second_directional(
            lambda z: np.array([2.0 * z[0] - z[1]]),
            np.array([1.0, 4.0]), np.array([0.3, 0.7]), np.array([-1.0, 2.0]),
        )
        assert duv[0] == 0.0

    def test_mixed_partial_of_product(self):
        _, _, _, duv = eval_second_directional(
            lambda z: np.array([z[0] * z[1]]),
            np.array([2.0, 7.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0]),
        )
        assert duv[0] == 1.0

    def test_symmetry_under_direction_swap(self):
        rng = np.random.default_rng(11)

        def smooth(z):
            return np.array([z[0] * z[1] / (1.0 + z[2] * z[2]), z[0] * z[0] * z[2] + z[1]])

        for _ in range(20):
            x = rng.uniform(0.5, 2.0, 3)
            u = rng.uniform(-1.0, 1.0, 3)
            v = rng.uniform(-1.0, 1.0, 3)
            _, _, _, duv = eval_second_directional(smooth, x, u, v)
            _, _, _, dvu = eval_second_directional(smooth, x, v, u)
            scale = np.maximum(np.abs(duv), np.abs(dvu))
            assert np.all(np.abs(duv - dvu) <= 1e-13 * np.maximum(scale, 1e-30))


class TestComplexStep:
    def test_square(self):
        col = complex_step_column(lambda z: np.array([z[0] * z[0]]), np.array([3.0]), 0)
        assert col[0] == pytest.approx(6.0, rel=1e-15)

    def test_constant_function(self):
        col = complex_step_column(lambda z: np.array([4.0 + 0.0 * z[0], 1.0 + 0.0 * z[1]]),
                                  np.array([1.0, 2.0]), 1)
        assert np.all(col == 0.0)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            complex_step_column(lambda z: z, np.array([1.0]), 3)

    def test_lv_all_six_columns_match_analytic(self):
        x = np.concatenate([LV_Y, LV_P])
        expected = np.hstack([lv_jac_y(0.0, LV_Y, LV_P), lv_jac_p(0.0, LV_Y, LV_P)])
        for k in range(6):
            col = complex_step_column(lv_joint, x, k)
            assert np.all(np.abs(col - expected[:, k])
                          <= 1e-14 * np.maximum(np.abs(expected[:, k]), 1e-30))

    def test_matches_dual_jvp_on_polynomials(self):
        rng = np.random.default_rng(3)

        def poly(z):
            return np.array([z[0] ** 3 + 2.0 * z[1] * z[2], z[1] * z[1] - z[0] * z[2]])

        for _ in range(20):
            x = rng.uniform(-2.0, 2.0, 3)
            for k in range(3):
                seed = np.zeros(3)
                seed[k] = 1.0
                _, tangent = eval_jvp_dual(poly, x, seed)
                col = complex_step_column(poly, x, k)
                assert np.all(np.abs(col - tangent)
                              <= 1e-14 * np.maximum(np.abs(tangent), 1e-30))
