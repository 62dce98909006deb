import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from odesens.models import lv_jac, lv_rhs
from odesens.scalars import (
    Dual1,
    complex_step_column,
    eval_jacobian_dual,
    is_finite_scalar,
    lift_dual,
    magnitude,
    primal_values,
    tangent_values,
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
        assert magnitude(Dual1(1.0, np.array([0.5, -6.0, 2.0]))) == 6.0

    def test_finiteness_covers_every_seed(self):
        assert is_finite_scalar(Dual1(1.0, np.array([0.5, 2.0])))
        assert not is_finite_scalar(Dual1(1.0, np.array([0.5, np.nan])))
        assert not is_finite_scalar(Dual1(Dual1(1.0, 0.0), np.array([0.5, np.inf])))


# numpy function, its first and its second derivative
ELEMENTARY = {
    "exp": (np.exp, np.exp),
    "log": (lambda x: 1.0 / x, lambda x: -1.0 / (x * x)),
    "sqrt": (lambda x: 0.5 / np.sqrt(x), lambda x: -0.25 / (x * np.sqrt(x))),
    "sin": (np.cos, lambda x: -np.sin(x)),
    "cos": (lambda x: -np.sin(x), lambda x: -np.cos(x)),
}


class TestElementaryFunctions:
    """``np.exp`` and the others of a dual: a float, lane or nested primal."""

    @pytest.mark.parametrize("name", list(ELEMENTARY))
    def test_value_and_derivatives(self, name):
        f, (df, d2f) = getattr(np, name), ELEMENTARY[name]
        x = 0.7
        one = f(Dual1(x, 2.0))
        assert one.primal == f(x)
        assert one.tangent == pytest.approx(2.0 * df(x), rel=1e-15)
        # a nested dual carries the second derivative
        nested = f(Dual1(Dual1(x, 1.0), Dual1(1.0, 0.0)))
        assert nested.primal.primal == f(x)
        assert nested.primal.tangent == pytest.approx(df(x), rel=1e-15)
        assert nested.tangent.primal == pytest.approx(df(x), rel=1e-15)
        assert nested.tangent.tangent == pytest.approx(d2f(x), rel=1e-14)
        # an object array of duals, each entry its own dual
        array = f(lift_dual(np.array([x, 2.0 * x]), np.array([2.0, 1.0])))
        assert primal_values(array).tolist() == [f(x), f(2.0 * x)]
        assert tangent_values(array)[0] == one.tangent

    @pytest.mark.parametrize("name", list(ELEMENTARY))
    def test_lanes_equal_their_own_duals_bitwise(self, name):
        f = getattr(np, name)
        rng = np.random.default_rng(3)
        x = rng.uniform(0.1, 5.0, 7)
        seeds = rng.normal(size=(3, 7))
        lanes = f(Dual1(x, seeds))
        for b in range(7):
            one = f(Dual1(float(x[b]), seeds[:, b]))
            assert lanes.primal[b].tobytes() == np.float64(one.primal).tobytes()
            assert lanes.tangent[:, b].tobytes() == one.tangent.tobytes()

    @pytest.mark.parametrize("name", ["log", "sqrt"])
    def test_a_zero_primal_is_a_hard_error(self, name):
        with pytest.raises(ZeroDivisionError):
            getattr(np, name)(Dual1(0.0, 1.0))
        with pytest.raises(ZeroDivisionError):
            getattr(np, name)(Dual1(np.array([1.0, 0.0]), np.ones((1, 2))))


class TestVectorTangents:
    def test_vector_seed_shape(self):
        lifted = lift_dual(np.array([1.0, 2.0]), np.array([[1.0, 0.0, 3.0], [0.0, 1.0, 4.0]]))
        assert np.array_equal(lifted[1].tangent, [0.0, 1.0, 4.0])
        with pytest.raises(ValueError):
            lift_dual(np.array([1.0, 2.0]), np.zeros((3, 2)))

    def test_constants_widen_to_the_seed_count(self):
        lifted = lift_dual(np.array([3.0, 5.0]), np.eye(2))
        out = np.array([lifted[0] * lifted[1], 7.0], dtype=object)
        assert np.array_equal(tangent_values(out), [[5.0, 3.0], [0.0, 0.0]])

    def test_values_keep_the_input_shape(self):
        grid = np.array([[1.0, -2.0], [3.0, 4.0]])
        lifted = lift_dual(grid, np.array([[5.0, 6.0], [-7.0, 8.0]]))
        lifted[1, 0] = 2.5
        primal = primal_values(lifted)
        assert primal.dtype == float and np.array_equal(primal, [[1.0, -2.0], [2.5, 4.0]])
        assert np.array_equal(tangent_values(lifted), [[5.0, 6.0], [0.0, 8.0]])
        seeds = np.arange(12.0).reshape(2, 2, 3)
        vector = lift_dual(grid, seeds)
        vector[0, 1] = 9.0
        seeds[0, 1] = 0.0
        assert np.array_equal(primal_values(vector), [[1.0, 9.0], [3.0, 4.0]])
        assert np.array_equal(tangent_values(vector), seeds)

    @pytest.mark.parametrize("entries", [
        # every entry a dual of a float, the output of a one-point dual pass
        [Dual1(-0.0, 1.0), Dual1(2.5, np.ones(3))],
        # a constant among the duals
        [Dual1(1.0), 7.0],
        # int and numpy-float primals keep their own dtype
        [Dual1(1), Dual1(2)],
        [Dual1(np.float32(1.5)), Dual1(2.0)],
        # a nested dual and a lane dual
        [Dual1(Dual1(1.0, 2.0)), Dual1(3.0)],
        [Dual1(np.array([1.0, 2.0])), Dual1(np.array([3.0, -0.0]))],
        [],
    ], ids=["floats", "constant", "ints", "float32", "nested", "lanes", "empty"])
    def test_values_of_a_vector_equal_those_of_each_entry(self, entries):
        arr = np.empty(len(entries), dtype=object)
        arr[:] = entries
        expected = [e.primal if isinstance(e, Dual1) else e for e in entries]
        primal = primal_values(arr)
        if any(isinstance(v, Dual1) for v in expected):
            assert primal.dtype == object and all(p is q for p, q in zip(primal, expected))
        else:
            reference = np.array([np.broadcast_to(v, np.shape(expected[0])) for v in expected])
            assert primal.dtype == reference.dtype and primal.tobytes() == reference.tobytes()

    def test_values_of_nested_duals_peel_one_level(self):
        inner = lift_dual(np.array([[1.0, 2.0], [3.0, 4.0]]), np.ones((2, 2, 3)))
        outer = lift_dual(inner, np.full((2, 2, 5), 0.5))
        primal, tangent = primal_values(outer), tangent_values(outer)
        assert primal.shape == (2, 2) and all(p is q for p, q in zip(primal.flat, inner.flat))
        assert tangent.shape == (2, 2, 5) and np.all(tangent == 0.5)

    def test_jacobian_is_one_pass(self):
        calls = []

        def counted(z):
            calls.append(z)
            return lv_joint(z)

        eval_jacobian_dual(counted, np.concatenate([LV_Y, LV_P]))
        assert len(calls) == 1

    def test_constant_function_has_zero_jacobian(self):
        x = np.array([1.0, 2.0])
        jac = eval_jacobian_dual(lambda z: np.array([1.0, 2.0, 3.0]), x)
        assert np.array_equal(jac, np.zeros((3, 2)))
        # a 2-D output keeps its shape and gains the seed axis, constant or not
        jac = eval_jacobian_dual(lambda z: np.ones((2, 3)), x)
        assert np.array_equal(jac, np.zeros((2, 3, 2)))
        jac = eval_jacobian_dual(lambda z: np.outer(z, np.ones(3)), x)
        assert np.array_equal(jac, np.eye(2)[:, None, :] * np.ones((2, 3, 2)))


class TestLanePass:
    """A ``(n, lanes)`` input takes one pass of lane duals, each lane bitwise its own pass."""

    def test_lanes_equal_their_own_passes_bitwise(self):
        rng = np.random.default_rng(3)
        z = np.concatenate([LV_Y, LV_P])[:, None] * rng.uniform(0.5, 1.5, (6, 5))
        primals = []

        def lv_and_constant(x):
            out = np.append(lv_joint(x), 4.0)
            primals.append(primal_values(out))
            return out

        jac = eval_jacobian_dual(lv_and_constant, z)
        assert jac.shape == (3, 6, 5) and len(primals) == 1
        # the constant output fills its lanes, in the primal and as zero tangents
        assert np.array_equal(primals[0][2], np.full(5, 4.0))
        assert np.all(jac[2] == 0.0)
        for b in range(5):
            assert jac[..., b].tobytes() == eval_jacobian_dual(lv_and_constant, z[:, b]).tobytes()
            assert primals[0][:, b].tobytes() == primals[-1].tobytes()

    def test_zero_primal_in_one_lane_is_hard_error(self):
        x = np.array([[1.0, 0.0, 2.0], [3.0, 4.0, 5.0]])
        with pytest.raises(ZeroDivisionError):
            eval_jacobian_dual(lambda z: np.array([z[1] / z[0]]), x)
        with pytest.raises(ZeroDivisionError):
            eval_jacobian_dual(lambda z: np.array([1.0 / z[0]]), x)
        # no lane is zero: the pass divides
        jac = eval_jacobian_dual(lambda z: np.array([1.0 / z[1]]), x)
        assert np.array_equal(jac[0, 1], -1.0 / x[1] ** 2)


_LV_POINT = st.tuples(
    st.lists(st.floats(1e-3, 1e4), min_size=2, max_size=2),
    st.lists(st.floats(1e-6, 1.0), min_size=4, max_size=4),
)


@given(_LV_POINT)
def test_vector_seeded_jacobian_equals_columns_and_analytic_bitwise(point):
    y, p = (np.array(v) for v in point)
    z = np.concatenate([y, p])
    jac = eval_jacobian_dual(lv_joint, z)
    columns = np.column_stack([tangent_values(lv_joint(lift_dual(z, seed))) for seed in np.eye(6)])
    assert np.array_equal(jac, columns)
    assert np.array_equal(jac, lv_jac(0.0, y, p))


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
        out = lv_joint(lift_dual(x, seed))
        value, tangent = primal_values(out), tangent_values(out)
        assert value == pytest.approx([13.0, 1.4], rel=1e-15)
        assert tangent == pytest.approx([0.013, 0.002], rel=1e-15)

    def test_zero_seed_gives_zero_tangent(self):
        x = np.concatenate([LV_Y, LV_P])
        tangent = tangent_values(lv_joint(lift_dual(x, np.zeros(6))))
        assert np.all(tangent == 0.0)

    def test_product_function(self):
        z = lift_dual(np.array([3.0, 5.0]), np.array([1.0, 0.0]))
        out = np.array([z[0] * z[1]])
        value, tangent = primal_values(out), tangent_values(out)
        assert value[0] == 15.0
        assert tangent[0] == 5.0

    def test_seed_length_mismatch(self):
        with pytest.raises(ValueError):
            lift_dual(np.zeros(6), np.zeros(5))

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
            expected = lv_jac(0.0, y, p)
            assert np.all(np.abs(jac - expected) <= 1e-15 * np.maximum(np.abs(jac), np.abs(expected)))


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
        with pytest.raises(IndexError):
            complex_step_column(lambda z: z, np.array([1.0]), np.array([0, 3]))

    def test_an_index_array_gives_its_columns_from_one_call(self):
        calls = []

        def counted(z):
            calls.append(z.shape)
            return np.array([2.0 * z[1], 3.0 * z[4]])

        cols = complex_step_column(counted, np.concatenate([LV_Y, LV_P]), np.array([4, 1, 4]))
        assert calls == [(6, 3)]
        assert np.array_equal(cols, [[0.0, 2.0, 0.0], [3.0, 0.0, 3.0]])

    def test_lv_all_six_columns_match_analytic(self):
        x = np.concatenate([LV_Y, LV_P])
        expected = lv_jac(0.0, LV_Y, LV_P)
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
                tangent = tangent_values(poly(lift_dual(x, seed)))
                col = complex_step_column(poly, x, k)
                assert np.all(np.abs(col - tangent)
                              <= 1e-14 * np.maximum(np.abs(tangent), 1e-30))
