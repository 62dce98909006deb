import numpy as np
import pytest

from odesens.diffmethods import (
    CROSS_METHODS,
    central_fd_jacobian,
    cross_compare,
    cs_jacobian,
    fd_jacobian,
    relative_error,
    sensitivity_matrix,
    trajectory_map,
)
from odesens.models import Scenario, get_model
from odesens.solvers import EulerMethod, Span, SpanModeError

SMALL = Scenario(t_end=50.0, n_points=501)


class TestFdJacobian:
    def test_integer_affine_map_is_exact(self):
        a = np.array([[2.0, -1.0, 3.0], [0.0, 4.0, 1.0]])

        def g(x):
            return a @ x

        jac = fd_jacobian(g, np.ones(3))
        assert np.all(np.abs(jac - a) <= 1e-12 * np.abs(a).max())

    def test_square_at_one(self):
        jac = fd_jacobian(lambda x: np.array([x[0] * x[0]]), np.array([1.0]))
        assert abs(jac[0, 0] - 2.0) <= 3e-8


@pytest.mark.parametrize("jacobian, n_columns", [(fd_jacobian, 4), (central_fd_jacobian, 6)])
def test_g_is_called_once_on_every_point(jacobian, n_columns):
    inputs = []

    def g(x):
        inputs.append(x.copy())
        return np.array([x[0] * x[1], x[2] ** 2])

    x = np.array([1.0, -2.0, 0.0])
    jac = jacobian(g, x)
    assert [a.shape for a in inputs] == [(3, n_columns)]
    # every column differs from x in at most one coordinate
    assert np.all(np.sum(inputs[0] != x[:, None], axis=0) <= 1)
    assert np.abs(jac - np.array([[-2.0, 1.0, 0.0], [0.0, 0.0, 0.0]])).max() <= 1e-7


class TestCentralFdJacobian:
    def test_quadratic_is_exact_to_roundoff(self):
        jac = central_fd_jacobian(lambda x: np.array([x[0] * x[0], 3.0 * x[1]]), np.array([1.0, 0.0]))
        assert np.all(np.abs(jac - np.array([[2.0, 0.0], [0.0, 3.0]])) <= 1e-8)

    def test_relative_step_factor(self):
        x = np.array([4.0, 0.0])
        jac = central_fd_jacobian(lambda x: x ** 3, x, 1e-3)
        # central differences of x^3 carry exactly the truncation term h^2
        assert jac[0, 0] == pytest.approx(48.0 + (4e-3) ** 2, rel=1e-9)
        assert jac[1, 1] == pytest.approx((1e-3) ** 2, rel=1e-6)


class TestCsJacobian:
    def test_polynomial_exact(self):
        def g(x):
            return np.array([x[0] ** 3 - 2.0 * x[0] * x[1], x[1] ** 2])

        x = np.array([1.5, -0.5])
        jac = cs_jacobian(g, x)
        expected = np.array([
            [3.0 * x[0] ** 2 - 2.0 * x[1], -2.0 * x[0]],
            [0.0, 2.0 * x[1]],
        ])
        assert np.all(np.abs(jac - expected) <= 1e-15 * np.maximum(np.abs(expected), 1.0))

    def test_constant_gives_zero(self):
        jac = cs_jacobian(lambda x: np.array([7.0 + 0.0 * x[0]]), np.array([2.0, 3.0]))
        assert np.all(jac == 0.0)

    def test_agrees_with_fd_on_smooth_function(self):
        def g(x):
            return np.array([x[0] * x[1] / (1.0 + x[2] ** 2), x[0] ** 2 - x[1]])

        x = np.array([1.2, 0.8, 0.5])
        fd = fd_jacobian(g, x)
        cs = cs_jacobian(g, x)
        assert np.all(np.abs(fd - cs) <= 1e-6 * np.maximum(np.abs(cs), 1.0))


class TestRelativeError:
    def test_zero_on_equal_inputs(self):
        a = np.arange(6.0).reshape(2, 3)
        assert relative_error(a, a) == 0.0

    def test_scalar_case(self):
        assert relative_error(np.array([1.0]), np.array([1.0 + 1e-6])) == pytest.approx(
            1e-6, rel=1e-3
        )

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(4, 5))
        assert relative_error(a, b) == relative_error(b, a)

    def test_both_zero(self):
        assert relative_error(np.zeros((2, 2)), np.zeros((2, 2))) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            relative_error(np.zeros((2, 2)), np.zeros((2, 3)))


class TestTrajectoryMap:
    def test_span_mode_rejected(self):
        with pytest.raises(SpanModeError):
            trajectory_map(get_model("lv"), Span(0.0, 10.0), EulerMethod(0.1))

    def test_flattening_is_column_major_over_time(self):
        sc = Scenario(t_end=1.0, n_points=3)
        g = trajectory_map(sc.ode_model(), sc.time_spec(), sc.method())
        x0 = np.concatenate([sc.initial_state(), sc.params_array()])
        flat = g(x0)
        assert flat.shape == (6,)
        # first block is the prey series, second the predator series
        assert flat[0] == 1000.0
        assert flat[3] == 20.0


class TestCrossCompare:
    def test_table_structure(self):
        table = cross_compare(SMALL)
        assert table.methods == CROSS_METHODS
        entries = list(table.entries())
        assert len(entries) == 6
        assert np.all(np.diag(table.errors) == 0.0)

    def test_analytic_vs_ad_identical(self):
        table = cross_compare(SMALL)
        assert table.pair("analytic", "ad") <= 1e-13

    def test_pair_is_order_insensitive(self):
        table = cross_compare(SMALL)
        assert table.pair("fd", "analytic") == table.pair("analytic", "fd")

    def test_solver_override(self):
        euler_default = cross_compare(SMALL)
        rk_override = cross_compare(SMALL.with_updates(solver="rk23"))
        assert rk_override.pair("analytic", "fd") != euler_default.pair("analytic", "fd")

    def test_euler_complex_step_tracks_variational_solve(self):
        table = cross_compare(SMALL)
        assert table.pair("analytic", "cs") <= 1e-12

    def test_sensitivity_matrix_shapes_align(self):
        mats = {name: sensitivity_matrix(SMALL, name) for name in CROSS_METHODS}
        shapes = {m.shape for m in mats.values()}
        assert shapes == {(2 * 501, 6)}

    @pytest.mark.parametrize("solver, method_name, shapes", [
        ("euler", "fd", [(2, 7)]),
        ("rk23", "fd", [(2,)] * 7),
        ("euler", "cs", [(2,)] * 6),
        ("rk23", "cs", [(2,)] * 6),
    ])
    def test_numerical_matrix_solves(self, solve_shapes, solver, method_name, shapes):
        # Euler runs the seven FD points as lanes of one solve; RK23 and the
        # complex step run one solve per column
        sc = Scenario(t_end=2.0, n_points=21, solver=solver)
        jac = sensitivity_matrix(sc, method_name)
        assert jac.shape == (42, 6)
        assert solve_shapes == shapes

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            sensitivity_matrix(SMALL, "wavelets")
