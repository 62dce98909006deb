import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from odesens.diffmethods import (
    CROSS_METHODS,
    central_fd_jacobian,
    cross_compare,
    cs_jacobian,
    fd_jacobian,
    relative_error,
    sensitivity_matrix,
    solve_columns,
    trajectory_map,
)
from odesens.models import OdeModel, Scenario, fmain_gradient_cs, get_model
from odesens.solvers import (
    EulerMethod,
    NonFiniteStateError,
    Points,
    RK23Method,
    Span,
    SpanModeError,
    _FinalRow,
)

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


@pytest.mark.parametrize("jacobian, n_columns", [
    (fd_jacobian, 4), (central_fd_jacobian, 6), (cs_jacobian, 3)])
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
    # each complex-step column carries one imaginary step, a differenced one none
    assert np.all(np.count_nonzero(inputs[0].imag, axis=0) == (jacobian is cs_jacobian))
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
        assert list(table) == list(itertools.combinations(CROSS_METHODS, 2))
        assert all(type(err) is float for err in table.values())

    def test_analytic_vs_ad_identical(self):
        table = cross_compare(SMALL)
        assert table["analytic", "ad"] <= 1e-13

    def test_pair_is_order_insensitive(self):
        # the table keeps each unordered pair once, as the error is symmetric
        table = cross_compare(SMALL)
        fd = sensitivity_matrix(SMALL, "fd")
        analytic = sensitivity_matrix(SMALL, "analytic")
        assert relative_error(fd, analytic) == table["analytic", "fd"]
        assert relative_error(analytic, fd) == table["analytic", "fd"]

    def test_solver_override(self):
        euler_default = cross_compare(SMALL)
        rk_override = cross_compare(SMALL.with_updates(solver="rk23"))
        assert rk_override["analytic", "fd"] != euler_default["analytic", "fd"]

    def test_euler_complex_step_tracks_variational_solve(self):
        table = cross_compare(SMALL)
        assert table["analytic", "cs"] <= 1e-12

    def test_sensitivity_matrix_shapes_align(self):
        mats = {name: sensitivity_matrix(SMALL, name) for name in CROSS_METHODS}
        shapes = {m.shape for m in mats.values()}
        assert shapes == {(2 * 501, 6)}

    @pytest.mark.parametrize("solver, method_name, shapes", [
        ("euler", "fd", [(2, 7)]),
        ("rk23", "fd", [(2, 7)]),
        ("euler", "cs", [(2, 6)]),
        ("rk23", "cs", [(2, 6)]),
    ])
    def test_numerical_matrix_solves(self, solve_shapes, solver, method_name, shapes):
        # both integrators run the seven FD points as lanes of one solve, and the
        # six complex ones so too
        sc = Scenario(t_end=2.0, n_points=21, solver=solver)
        jac = sensitivity_matrix(sc, method_name)
        assert jac.shape == (42, 6)
        assert solve_shapes == shapes

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            sensitivity_matrix(SMALL, "wavelets")


def _divide_and_square(t, y, p):
    # written per component, so a one-column solve takes scalar complex arithmetic
    return np.array([p[0] * y[0] / (1.0 + p[1] * y[1]), -(p[2] - p[3] * y[0] ** 2) * y[1]])


# solve_columns reads no Jacobian
DIVIDE_AND_SQUARE = OdeModel(_divide_and_square, None, {"y0_1": 0.5, "y0_2": 0.5},
                             dict.fromkeys("abcd", 0.5), ())


@st.composite
def _complex_columns(draw):
    """Complex columns ``(y0 || p)`` whose denominators stay away from zero, and a step."""
    n_lanes = draw(st.integers(1, 4))
    real = draw(arrays(float, (6, n_lanes), elements=st.floats(0.1, 1.0)))
    imag = draw(arrays(float, (6, n_lanes), elements=st.floats(-0.3, 0.3)))
    return real + 1j * imag, draw(st.floats(0.05, 0.5))


@given(_complex_columns())
def test_complex_euler_lanes_equal_their_one_column_solves_bitwise(case):
    # numpy's complex128 scalars and Python's complex divide differently, so
    # lanes of the wrong scalar would differ from the one-column solves
    x, dt = case
    grid = np.linspace(0.0, 1.0, 6)
    for time in (Points(grid), _FinalRow(grid)):
        lanes = solve_columns(DIVIDE_AND_SQUARE, time, EulerMethod(dt), x)
        assert lanes.dtype == complex
        for b in range(x.shape[1]):
            one = solve_columns(DIVIDE_AND_SQUARE, time, EulerMethod(dt), x[:, b])
            assert lanes[..., b].tobytes() == one.tobytes()


@pytest.mark.parametrize("final_row", [False, True])
def test_a_failing_complex_lane_names_the_step_of_its_one_column_solve(final_row):
    # y' = p y^2 overflows within a few steps, the faster lane first; no Jacobian is read
    model = OdeModel(lambda t, y, p: np.array([p[0] * y[0] * y[0]]), None,
                     {"y": 1.0}, {"p": 1.0}, ())
    grid = np.linspace(0.0, 20.0, 201)
    time = _FinalRow(grid) if final_row else Points(grid)
    x = np.array([[1.0 + 1e-3j, 1.0], [5.0, 50.0 + 1e-3j]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteStateError) as one:
            solve_columns(model, time, EulerMethod(0.1), x[:, 1])
        with pytest.raises(NonFiniteStateError) as lanes:
            solve_columns(model, time, EulerMethod(0.1), x)
    assert str(lanes.value) == str(one.value)


def _exp_of_state(t, y, p):
    return np.array([-p[0] * y[0], p[1] * np.exp(-y[1]) * y[0]])


@pytest.mark.parametrize("method", [EulerMethod(0.1), RK23Method()], ids=["euler", "rk23"])
def test_a_numpy_function_of_the_state_has_no_complex_step(method):
    # the complex step steps numpy complex128 scalars under either integrator,
    # which have no exp method for np.exp to call
    model = OdeModel(_exp_of_state, None, {"y0_1": 1.0, "y0_2": 0.5}, {"k": 0.3, "r": 0.7}, ())
    y0, p, time = np.array([1.0, 0.5]), np.array([0.3, 0.7]), Points(np.linspace(0.0, 2.0, 21))
    with pytest.raises(TypeError, match="exp"):
        fmain_gradient_cs(y0, p, time, method, model=model)
