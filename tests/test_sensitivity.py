import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import BINDING
from odesens import sensitivity
from odesens.models import MODELS, OdeModel, linear_rhs, lv_jac_p, lv_jac_y, lv_rhs
from odesens.scalars import Dual1, lift_dual, primal_values, tangent_part, tangent_values
from odesens.sensitivity import (
    SensitivityBundle,
    _augmented_system,
    analytic_jacobians,
    dual_aware_solve,
    dual_jacobians,
    forward_sensitivity_solve,
    hessian_forward_over_reverse,
    jacobian_provider,
    jvp_solution,
    vjp_solution,
)
from odesens.solvers import (
    EulerMethod,
    Points,
    RK23Method,
    Span,
    SpanModeError,
    euler_solve,
)

LV_P = np.array([0.015, 1e-4, 0.03, 1e-4])
LV_Y0 = np.array([1000.0, 20.0])
LV_ANALYTIC = analytic_jacobians(lv_jac_y, lv_jac_p)


def _rows(y, v, w):
    """The composite row stack ``[y; V^T; W^T]``."""
    return np.concatenate([y[None], v.T, w.T])


class TestPackUnpack:
    """The composite state ravels to ``[y; vec V; vec W]``; the bundle reads it back as views."""

    def test_layout_matches_composite_index_ranges(self):
        bundle = forward_sensitivity_solve(
            lv_rhs, LV_ANALYTIC, LV_P, np.array([1.0, 2.0]), Points(np.array([0.0])),
            EulerMethod(0.1))
        assert bundle.states.shape == (1, 7, 2)
        expected = np.array([1.0, 2.0] + [0.0] * 8 + [1.0, 0.0, 0.0, 1.0])
        assert np.array_equal(bundle.states[0].ravel(), expected)

    def test_round_trip(self):
        states = np.random.default_rng(5).normal(size=(3, 7, 2))
        bundle = SensitivityBundle(np.arange(3.0), states, Points(np.arange(3.0)))
        assert (bundle.state_dim, bundle.n_params) == (2, 4)
        for block in (bundle.y, bundle.dy_dp, bundle.dy_dy0):
            assert np.shares_memory(block, states)
        for i in range(3):
            assert np.array_equal(_rows(bundle.y[i], bundle.dy_dp[i], bundle.dy_dy0[i]), states[i])

    def test_scalar_system(self):
        bundle = forward_sensitivity_solve(
            linear_rhs, dual_jacobians(), np.array([0.5]), np.array([3.0]),
            Points(np.array([0.0, 1.0])), EulerMethod(0.1))
        assert bundle.states.shape == (2, 3, 1)
        assert np.array_equal(bundle.states[0].ravel(), np.array([3.0, 0.0, 1.0]))
        last = np.array([bundle.y[1, 0], bundle.dy_dp[1, 0, 0], bundle.dy_dy0[1, 0, 0]])
        assert np.array_equal(bundle.states[1].ravel(), last)

    def test_stacked_rows_match_row_by_row(self):
        states = np.random.default_rng(6).normal(size=(5, 7, 2))
        bundle = SensitivityBundle(np.arange(5.0), states, Points(np.arange(5.0)))
        y, v, w = bundle.y, bundle.dy_dp, bundle.dy_dy0
        assert (y.shape, v.shape, w.shape) == ((5, 2), (5, 2, 4), (5, 2, 2))
        for i in range(5):
            assert np.array_equal(y[i], states[i, 0])
            assert np.array_equal(v[i], states[i, 1:5].T)
            assert np.array_equal(w[i], states[i, 5:].T)

    def test_column_major_ordering(self):
        bundle = lv_bundle()
        flat = bundle.states.reshape(11, 14)
        assert np.array_equal(
            flat[:, 2:6],
            np.column_stack([bundle.dy_dp[:, 0, 0], bundle.dy_dp[:, 1, 0],
                             bundle.dy_dp[:, 0, 1], bundle.dy_dp[:, 1, 1]]))
        for j in range(2):
            for i in range(2):
                assert np.array_equal(flat[:, 10 + 2 * j + i], bundle.dy_dy0[:, i, j])


class TestAugmentRhs:
    def test_lv_initial_composite_derivative(self):
        aug = _augmented_system(lv_rhs, LV_ANALYTIC, 2, 4)
        x0 = _rows(LV_Y0, np.zeros((2, 4)), np.eye(2))
        for x in (x0, x0.ravel()):
            dx = aug(0.0, x, LV_P)
            assert dx.shape == x.shape
            rows = dx.reshape(7, 2)
            dy, dv, dw = rows[0], rows[1:5].T, rows[5:].T
            # with V = 0 and W = I the sensitivity equations reduce to f_p and f_y
            assert dy == pytest.approx([13.0, 1.4], rel=1e-15)
            assert np.array_equal(dv, lv_jac_p(0.0, LV_Y0, LV_P))
            assert np.array_equal(dw, lv_jac_y(0.0, LV_Y0, LV_P))

    def test_zero_system(self):
        def zero(t, y, p):
            return 0.0 * np.asarray(y)

        provider = analytic_jacobians(
            lambda t, y, p: np.zeros((2, 2)), lambda t, y, p: np.zeros((2, 4))
        )
        aug = _augmented_system(zero, provider, 2, 4)
        x = _rows(np.array([1.0, 2.0]), np.ones((2, 4)), np.ones((2, 2)))
        assert np.all(aug(0.0, x, LV_P) == 0.0)
        assert np.all(aug(0.0, x.ravel(), LV_P) == 0.0)

    def test_analytic_and_dual_providers_agree(self):
        rng = np.random.default_rng(9)
        aug_an = _augmented_system(lv_rhs, LV_ANALYTIC, 2, 4)
        aug_ad = _augmented_system(lv_rhs, dual_jacobians(), 2, 4)
        for _ in range(25):
            x = np.concatenate([
                rng.uniform(1.0, 2000.0, 2),
                rng.normal(scale=1e4, size=8),
                rng.normal(scale=10.0, size=4),
            ])
            a = aug_an(0.0, x, LV_P)
            b = aug_ad(0.0, x, LV_P)
            assert np.all(np.abs(a - b) <= 1e-15 * np.maximum(np.abs(a), np.abs(b)))
            # the row stack and its ravel are the same system
            assert np.array_equal(aug_an(0.0, x.reshape(7, 2), LV_P), a.reshape(7, 2))
            assert np.array_equal(aug_ad(0.0, x.reshape(7, 2), LV_P), b.reshape(7, 2))


def _triple_rhs(t, y, p):
    s = y[0] * y[1] * y[2]
    return np.array([p[0] * s, p[1] * s, -(p[0] * s)])


def _triple_jac_y(t, y, p):
    ds = np.array([y[1] * y[2], y[0] * y[2], y[0] * y[1]])
    return np.array([p[0] * ds, p[1] * ds, -(p[0] * ds)])


def _triple_jac_p(t, y, p):
    s, zero = y[0] * y[1] * y[2], 0.0 * y[0]
    return np.array([[s, zero], [zero, s], [-s, zero]])


# Every entry of its f_y depends on p[0], so a second-order sum over q has
# m = 3 nonzero terms and its rounding depends on the order they are summed.
# In binding no such sum has more than two.
TRIPLE = OdeModel("triple", _triple_rhs, _triple_jac_y, _triple_jac_p,
                  {"u0": 1.0, "v0": 1.0, "w0": 1.0}, {"a": 1.0, "b": 1.0}, ())

_STRUCTURED_MODELS = {name: MODELS[name] for name in ("lv", "linear", "zero")}
_STRUCTURED_MODELS.update(binding=BINDING, triple=TRIPLE)
_STRUCTURED_CASES = [(name, kind) for name in _STRUCTURED_MODELS for kind in ("analytic", "ad")]
_CASE_IDS = [f"{name}-{kind}" for name, kind in _STRUCTURED_CASES]


def _augmented_of(name, kind):
    model = _STRUCTURED_MODELS[name]
    m, k = model.state_dim, len(model.params)
    return _augmented_system(model.rhs, jacobian_provider(model, kind), m, k), m, k


@pytest.mark.parametrize("case", _STRUCTURED_CASES, ids=_CASE_IDS)
@given(data=st.data())
def test_structured_jacobian_equals_dual_pass(case, data):
    aug, m, k = _augmented_of(*case)
    entries = st.floats(-1e3, 1e3)
    x = data.draw(arrays(float, (1 + k + m) * m, elements=entries), label="x")
    p = data.draw(arrays(float, k, elements=entries), label="p")
    j_x, j_p = aug.jacobians(aug, 0.0, x, p)
    expected_x, expected_p = dual_jacobians()(aug, 0.0, x, p)
    assert j_x.dtype == float and j_p.dtype == float
    # equal in value; only the sign of some exact zeros may differ
    assert np.array_equal(j_x, expected_x)
    assert np.array_equal(j_p, expected_p)


@pytest.mark.parametrize("case", _STRUCTURED_CASES, ids=_CASE_IDS)
def test_structured_jacobian_of_dual_inputs_equals_dual_pass(case):
    # one payload level deeper, where a lowered solve of nested duals calls it
    aug, m, k = _augmented_of(*case)
    rng = np.random.default_rng(5)
    x = lift_dual(rng.normal(scale=10.0, size=(1 + k + m) * m), rng.normal(size=((1 + k + m) * m, 3)))
    p = lift_dual(rng.normal(size=k), rng.normal(size=(k, 3)))
    for got, expected in zip(aug.jacobians(aug, 0.0, x, p), dual_jacobians()(aug, 0.0, x, p)):
        assert np.array_equal(primal_values(got), primal_values(expected))
        assert np.array_equal(tangent_values(got), tangent_values(expected))


def test_dual_aware_solve_lowers_an_augmented_system_with_its_own_jacobian(monkeypatch):
    providers, made = [], []
    solve, factory = sensitivity.forward_sensitivity_solve, sensitivity.dual_jacobians

    def recorded(f, jac, p, y0, time, method):
        providers.append(jac)
        return solve(f, jac, p, y0, time, method)

    def counted_factory():
        made.append(factory())
        return made[-1]

    monkeypatch.setattr(sensitivity, "forward_sensitivity_solve", recorded)
    monkeypatch.setattr(sensitivity, "dual_jacobians", counted_factory)
    aug = _augmented_system(lv_rhs, LV_ANALYTIC, 2, 4)
    time = Points(np.array([0.0, 0.2]))
    p = lift_dual(LV_P, np.eye(4))
    x0 = _rows(LV_Y0, np.zeros((2, 4)), np.eye(2)).ravel()
    dual_aware_solve(aug, p, x0, time, EulerMethod(0.1))
    assert providers == [aug.jacobians] and made == []
    # a plain right-hand side is still differentiated by a dual pass
    dual_aware_solve(lv_rhs, p, LV_Y0, time, EulerMethod(0.1))
    assert providers[1:] == made and len(made) == 1


def lv_bundle(t_end=10.0, n_points=11, dt=0.1, jac=LV_ANALYTIC):
    pts = np.linspace(0.0, t_end, n_points)
    return forward_sensitivity_solve(lv_rhs, jac, LV_P, LV_Y0, Points(pts), EulerMethod(dt))


class TestForwardSensitivitySolve:
    def test_single_point_returns_initial_conditions(self):
        bundle = forward_sensitivity_solve(
            lv_rhs, LV_ANALYTIC, LV_P, LV_Y0, Points(np.array([0.0])), EulerMethod(0.1)
        )
        assert np.array_equal(bundle.y[0], LV_Y0)
        assert np.all(bundle.dy_dp[0] == 0.0)
        assert np.array_equal(bundle.dy_dy0[0], np.eye(2))

    def test_initial_row_invariants_always_hold(self):
        bundle = lv_bundle()
        assert np.all(bundle.dy_dp[0] == 0.0)
        assert np.array_equal(bundle.dy_dy0[0], np.eye(2))

    def test_linear_model_closed_form(self):
        # y' = a*y: dy/da = t*y0*e^(a t), dy/dy0 = e^(a t)
        a, y0 = 0.5, 2.0
        bundle = forward_sensitivity_solve(
            linear_rhs,
            dual_jacobians(),
            np.array([a]),
            np.array([y0]),
            Points(np.array([0.0, 1.0])),
            RK23Method(rel_tol=1e-8, abs_tol=1e-10),
        )
        assert bundle.dy_dp[-1, 0, 0] == pytest.approx(1.0 * y0 * math.exp(a), rel=1e-6)
        assert bundle.dy_dy0[-1, 0, 0] == pytest.approx(math.exp(a), rel=1e-6)
        assert bundle.dy_dp[-1, 0, 0] == pytest.approx(3.29744254, rel=1e-6)

    def test_lv_euler_sensitivities_oscillate_with_growing_envelope(self):
        pts = np.linspace(0.0, 1000.0, 1001)
        bundle = forward_sensitivity_solve(
            lv_rhs, LV_ANALYTIC, LV_P, LV_Y0, Points(pts), EulerMethod(0.1)
        )
        first_param = bundle.dy_dp[:, 0, 0]
        # sign changes mark oscillation
        assert np.sum(np.abs(np.diff(np.sign(first_param))) > 0) >= 4
        # envelope growth: late extremes dominate early ones
        n = len(pts)
        assert np.max(np.abs(first_param[2 * n // 3:])) > 5.0 * np.max(np.abs(first_param[: n // 3]))

    def test_provider_equivalence_on_bundles(self):
        b_an = lv_bundle(jac=LV_ANALYTIC)
        b_ad = lv_bundle(jac=dual_jacobians())
        for field in ("y", "dy_dp", "dy_dy0"):
            a = getattr(b_an, field)
            b = getattr(b_ad, field)
            assert np.all(np.abs(a - b) <= 1e-14 * np.maximum(np.abs(a), np.abs(b)))

    @pytest.mark.parametrize("rhs, p, y0, shape", [
        (lv_rhs, LV_P, LV_Y0, (7, 2)),
        (linear_rhs, np.array([0.5]), np.array([3.0]), (3, 1)),
    ])
    def test_one_solve_of_the_row_stack(self, solve_shapes, rhs, p, y0, shape):
        for method in (EulerMethod(0.1), RK23Method()):
            solve_shapes.clear()
            forward_sensitivity_solve(rhs, dual_jacobians(), p, y0, Points(np.linspace(0.0, 1.0, 3)), method)
            assert solve_shapes == [shape]


class TestJvpVjp:
    def test_unit_init_seed_selects_init_sensitivity_column(self):
        bundle = lv_bundle()
        for k in range(2):
            seed = np.zeros(2)
            seed[k] = 1.0
            out = jvp_solution(bundle, seed, np.zeros(4))
            assert np.array_equal(out, bundle.dy_dy0[:, :, k])

    def test_zero_seeds_give_zero(self):
        bundle = lv_bundle()
        assert np.all(jvp_solution(bundle, np.zeros(2), np.zeros(4)) == 0.0)

    def test_seed_matrix_gives_one_direction_per_column(self):
        bundle = lv_bundle()
        seeds = np.random.default_rng(31).normal(size=(6, 3))
        out = jvp_solution(bundle, seeds[:2], seeds[2:])
        assert out.shape == (11, 2, 3)
        for j in range(3):
            assert np.array_equal(out[..., j], jvp_solution(bundle, seeds[:2, j], seeds[2:, j]))
        with pytest.raises(ValueError):
            jvp_solution(bundle, seeds[:2], seeds[2:, :2])

    def test_jvp_matches_central_fd_of_solver_map(self):
        pts = np.linspace(0.0, 10.0, 11)
        bundle = forward_sensitivity_solve(
            lv_rhs, LV_ANALYTIC, LV_P, LV_Y0, Points(pts), EulerMethod(0.1)
        )
        rng = np.random.default_rng(13)
        x0 = np.concatenate([LV_Y0, LV_P])
        scale = np.abs(x0)
        for _ in range(5):
            direction = rng.uniform(-1.0, 1.0, 6) * scale
            jvp = jvp_solution(bundle, direction[:2], direction[2:])
            h = 1e-6

            def run(x):
                traj = euler_solve(lambda t, y: lv_rhs(t, y, x[2:]), Points(pts), x[:2], 0.1)
                return traj.states

            fd = (run(x0 + h * direction) - run(x0 - h * direction)) / (2.0 * h)
            denom = max(np.max(np.abs(jvp)), 1e-30)
            assert np.max(np.abs(jvp - fd)) <= 1e-4 * denom

    def test_vjp_zero_adjoint(self):
        bundle = lv_bundle()
        a_y0, a_p = vjp_solution(bundle, np.zeros((11, 2)))
        assert np.all(a_y0 == 0.0)
        assert np.all(a_p == 0.0)

    def test_vjp_selector_extracts_sensitivity_rows(self):
        bundle = lv_bundle()
        for r, m in ((0, 0), (3, 1), (10, 0)):
            adjoint = np.zeros((11, 2))
            adjoint[r, m] = 1.0
            a_y0, a_p = vjp_solution(bundle, adjoint)
            assert np.array_equal(a_y0, bundle.dy_dy0[r, m, :])
            assert np.array_equal(a_p, bundle.dy_dp[r, m, :])

    def test_vjp_contracts_touched_rows_like_all_rows(self):
        # the all-row contraction is the reference
        def all_rows(bundle, adjoint):
            return (np.tensordot(adjoint, bundle.dy_dy0, 2), np.tensordot(adjoint, bundle.dy_dp, 2))

        bundle = lv_bundle(t_end=50.0, n_points=51)
        selector = np.zeros((51, 2))
        selector[-1] = 1.0
        for got, expected in zip(vjp_solution(bundle, selector), all_rows(bundle, selector)):
            assert got.tobytes() == expected.tobytes()
        dense = np.random.default_rng(19).normal(size=(51, 2))
        for got, expected in zip(vjp_solution(bundle, dense), all_rows(bundle, dense)):
            assert np.all(np.abs(got - expected) <= 1e-13 * np.abs(expected).max())
        # the Hessian's case: a final-row selector on a dual-valued bundle
        dual = forward_sensitivity_solve(
            lv_rhs, LV_ANALYTIC, lift_dual(LV_P, np.eye(4)), LV_Y0,
            Points(np.linspace(0.0, 2.0, 21)), EulerMethod(0.1))
        selector = np.zeros((21, 2))
        selector[-1] = 1.0
        for got, expected in zip(vjp_solution(dual, selector), all_rows(dual, selector)):
            assert primal_values(got).tobytes() == primal_values(expected).tobytes()
            assert tangent_values(got).tobytes() == tangent_values(expected).tobytes()

    def test_vjp_rejects_span_mode(self):
        bundle = forward_sensitivity_solve(
            lv_rhs, LV_ANALYTIC, LV_P, LV_Y0, Span(0.0, 10.0), EulerMethod(0.1)
        )
        with pytest.raises(SpanModeError):
            vjp_solution(bundle, np.zeros((bundle.times.shape[0], 2)))

    def test_adjoint_identity(self):
        bundle = lv_bundle(t_end=50.0, n_points=51)
        rng = np.random.default_rng(17)
        for _ in range(50):
            g_y0 = rng.normal(size=2)
            g_p = rng.normal(size=4)
            adjoint = rng.normal(size=(51, 2))
            forward = float(np.sum(adjoint * jvp_solution(bundle, g_y0, g_p)))
            a_y0, a_p = vjp_solution(bundle, adjoint)
            reverse = float(a_y0 @ g_y0 + a_p @ g_p)
            assert abs(forward - reverse) <= 1e-13 * abs(forward)


_IDENTITY_BUNDLE = lv_bundle(t_end=50.0, n_points=51)


@given(
    arrays(float, 2, elements=st.floats(-1.0, 1.0)),
    arrays(float, 4, elements=st.floats(-1.0, 1.0)),
    arrays(float, (51, 2), elements=st.floats(-1.0, 1.0)),
)
def test_jvp_vjp_bilinear_identity(g_y0, g_p, adjoint):
    # a . jvp(g) = a_y0 . g_y0 + a_p . g_p, up to the roundoff of summing every term
    bundle = _IDENTITY_BUNDLE
    forward = np.sum(adjoint * jvp_solution(bundle, g_y0, g_p))
    a_y0, a_p = vjp_solution(bundle, adjoint)
    reverse = a_y0 @ g_y0 + a_p @ g_p
    a = np.abs(adjoint)[..., None]
    terms = np.abs(a * bundle.dy_dy0 * g_y0).sum() + np.abs(a * bundle.dy_dp * g_p).sum()
    n_terms = adjoint.size * (g_y0.size + g_p.size)
    assert abs(forward - reverse) <= 2 * n_terms * np.finfo(float).eps * terms


class TestEulerCommutation:
    def test_vector_seeded_euler_equals_one_seed_solves_bitwise(self):
        pts = np.linspace(0.0, 10.0, 11)
        seeds = np.random.default_rng(37).uniform(-1.0, 1.0, (6, 4))

        def solve(s):
            p_dual = lift_dual(LV_P, s[2:])
            return euler_solve(
                lambda t, y: lv_rhs(t, y, p_dual), Points(pts), lift_dual(LV_Y0, s[:2]), 0.1
            ).states

        together = solve(seeds)
        for j in range(4):
            alone = solve(seeds[:, j])
            for row, row_j in zip(together, alone):
                assert np.array_equal(primal_values(row), primal_values(row_j))
                assert np.array_equal(tangent_values(row)[:, j], tangent_values(row_j))

    def test_dual_euler_equals_augmented_euler(self):
        # the Euler recurrence commutes with differentiation, so pushing a
        # parameter seed through the solver must match the variational solve
        pts = np.linspace(0.0, 10.0, 101)
        bundle = forward_sensitivity_solve(
            lv_rhs, LV_ANALYTIC, LV_P, LV_Y0, Points(pts), EulerMethod(0.1)
        )
        for k in range(4):
            seeds = np.zeros(4)
            seeds[k] = 1.0
            p_dual = np.array([Dual1(LV_P[i], seeds[i]) for i in range(4)], dtype=object)
            y0_dual = np.array([Dual1(v, 0.0) for v in LV_Y0], dtype=object)
            traj = euler_solve(
                lambda t, y: lv_rhs(t, y, p_dual), Points(pts), y0_dual, 0.1
            )
            tangents = np.array([[tangent_part(v) for v in row] for row in traj.states])
            expected = bundle.dy_dp[:, :, k]
            scale = np.maximum(np.abs(expected), 1.0)
            assert np.max(np.abs(tangents - expected) / scale) <= 1e-13


@given(arrays(float, 6, elements=st.floats(-1.0, 1.0)))
def test_dual_euler_equals_dual_aware_payload(seed):
    # the Euler recurrence commutes with differentiation; the primal is the
    # same float solve, the tangent is summed in a different order
    pts = np.linspace(0.0, 10.0, 11)
    y0, p = lift_dual(LV_Y0, seed[:2]), lift_dual(LV_P, seed[2:])
    direct = euler_solve(lambda t, y: lv_rhs(t, y, p), Points(pts), y0, 0.1).states
    lowered = dual_aware_solve(lv_rhs, p, y0, Points(pts), EulerMethod(0.1)).states
    for row, row_lowered in zip(direct, lowered):
        assert primal_values(row).tobytes() == primal_values(row_lowered).tobytes()
        tangent, expected = tangent_values(row), tangent_values(row_lowered)
        assert np.all(np.abs(tangent - expected) <= 1e-13 * np.maximum(np.abs(expected), 1.0))


class TestDualAwareSolve:
    def test_requires_dual_inputs(self):
        with pytest.raises(TypeError):
            dual_aware_solve(lv_rhs, LV_P, LV_Y0, Points(np.array([0.0, 1.0])), EulerMethod(0.1))

    def test_zero_payloads_preserve_primal_exactly_with_euler(self):
        pts = np.linspace(0.0, 10.0, 11)
        plain = euler_solve(lambda t, y: lv_rhs(t, y, LV_P), Points(pts), LV_Y0, 0.1)
        y0_dual = np.array([Dual1(v, 0.0) for v in LV_Y0], dtype=object)
        p_dual = np.array([Dual1(v, 0.0) for v in LV_P], dtype=object)
        traj = dual_aware_solve(lv_rhs, p_dual, y0_dual, Points(pts), EulerMethod(0.1))
        primal = np.array([primal_values(row) for row in traj.states])
        payload = np.array([tangent_values(row) for row in traj.states])
        assert np.array_equal(primal, plain.states)
        assert np.all(payload == 0.0)

    def test_unit_seed_payload_matches_variational_solve(self):
        pts = np.linspace(0.0, 10.0, 11)
        bundle = forward_sensitivity_solve(
            lv_rhs, dual_jacobians(), LV_P, LV_Y0, Points(pts), EulerMethod(0.1)
        )
        for k in range(6):
            seed = np.zeros(6)
            seed[k] = 1.0
            y0_dual = np.array([Dual1(LV_Y0[i], seed[i]) for i in range(2)], dtype=object)
            p_dual = np.array([Dual1(LV_P[i], seed[2 + i]) for i in range(4)], dtype=object)
            traj = dual_aware_solve(lv_rhs, p_dual, y0_dual, Points(pts), EulerMethod(0.1))
            payload = np.array([tangent_values(row) for row in traj.states])
            expected = (
                bundle.dy_dy0[:, :, k] if k < 2 else bundle.dy_dp[:, :, k - 2]
            )
            scale = np.maximum(np.abs(expected), 1e-30)
            mask = np.abs(expected) > 0
            assert np.max(np.abs(payload - expected)[mask] / scale[mask], initial=0.0) <= 1e-13
            assert np.max(np.abs(payload - expected)) <= 1e-13 * max(np.max(np.abs(expected)), 1.0)

    @pytest.mark.parametrize("method", [EulerMethod(0.1), RK23Method()])
    def test_vector_seeds_match_one_seed_solves_bitwise(self, method):
        pts = np.linspace(0.0, 10.0, 11)
        seeds = np.random.default_rng(29).uniform(-1.0, 1.0, (6, 3))

        def solve(s):
            return dual_aware_solve(
                lv_rhs, lift_dual(LV_P, s[2:]), lift_dual(LV_Y0, s[:2]), Points(pts), method
            ).states

        together = solve(seeds)
        for j in range(3):
            alone = solve(seeds[:, j])
            for row, row_j in zip(together, alone):
                assert np.array_equal(primal_values(row), primal_values(row_j))
                assert np.array_equal(tangent_values(row)[:, j], tangent_values(row_j))

    def test_second_order_payload_matches_closed_form(self):
        # y' = a*y with a twice-seeded: d^2y/da^2 at t=1 is t^2*y0*e^(a t)
        a, y0 = 0.5, 2.0
        p_dual2 = np.array(
            [Dual1(Dual1(a, 1.0), Dual1(1.0, 0.0))], dtype=object
        )
        y0_dual2 = np.array(
            [Dual1(Dual1(y0, 0.0), Dual1(0.0, 0.0))], dtype=object
        )
        traj = dual_aware_solve(
            linear_rhs, p_dual2, y0_dual2, Points(np.array([0.0, 1.0])),
            RK23Method(rel_tol=1e-8, abs_tol=1e-10),
        )
        out = traj.states[-1, 0]
        expected = 1.0 * y0 * math.exp(a)
        assert primal_values(primal_values(traj.states[-1]))[0] == pytest.approx(
            y0 * math.exp(a), rel=1e-7
        )
        assert out.primal.tangent == pytest.approx(expected, rel=1e-6)
        assert out.tangent.primal == pytest.approx(expected, rel=1e-6)
        assert out.tangent.tangent == pytest.approx(2.0 * math.exp(a), rel=1e-5)

    def test_second_order_mixed_payloads_symmetric(self):
        pts = np.linspace(0.0, 5.0, 6)
        rng = np.random.default_rng(23)
        x0 = np.concatenate([LV_Y0, LV_P])
        u = rng.uniform(-1.0, 1.0, 6) * np.abs(x0)
        v = rng.uniform(-1.0, 1.0, 6) * np.abs(x0)

        def mixed(u_dir, v_dir):
            lifted = [
                Dual1(Dual1(x0[i], u_dir[i]), Dual1(v_dir[i], 0.0)) for i in range(6)
            ]
            y0_d = np.array(lifted[:2], dtype=object)
            p_d = np.array(lifted[2:], dtype=object)
            traj = dual_aware_solve(lv_rhs, p_d, y0_d, Points(pts), EulerMethod(0.1))
            return np.array(
                [[tangent_part(tangent_part(s)) for s in row] for row in traj.states]
            )

        duv = mixed(u, v)
        dvu = mixed(v, u)
        scale = max(np.max(np.abs(duv)), np.max(np.abs(dvu)))
        assert np.max(np.abs(duv - dvu)) <= 1e-10 * scale


class TestHessianDriver:
    def test_quadratic_objective_exact(self):
        a = np.array([
            [2.0, 0.5, 0.0, 1.0],
            [0.5, 3.0, -1.0, 0.0],
            [0.0, -1.0, 1.5, 0.25],
            [1.0, 0.0, 0.25, 4.0],
        ])
        hess = hessian_forward_over_reverse(lambda x: a.dot(x), np.array([1.0, -2.0, 0.5, 3.0]))
        assert np.array_equal(hess, a)

    def test_constant_gradient_has_zero_hessian(self):
        hess = hessian_forward_over_reverse(lambda x: np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert np.array_equal(hess, np.zeros((2, 2)))


def _hessian_by_columns(gradient, x0):
    """The one-seed-per-column driver, kept as the reference."""
    n = x0.shape[0]
    hess = np.empty((n, n))
    for j, seed in enumerate(np.eye(n)):
        hess[:, j] = tangent_values(gradient(lift_dual(x0, seed)))
    return hess


@st.composite
def _cubic(draw):
    n = draw(st.integers(1, 4))
    coeffs = draw(st.lists(st.floats(-1.0, 1.0), min_size=n ** 3, max_size=n ** 3))
    x0 = draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))
    return np.array(coeffs).reshape(n, n, n), np.array(x0)


@given(_cubic())
def test_hessian_of_cubic_equals_column_loop_bitwise_and_is_symmetric(cubic):
    # f(x) = sum_ijk t_ijk x_i x_j x_k has gradient g_l = x^T g[l] x
    t, x0 = cubic
    g = t + t.transpose(1, 0, 2) + t.transpose(2, 0, 1)

    def gradient(x):
        return np.array([x.dot(g_l).dot(x) for g_l in g])

    hess = hessian_forward_over_reverse(gradient, x0)
    assert np.array_equal(hess, _hessian_by_columns(gradient, x0))
    assert np.all(np.abs(hess - hess.T) <= 64 * np.finfo(float).eps * max(np.max(np.abs(hess)), 1.0))
