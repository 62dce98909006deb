import math

import numpy as np
import pytest

from odesens.models import linear_rhs, lv_jac_p, lv_jac_y, lv_rhs
from odesens.scalars import Dual1, primal_values, tangent_part, tangent_values
from odesens.sensitivity import (
    _augmented_system,
    analytic_jacobians,
    dual_aware_solve,
    dual_jacobians,
    forward_sensitivity_solve,
    hessian_forward_over_reverse,
    jvp_solution,
    pack_state,
    unpack_state,
    vjp_solution,
)
from odesens.solvers import (
    EulerMethod,
    Points,
    RK23Method,
    Span,
    SpanModeError,
    ToleranceConfig,
    euler_solve,
)

LV_P = np.array([0.015, 1e-4, 0.03, 1e-4])
LV_Y0 = np.array([1000.0, 20.0])
LV_ANALYTIC = analytic_jacobians(lv_jac_y, lv_jac_p)


class TestPackUnpack:
    def test_layout_matches_composite_index_ranges(self):
        packed = pack_state(np.array([1.0, 2.0]), np.zeros((2, 4)), np.eye(2))
        expected = np.array([1.0, 2.0] + [0.0] * 8 + [1.0, 0.0, 0.0, 1.0])
        assert np.array_equal(packed, expected)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=2)
        v = rng.normal(size=(2, 4))
        w = rng.normal(size=(2, 2))
        y2, v2, w2 = unpack_state(pack_state(y, v, w), 2, 4)
        assert np.array_equal(y, y2)
        assert np.array_equal(v, v2)
        assert np.array_equal(w, w2)

    def test_scalar_system(self):
        packed = pack_state(np.array([3.0]), np.array([[4.0]]), np.array([[5.0]]))
        assert np.array_equal(packed, np.array([3.0, 4.0, 5.0]))

    def test_unpack_wrong_length(self):
        with pytest.raises(ValueError):
            unpack_state(np.zeros(13), 2, 4)

    def test_pack_shape_mismatch(self):
        with pytest.raises(ValueError):
            pack_state(np.zeros(2), np.zeros((3, 4)), np.eye(2))

    def test_stacked_rows_match_row_by_row(self):
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(5, 14))
        y, v, w = unpack_state(rows, 2, 4)
        assert (y.shape, v.shape, w.shape) == ((5, 2), (5, 2, 4), (5, 2, 2))
        for i in range(5):
            y_i, v_i, w_i = unpack_state(rows[i], 2, 4)
            assert np.array_equal(y[i], y_i)
            assert np.array_equal(v[i], v_i)
            assert np.array_equal(w[i], w_i)
        assert np.array_equal(pack_state(y, v, w), rows)

    def test_column_major_ordering(self):
        v = np.array([[11.0, 12.0], [21.0, 22.0]])
        packed = pack_state(np.zeros(2), v, np.eye(2))
        assert np.array_equal(packed[2:6], np.array([11.0, 21.0, 12.0, 22.0]))


class TestAugmentRhs:
    def test_lv_initial_composite_derivative(self):
        aug = _augmented_system(lv_rhs, LV_ANALYTIC, 2, 4)
        x0 = pack_state(LV_Y0, np.zeros((2, 4)), np.eye(2))
        dx = aug(0.0, x0, LV_P)
        dy, dv, dw = unpack_state(dx, 2, 4)
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
        x = pack_state(np.array([1.0, 2.0]), np.ones((2, 4)), np.ones((2, 2)))
        assert np.all(aug(0.0, x, LV_P) == 0.0)

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
        tol = ToleranceConfig(rel_tol=1e-8, abs_tol=1e-10)
        bundle = forward_sensitivity_solve(
            linear_rhs,
            dual_jacobians(),
            np.array([a]),
            np.array([y0]),
            Points(np.array([0.0, 1.0])),
            RK23Method(tol),
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

    def test_default_provider_is_dual_lifting(self):
        explicit = lv_bundle(jac=dual_jacobians())
        defaulted = lv_bundle(jac=None)
        assert np.array_equal(explicit.dy_dp, defaulted.dy_dp)
        assert np.array_equal(explicit.dy_dy0, defaulted.dy_dy0)


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


class TestEulerCommutation:
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

    def test_second_order_payload_matches_closed_form(self):
        # y' = a*y with a twice-seeded: d^2y/da^2 at t=1 is t^2*y0*e^(a t)
        a, y0 = 0.5, 2.0
        p_dual2 = np.array(
            [Dual1(Dual1(a, 1.0), Dual1(1.0, 0.0))], dtype=object
        )
        y0_dual2 = np.array(
            [Dual1(Dual1(y0, 0.0), Dual1(0.0, 0.0))], dtype=object
        )
        tol = ToleranceConfig(rel_tol=1e-8, abs_tol=1e-10)
        traj = dual_aware_solve(
            linear_rhs, p_dual2, y0_dual2, Points(np.array([0.0, 1.0])), RK23Method(tol)
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
