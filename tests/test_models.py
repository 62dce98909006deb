import numpy as np
import pytest

from odesens.models import (
    MODELS,
    LVParams,
    Scenario,
    fmain_gradient_cs,
    fmain_gradient_fd,
    fmain_gradient_forward,
    fmain_gradient_reverse,
    fmain_objective,
    format_scenario,
    get_model,
    lv_invariant,
    lv_jac_p,
    lv_jac_y,
    lv_rhs,
    parse_scenario_text,
)
from odesens.scalars import eval_jacobian_dual
from odesens.solvers import EulerMethod, Points, Span, SpanModeError, euler_solve, rk23_solve, ToleranceConfig

P = np.array([0.015, 1e-4, 0.03, 1e-4])
Y0 = np.array([1000.0, 20.0])

# objective value of the reference scenario (Euler, dt=0.1, [0,1000],
# 10001 points), computed once by this repository's own Euler path and
# pinned as a regression anchor
FMAIN_GOLDEN = 1141.6776289039733


class TestLVSystem:
    def test_rhs_at_reference_values(self):
        assert lv_rhs(0.0, Y0, P) == pytest.approx([13.0, 1.4], rel=1e-15)

    def test_extinction_fixed_point(self):
        assert np.array_equal(lv_rhs(0.0, np.array([0.0, 0.0]), P), np.zeros(2))

    def test_interior_equilibrium(self):
        # (eps2/gamma2, eps1/gamma1) = (300, 150); the quotient-and-multiply
        # round trip leaves at most an ulp-level residual
        y_eq = np.array([P[2] / P[3], P[0] / P[1]])
        assert y_eq == pytest.approx([300.0, 150.0], abs=0.0)
        residual = lv_rhs(0.0, y_eq, P)
        scale = np.array([P[0] * y_eq[0], P[2] * y_eq[1]])
        assert np.all(np.abs(residual) <= 8.0 * np.finfo(float).eps * scale)

    def test_interior_equilibrium_random_params(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            p = rng.uniform(1e-5, 2.0, 4)
            y_eq = np.array([p[2] / p[3], p[0] / p[1]])
            residual = lv_rhs(0.0, y_eq, p)
            scale = np.array([p[0] * y_eq[0], p[2] * y_eq[1]])
            assert np.all(np.abs(residual) <= 8.0 * np.finfo(float).eps * scale)

    def test_gamma_scaling_identity(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            y = rng.uniform(0.1, 2000.0, 2)
            s = rng.uniform(0.1, 10.0)
            scaled = np.array([P[0], s * P[1], P[2], s * P[3]])
            got = lv_rhs(0.0, y, scaled)
            expected = np.array([
                P[0] * y[0] - (s * P[1]) * y[1] * y[0],
                -(P[2] * y[1]) + (s * P[3]) * y[0] * y[1],
            ])
            assert got == pytest.approx(expected, rel=4e-16)


class TestLVJacobians:
    def test_state_jacobian_reference_values(self):
        assert np.array_equal(lv_jac_y(0.0, Y0, P), np.array([[0.013, -0.1], [0.002, 0.07]]))

    def test_param_jacobian_reference_values(self):
        expected = np.array([[1000.0, -20000.0, 0.0, 0.0], [0.0, 0.0, -20.0, 20000.0]])
        assert np.array_equal(lv_jac_p(0.0, Y0, P), expected)

    def test_param_jacobian_vanishes_at_origin(self):
        assert np.all(lv_jac_p(0.0, np.zeros(2), P) == 0.0)

    def test_agreement_with_dual_lifting_at_random_points(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            y = rng.uniform(0.01, 3000.0, 2)
            p = rng.uniform(1e-5, 1.0, 4)
            dual = eval_jacobian_dual(
                lambda z: lv_rhs(0.0, z[:2], z[2:]), np.concatenate([y, p])
            ).astype(float)
            analytic = np.hstack([lv_jac_y(0.0, y, p), lv_jac_p(0.0, y, p)])
            assert np.all(
                np.abs(dual - analytic) <= 1e-15 * np.maximum(np.abs(dual), np.abs(analytic))
            )


class TestInvariant:
    def test_minimum_at_equilibrium(self):
        y_eq = np.array([P[2] / P[3], P[0] / P[1]])
        base = lv_invariant(y_eq, P)
        for delta in ((1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)):
            assert lv_invariant(y_eq + np.array(delta), P) > base

    def test_rejects_nonpositive_population(self):
        with pytest.raises(ValueError):
            lv_invariant(np.array([0.0, 10.0]), P)

    def test_adaptive_solver_drifts_less_than_coarse_euler(self):
        inv0 = lv_invariant(Y0, P)
        coarse = euler_solve(lambda t, y: lv_rhs(t, y, P), Span(0.0, 1000.0), Y0, 0.1)
        drift_euler = max(abs(lv_invariant(y, P) - inv0) for y in coarse.states)
        fine = rk23_solve(
            lambda t, y: lv_rhs(t, y, P), Span(0.0, 1000.0), Y0,
            ToleranceConfig(rel_tol=1e-6, abs_tol=1e-9),
        )
        drift_rk = max(abs(lv_invariant(y, P) - inv0) for y in fine.states)
        assert drift_rk < drift_euler


class TestScenario:
    def test_defaults_are_reference_setup(self):
        sc = Scenario()
        assert sc.params_array() == pytest.approx([0.015, 1e-4, 0.03, 1e-4], abs=0.0)
        assert np.array_equal(sc.initial_state(), np.array([1000.0, 20.0]))
        assert sc.points().shape == (10001,)
        assert sc.points()[0] == 0.0 and sc.points()[-1] == 1000.0
        assert isinstance(sc.method(), EulerMethod)

    def test_round_trip_through_text(self):
        sc = Scenario(solver="rk23", t_end=123.5, n_points=77, rel_tol=1e-7)
        again = parse_scenario_text(format_scenario(sc))
        assert again == sc

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario key"):
            parse_scenario_text("eps1=0.01\nwibble=3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="cannot parse"):
            parse_scenario_text("n_points=many\n")

    def test_comments_and_blank_lines_ignored(self):
        sc = parse_scenario_text("# reference rates\neps1=0.02\n\ndt=0.5\n")
        assert sc.eps1 == 0.02
        assert sc.dt == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(solver="rk99")
        with pytest.raises(ValueError):
            Scenario(y0_1=-5.0)
        with pytest.raises(ValueError):
            LVParams(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            get_model("unknown")

    def test_positivity_checked_only_on_the_model_state(self):
        # linear reads y0_1 alone, so the unused y0_2 is not validated
        sc = Scenario(model="linear", y0_2=-1.0)
        assert np.array_equal(sc.initial_state(), np.array([1000.0]))
        with pytest.raises(ValueError, match="must be positive"):
            Scenario(model="linear", y0_1=-1.0)
        with pytest.raises(ValueError, match="must be positive"):
            Scenario(model="lv", y0_2=-1.0)

    def test_keys_follow_the_model(self):
        sc = Scenario(model="linear", eps1=0.5, y0_1=3.0)
        assert np.array_equal(sc.params_array(), np.array([0.5]))
        for name, model in MODELS.items():
            assert (model.state_dim, model.param_dim) == (len(model.state_keys), len(model.param_keys))
            assert Scenario(model=name).params_array().shape == (model.param_dim,)


class TestObjective:
    def test_initial_point_only(self):
        z = fmain_objective(Y0, P, Points(np.array([0.0])), EulerMethod(0.1))
        assert z == 2.0 * (Y0[0] + Y0[1])

    def test_zero_rhs_stub(self):
        z = fmain_objective(
            Y0, P, Points(np.linspace(0.0, 500.0, 21)), EulerMethod(0.1),
            model=MODELS["zero"],
        )
        assert z == 2.0 * np.sum(Y0)

    def test_golden_value_on_reference_scenario(self):
        z = fmain_objective(Y0, P, Points(np.linspace(0.0, 1000.0, 10001)), EulerMethod(0.1))
        assert float(z) == FMAIN_GOLDEN

    def test_requires_points_mode(self):
        with pytest.raises(SpanModeError):
            fmain_objective(Y0, P, Span(0.0, 10.0), EulerMethod(0.1))


SHORT_TIME = Points(np.linspace(0.0, 100.0, 1001))


class TestGradients:
    def test_forward_equals_reverse(self):
        fm = fmain_gradient_forward(Y0, P, SHORT_TIME, EulerMethod(0.1))
        rm = fmain_gradient_reverse(Y0, P, SHORT_TIME, EulerMethod(0.1))
        assert np.max(np.abs(fm - rm)) <= 1e-12 * np.max(np.abs(rm))

    def test_forward_equals_reverse_random_scenarios(self):
        rng = np.random.default_rng(47)
        time = Points(np.linspace(0.0, 20.0, 201))
        for _ in range(5):
            y0 = rng.uniform(10.0, 2000.0, 2)
            p = np.array([
                rng.uniform(0.005, 0.05),
                rng.uniform(1e-5, 5e-4),
                rng.uniform(0.005, 0.05),
                rng.uniform(1e-5, 5e-4),
            ])
            fm = fmain_gradient_forward(y0, p, time, EulerMethod(0.1))
            rm = fmain_gradient_reverse(y0, p, time, EulerMethod(0.1))
            assert np.max(np.abs(fm - rm)) <= 1e-12 * np.max(np.abs(rm))

    def test_modes_match_central_fd(self):
        rm = fmain_gradient_reverse(Y0, P, SHORT_TIME, EulerMethod(0.1))
        fd = fmain_gradient_fd(Y0, P, SHORT_TIME, EulerMethod(0.1))
        assert np.all(np.abs(rm - fd) <= 1e-5 * np.maximum(np.abs(rm), np.abs(fd)))

    def test_complex_step_matches_reverse(self):
        rm = fmain_gradient_reverse(Y0, P, SHORT_TIME, EulerMethod(0.1))
        cs = fmain_gradient_cs(Y0, P, SHORT_TIME, EulerMethod(0.1))
        assert np.all(np.abs(rm - cs) <= 1e-12 * np.maximum(np.abs(rm), np.abs(cs)))

    def test_zero_rhs_gradient(self):
        grad = fmain_gradient_reverse(
            Y0, P, Points(np.linspace(0.0, 50.0, 11)), EulerMethod(0.1),
            model=MODELS["zero"],
        )
        assert np.array_equal(grad, np.array([2.0, 2.0, 0.0, 0.0, 0.0, 0.0]))

    def test_ad_provider_matches_analytic_provider(self):
        analytic = fmain_gradient_reverse(Y0, P, SHORT_TIME, EulerMethod(0.1), jac="analytic")
        ad = fmain_gradient_reverse(Y0, P, SHORT_TIME, EulerMethod(0.1), jac="ad")
        assert np.max(np.abs(analytic - ad)) <= 1e-13 * np.max(np.abs(analytic))
