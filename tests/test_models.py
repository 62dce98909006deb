import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import BINDING
from odesens import models, sensitivity
from odesens.models import (
    MODELS,
    SOLVERS,
    Scenario,
    fmain_gradient_cs,
    fmain_gradient_fd,
    fmain_gradient_forward,
    fmain_gradient_reverse,
    fmain_hessian,
    fmain_objective,
    format_scenario,
    get_model,
    lv_invariant,
    lv_jac_p,
    lv_jac_y,
    lv_rhs,
    parse_scenario_text,
)
from odesens.scalars import Dual1, contains_dual, eval_jacobian_dual
from odesens.solvers import (
    EulerMethod, Points, RK23Method, Span, SpanModeError, euler_solve, rk23_solve,
)

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
            RK23Method(rel_tol=1e-6, abs_tol=1e-9),
        )
        drift_rk = max(abs(lv_invariant(y, P) - inv0) for y in fine.states)
        assert drift_rk < drift_euler


class TestScenario:
    def test_defaults_are_reference_setup(self):
        sc = Scenario()
        assert sc.params_array() == pytest.approx([0.015, 1e-4, 0.03, 1e-4], abs=0.0)
        assert np.array_equal(sc.initial_state(), np.array([1000.0, 20.0]))
        times = sc.time_spec().times
        assert times.shape == (10001,)
        assert times[0] == 0.0 and times[-1] == 1000.0
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

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="line 2: duplicate scenario key 'dt'"):
            parse_scenario_text("dt=0.1\ndt=0.5\n")

    @pytest.mark.parametrize("field, value", [
        ("t_end", math.inf), ("eps1", math.inf), ("y0_1", math.nan),
        ("dt", math.nan), ("rel_tol", math.nan), ("t0", -math.inf),
    ])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            Scenario().with_updates(**{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("n_points", 2.5, "n_points must be an integer, got 2.5"),
        ("rel_tol", -1.0, "rel_tol must be positive, got -1.0"),
        ("abs_tol", 0.0, "abs_tol must be positive, got 0.0"),
        ("dt", -0.5, "dt must be positive, got -0.5"),
    ])
    def test_bad_run_setting_rejected_naming_it(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Scenario(**{field: value})

    def test_numpy_integer_n_points_accepted(self):
        assert Scenario(n_points=np.int64(3)).time_spec().times.shape == (3,)

    def test_comments_and_blank_lines_ignored(self):
        sc = parse_scenario_text("# reference rates\neps1=0.02\n\ndt=0.5\n")
        assert sc.values["eps1"] == 0.02
        assert sc.dt == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            Scenario(solver="rk99")
        with pytest.raises(ValueError):
            Scenario(values={"y0_1": -5.0})
        with pytest.raises(ValueError):
            Scenario(values={"eps1": 0.0, "gamma1": 1.0, "eps2": 1.0, "gamma2": 1.0})
        with pytest.raises(ValueError):
            get_model("unknown")

    def test_positivity_checked_only_on_the_model_state(self):
        # linear reads y0_1 alone, so the unused y0_2 is not validated
        sc = Scenario(model="linear", values={"y0_2": -1.0})
        assert np.array_equal(sc.initial_state(), np.array([1000.0]))
        with pytest.raises(ValueError, match="must be positive"):
            Scenario(model="linear", values={"y0_1": -1.0})
        with pytest.raises(ValueError, match="must be positive"):
            Scenario(model="lv", values={"y0_2": -1.0})

    def test_keys_of_other_models_ignored_and_unread_keys_rejected(self):
        assert parse_scenario_text("gamma1=5.0\ny0_2=-1.0\n", model="linear") == Scenario(model="linear")
        assert Scenario(model="linear", values={"gamma1": -5.0}) == Scenario(model="linear")
        with pytest.raises(ValueError, match="unknown scenario key 'wibble'"):
            Scenario(values={"wibble": 1.0})
        # a run setting is a field of its own, not a model input
        with pytest.raises(ValueError, match="unknown scenario key 'dt'"):
            Scenario(values={"dt": 0.5})

    def test_linear_file_with_every_predator_prey_key_still_parses(self):
        # a linear scenario as format_scenario wrote it when every scenario
        # carried all six predator-prey inputs
        text = (
            "eps1=-0.5\ngamma1=0.0001\neps2=0.03\ngamma2=0.0001\ny0_1=2.0\ny0_2=20.0\n"
            "t0=0.0\nt_end=1.0\nn_points=2\nsolver=rk23\ndt=0.1\nrel_tol=1e-08\nabs_tol=1e-10\n"
        )
        expected = Scenario(model="linear", values={"eps1": -0.5, "y0_1": 2.0}, t_end=1.0,
                            n_points=2, solver="rk23", rel_tol=1e-8, abs_tol=1e-10)
        assert parse_scenario_text(text, model="linear") == expected
        assert format_scenario(expected).startswith("eps1=-0.5\ny0_1=2.0\nt0=0.0\n")

    def test_keys_follow_the_model(self):
        sc = Scenario(model="linear", values={"eps1": 0.5, "y0_1": 3.0})
        assert np.array_equal(sc.params_array(), np.array([0.5]))
        for name, model in MODELS.items():
            assert model.state_dim == len(model.states)
            assert Scenario(model=name).params_array().shape == (len(model.params),)


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

    @pytest.mark.parametrize("method", [EulerMethod(0.1), RK23Method()])
    def test_columns_equal_one_by_one_bitwise(self, method):
        rng = np.random.default_rng(53)
        y0 = Y0[:, None] * rng.uniform(0.9, 1.1, (2, 3))
        p = P[:, None] * rng.uniform(0.9, 1.1, (4, 3))
        time = Points(np.linspace(0.0, 20.0, 21))
        z = fmain_objective(y0, p, time, method)
        assert z.shape == (3,)
        for b in range(3):
            assert z[b] == fmain_objective(y0[:, b], p[:, b], time, method)


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

    @pytest.mark.parametrize("method", [EulerMethod(0.1), RK23Method()])
    @pytest.mark.parametrize("model, y0, p", [("lv", Y0, P), ("linear", Y0[:1], P[:1])])
    def test_forward_equals_unit_seed_loop_bitwise(self, method, model, y0, p):
        time = Points(np.linspace(0.0, 50.0, 501))
        bundles = models._fmain_bundles(y0, p, time, method, MODELS[model], "analytic")
        m, n = y0.shape[0], y0.shape[0] + p.shape[0]
        # the whole-trajectory loop it replaced, kept as the reference
        expected = np.empty(n)
        for j, seed in enumerate(np.eye(n)):
            d1 = sensitivity.jvp_solution(bundles[0], seed[:m], seed[m:])
            d2 = sensitivity.jvp_solution(bundles[1], seed[:m], 0.5 * seed[m:])
            expected[j] = float(np.sum(d1[-1]) + np.sum(d2[-1]))
        grad = fmain_gradient_forward(y0, p, time, method, model=MODELS[model])
        assert grad.tobytes() == expected.tobytes()

    def test_ad_provider_matches_analytic_provider(self):
        analytic = fmain_gradient_reverse(Y0, P, SHORT_TIME, EulerMethod(0.1), jac="analytic")
        ad = fmain_gradient_reverse(Y0, P, SHORT_TIME, EulerMethod(0.1), jac="ad")
        assert np.max(np.abs(analytic - ad)) <= 1e-13 * np.max(np.abs(analytic))


def test_hessian_makes_one_gradient_call_and_two_lowered_solves(monkeypatch):
    gradient_calls, lowered = [], []
    solve = sensitivity.forward_sensitivity_solve
    hessian = sensitivity.hessian_forward_over_reverse

    def counted_solve(f, jac, p, y0, time, method):
        if not (contains_dual(p) or contains_dual(y0)):
            lowered.append(p)
        return solve(f, jac, p, y0, time, method)

    def counted_hessian(gradient, x0):
        def counted_gradient(x):
            gradient_calls.append(x)
            return gradient(x)
        return hessian(counted_gradient, x0)

    monkeypatch.setattr(sensitivity, "forward_sensitivity_solve", counted_solve)
    monkeypatch.setattr(models, "forward_sensitivity_solve", counted_solve)
    monkeypatch.setattr(models, "hessian_forward_over_reverse", counted_hessian)
    hess = fmain_hessian(Y0, P, Points(np.linspace(0.0, 2.0, 21)), EulerMethod(0.1))
    assert hess.shape == (6, 6)
    assert len(gradient_calls) == 1
    # one lowered solve per distinct parameter vector of the objective
    assert [list(q) for q in lowered] == [list(P), list(P / 2.0)]


def test_hessian_lowered_solves_are_two_composite_solves(solve_shapes):
    fmain_hessian(Y0, P, Points(np.linspace(0.0, 2.0, 21)), EulerMethod(0.1))
    # one level down the (7, 2) composite is a flat 14-state with 4 parameters
    assert solve_shapes == [(19, 14)] * 2


@pytest.mark.parametrize("jac, passes", [("analytic", []), ("ad", [6] * 80)])
def test_hessian_lowered_jacobian_makes_no_pass_over_the_augmented_rhs(monkeypatch, jac, passes):
    columns, seeded = [], []
    jacobian_dual = sensitivity.eval_jacobian_dual

    def counted_jacobian(f, x):
        columns.append(np.asarray(x).shape[0])
        return jacobian_dual(f, x)

    def counted_jac_y(t, y, p):
        if isinstance(y[0], Dual1):
            seeded.append(np.shape(y[0].tangent))
        return lv_jac_y(t, y, p)

    monkeypatch.setattr(sensitivity, "eval_jacobian_dual", counted_jacobian)
    model = dataclasses.replace(MODELS["lv"], jac_y=counted_jac_y)
    fmain_hessian(Y0, P, Points(np.linspace(0.0, 2.0, 21)), EulerMethod(0.1), model=model, jac=jac)
    # 2 lowered solves of 20 Euler steps; with AD each step runs the model's
    # 6-seed provider once for the lowered Jacobian and once for the RHS
    assert sorted(columns) == passes
    assert seeded == ([(6,)] * 40 if jac == "analytic" else [])


@pytest.mark.parametrize("method, gradient, shapes", [
    # the 12 central points of the 6 inputs, at p and p/2, as 24 lanes of one solve
    (EulerMethod(0.1), fmain_gradient_fd, [(2, 24)]),
    (RK23Method(), fmain_gradient_fd, [(2,)] * 24),
    # complex inputs: one solve per column and per parameter vector
    (EulerMethod(0.1), fmain_gradient_cs, [(2,)] * 12),
    (RK23Method(), fmain_gradient_cs, [(2,)] * 12),
])
def test_numerical_gradient_solves(solve_shapes, method, gradient, shapes):
    grad = gradient(Y0, P, Points(np.linspace(0.0, 2.0, 21)), method)
    assert grad.shape == (6,)
    assert solve_shapes == shapes


_POSITIVE = st.floats(1e-300, 1e300)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _scenarios(draw):
    model = MODELS[draw(st.sampled_from(sorted(MODELS)))]
    t0 = draw(st.floats(-1e6, 1e6))
    return Scenario(
        model=model.name,
        values={key: draw(_POSITIVE if key in model.positive else _FINITE)
                for key in (*model.params, *model.states)},
        t0=t0,
        t_end=t0 + draw(st.floats(1e-3, 1e6)),
        n_points=draw(st.integers(1, 10 ** 6)),
        solver=draw(st.sampled_from(SOLVERS)),
        dt=draw(_POSITIVE),
        rel_tol=draw(_POSITIVE),
        abs_tol=draw(_POSITIVE),
    )


@given(st.data())
def test_scenario_text_round_trip(data):
    # every registered model with its own keys, the three-state test model included
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(MODELS, "binding", BINDING)
        scenario = data.draw(_scenarios())
        assert parse_scenario_text(format_scenario(scenario), model=scenario.model) == scenario
