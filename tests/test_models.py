import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import BINDING
from odesens import diffmethods, models, sensitivity, solvers
from odesens.models import (
    MODELS,
    SOLVERS,
    Scenario,
    fmain_gradient_cs,
    fmain_gradient_fd,
    fmain_gradient_forward,
    fmain_gradient_reverse,
    fmain_hessian,
    fmain_hessian_fd,
    fmain_objective,
    format_scenario,
    get_model,
    lv_invariant,
    lv_jac,
    lv_rhs,
    parse_scenario_text,
)
from odesens.scalars import Dual1, contains_dual, eval_jacobian_dual, lift_dual
from odesens.solvers import (
    EulerMethod, Points, RK23Method, Span, SpanModeError, euler_solve, rk23_solve,
)

P = np.array([0.015, 1e-4, 0.03, 1e-4])
Y0 = np.array([1000.0, 20.0])
LV = MODELS["lv"]

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
        assert np.array_equal(lv_jac(0.0, Y0, P)[:, :2], np.array([[0.013, -0.1], [0.002, 0.07]]))

    def test_param_jacobian_reference_values(self):
        expected = np.array([[1000.0, -20000.0, 0.0, 0.0], [0.0, 0.0, -20.0, 20000.0]])
        assert np.array_equal(lv_jac(0.0, Y0, P)[:, 2:], expected)

    def test_param_jacobian_vanishes_at_origin(self):
        assert np.all(lv_jac(0.0, np.zeros(2), P)[:, 2:] == 0.0)

    def test_agreement_with_dual_lifting_at_random_points(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            y = rng.uniform(0.01, 3000.0, 2)
            p = rng.uniform(1e-5, 1.0, 4)
            dual = eval_jacobian_dual(
                lambda z: lv_rhs(0.0, z[:2], z[2:]), np.concatenate([y, p])
            ).astype(float)
            analytic = lv_jac(0.0, y, p)
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

    def test_line_without_equals_rejected(self):
        with pytest.raises(ValueError, match="line 2: expected key=value, got 'dt 0.5'"):
            parse_scenario_text("eps1=0.01\ndt 0.5\n")

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
        ("n_points", 0, "n_points must be at least 1, got 0"),
        ("t_end", -1.0, "t_end (-1.0) must exceed t0 (0.0)"),
        ("t_end", 0.0, "t_end (0.0) must exceed t0 (0.0)"),
        ("rel_tol", -1.0, "rel_tol must be positive, got -1.0"),
        ("abs_tol", 0.0, "abs_tol must be positive, got 0.0"),
        ("dt", -0.5, "dt must be positive, got -0.5"),
    ])
    def test_bad_run_setting_rejected_naming_it(self, field, value, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Scenario(**{field: value})

    @pytest.mark.parametrize("field", [
        "eps1", "gamma1", "eps2", "gamma2", "y0_1", "y0_2",
        "t0", "t_end", "n_points", "dt", "rel_tol", "abs_tol",
    ])
    @pytest.mark.parametrize("value", [True, np.False_, "1.0", 1j],
                             ids=["bool", "numpy-bool", "str", "complex"])
    def test_non_number_rejected_naming_it(self, field, value):
        # format_scenario would write a bool as True, which parse_scenario_text rejects
        with pytest.raises(ValueError, match=f"^{field} must be (a real number|an integer), got"):
            Scenario().with_updates(**{field: value})

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
        z = fmain_objective(Y0, P, Points(np.array([0.0])), EulerMethod(0.1), model=LV)
        assert z == 2.0 * (Y0[0] + Y0[1])

    def test_zero_rhs_stub(self):
        z = fmain_objective(
            Y0, P, Points(np.linspace(0.0, 500.0, 21)), EulerMethod(0.1),
            model=MODELS["zero"],
        )
        assert z == 2.0 * np.sum(Y0)

    def test_golden_value_on_reference_scenario(self):
        z = fmain_objective(
            Y0, P, Points(np.linspace(0.0, 1000.0, 10001)), EulerMethod(0.1), model=LV)
        assert float(z) == FMAIN_GOLDEN

    def test_requires_points_mode(self):
        with pytest.raises(SpanModeError):
            fmain_objective(Y0, P, Span(0.0, 10.0), EulerMethod(0.1), model=LV)

    @pytest.mark.parametrize("method", [EulerMethod(0.1), RK23Method()])
    def test_columns_equal_one_by_one_bitwise(self, method):
        rng = np.random.default_rng(53)
        y0 = Y0[:, None] * rng.uniform(0.9, 1.1, (2, 3))
        p = P[:, None] * rng.uniform(0.9, 1.1, (4, 3))
        time = Points(np.linspace(0.0, 20.0, 21))
        z = fmain_objective(y0, p, time, method, model=LV)
        assert z.shape == (3,)
        for b in range(3):
            assert z[b] == fmain_objective(y0[:, b], p[:, b], time, method, model=LV)


SHORT_TIME = Points(np.linspace(0.0, 100.0, 1001))


class TestGradients:
    def test_forward_equals_reverse(self):
        fm = fmain_gradient_forward(Y0, P, SHORT_TIME, EulerMethod(0.1), model=LV)
        rm = fmain_gradient_reverse(Y0, P, SHORT_TIME, EulerMethod(0.1), model=LV)
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
            fm = fmain_gradient_forward(y0, p, time, EulerMethod(0.1), model=LV)
            rm = fmain_gradient_reverse(y0, p, time, EulerMethod(0.1), model=LV)
            assert np.max(np.abs(fm - rm)) <= 1e-12 * np.max(np.abs(rm))

    def test_modes_match_central_fd(self):
        rm = fmain_gradient_reverse(Y0, P, SHORT_TIME, EulerMethod(0.1), model=LV)
        fd = fmain_gradient_fd(Y0, P, SHORT_TIME, EulerMethod(0.1), model=LV)
        assert np.all(np.abs(rm - fd) <= 1e-5 * np.maximum(np.abs(rm), np.abs(fd)))

    def test_complex_step_matches_reverse(self):
        rm = fmain_gradient_reverse(Y0, P, SHORT_TIME, EulerMethod(0.1), model=LV)
        cs = fmain_gradient_cs(Y0, P, SHORT_TIME, EulerMethod(0.1), model=LV)
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
        solve = models._sensitivity_solver(MODELS[model], "analytic", time, method)
        bundles = solve(y0, p), solve(y0, p / 2.0)
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
        analytic = fmain_gradient_reverse(
            Y0, P, SHORT_TIME, EulerMethod(0.1), model=LV, jac="analytic")
        ad = fmain_gradient_reverse(Y0, P, SHORT_TIME, EulerMethod(0.1), model=LV, jac="ad")
        assert np.max(np.abs(analytic - ad)) <= 1e-13 * np.max(np.abs(analytic))


def test_hessian_makes_one_gradient_call_and_one_lowered_solve_of_two_lanes(monkeypatch):
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
    hess = fmain_hessian(Y0, P, Points(np.linspace(0.0, 2.0, 21)), EulerMethod(0.1), model=LV)
    assert hess.shape == (6, 6)
    assert len(gradient_calls) == 1
    # one lowered solve whose two lanes are the objective's parameter vectors
    assert [q.T.tolist() for q in lowered] == [[list(P), list(P / 2.0)]]


def test_hessian_lowered_solve_is_one_composite_solve_of_two_lanes(solve_shapes):
    fmain_hessian(Y0, P, Points(np.linspace(0.0, 2.0, 21)), EulerMethod(0.1), model=LV)
    # one level down the (7, 2) composite is a flat 14-state with 4 parameters;
    # the lanes of p and p/2 are two such stacks
    assert solve_shapes == [(2, 19, 14)]


@pytest.mark.parametrize("jac, passes", [
    ("analytic", [(6, 40)]),
    ("ad", [(6, 40), (6, 40), (6,)]),
])
def test_hessian_lowered_jacobian_makes_no_pass_over_the_augmented_rhs(monkeypatch, jac, passes):
    columns, jac_inputs, rhs_calls = [], [], []
    jacobian_dual = sensitivity.eval_jacobian_dual

    def counted_jacobian(f, x):
        columns.append(np.shape(x))
        return jacobian_dual(f, x)

    def counted_jac(t, y, p):
        jac_inputs.append((np.shape(y), np.asarray(y).dtype))
        return lv_jac(t, y, p)

    def counted_rhs(t, y, p):
        rhs_calls.append(np.shape(t))
        return lv_rhs(t, y, p)

    monkeypatch.setattr(sensitivity, "eval_jacobian_dual", counted_jacobian)
    model = dataclasses.replace(MODELS["lv"], rhs=counted_rhs, jac=counted_jac)
    fmain_hessian(Y0, P, Points(np.linspace(0.0, 2.0, 21)), EulerMethod(0.1), model=model, jac=jac)
    # one lowered solve of 20 Euler steps of two lanes, p and p/2, in two passes,
    # so a block of 40 lane steps; every dual pass seeds the 6 inputs of the model,
    # none the 18 of the augmented system
    assert columns == passes
    # making the model checks the lane contract: one call on 3 lanes, then one
    # at each lane's point alone, of rhs and of jac
    probe_t = [(3,), (), (), ()]
    probe_y = [((2, 3), np.dtype(float))] + [((2,), np.dtype(float))] * 3
    if jac == "analytic":
        # the solve's state pass is the model's own two-pass solve: rhs alone
        # once per step at a real t, both lanes in one call, then one lane-form
        # provider call, rhs and jac, at the block of 20 steps of two lanes.  One
        # lane-form call of the structured provider takes f, [f_y | f_p] and
        # their derivatives at that block from one 6-seed lane pass over the
        # provider, whose t is a lane dual, of shape ().  No state-pass step
        # builds a Dual1
        assert rhs_calls == probe_t + [()] * 20 + [(40,), ()]
        assert jac_inputs == probe_y + [((2, 40), np.dtype(float)), ((2,), np.dtype(object))]
    else:
        # the model's state pass calls rhs on reals once per step, and its block a
        # 6-seed lane pass over rhs; the structured provider's block call takes
        # one lane pass over that pass, nested: 22 rhs calls
        assert rhs_calls == probe_t + [()] * 22
        # the AD provider differentiates the right-hand side, never the model's jac
        assert jac_inputs == probe_y


@pytest.mark.parametrize("model", [MODELS["lv"], MODELS["linear"], MODELS["zero"], BINDING],
                         ids=["lv", "linear", "zero", "binding"])
@given(data=st.data())
def test_jac_equals_the_dual_pass_over_rhs(model, data):
    m, k = model.state_dim, len(model.params)
    entries = st.floats(-1e3, 1e3)
    y = data.draw(arrays(float, m, elements=entries), label="y")
    p = data.draw(arrays(float, k, elements=entries), label="p")
    first = eval_jacobian_dual(lambda z: model.rhs(0.0, z[:m], z[m:]), np.concatenate([y, p]))
    assert np.array_equal(model.jac(0.0, y, p), first)


@pytest.mark.parametrize("driver, method", [
    (fmain_gradient_forward, EulerMethod(0.1)),
    (fmain_hessian, EulerMethod(0.1)),
    (fmain_hessian, RK23Method()),
], ids=["gradient-euler", "hessian-euler", "hessian-rk23"])
def test_first_derivatives_of_the_wrong_shape_are_rejected(monkeypatch, driver, method):
    calls, passes = [], []

    def jac(t, y, p):
        calls.append(t)
        return np.zeros((2, 4))

    def counted_jacobian(f, x):
        passes.append(np.shape(x))
        return eval_jacobian_dual(f, x)

    # making a model with this jac would reject it, so a hand-made provider of it
    # stands behind jacobian_provider, which records the model's rhs as its lane rhs
    analytic_jacobians = sensitivity.analytic_jacobians
    monkeypatch.setattr(sensitivity, "analytic_jacobians", lambda _: analytic_jacobians(jac))
    monkeypatch.setattr(sensitivity, "eval_jacobian_dual", counted_jacobian)
    time = Points(np.linspace(0.0, 2.0, 21))
    with pytest.raises(ValueError, match=re.escape(
            "jacobian provider returned shape (2, 4); expected (2, 6)")):
        driver(Y0, P, time, method, model=LV)
    assert len(calls) == 1
    # rejected at the first provider call, before the recurrence takes a step:
    # a gradient's call covers the first block of Euler steps, here all 20 step
    # times of its two lanes, p and p/2; an Euler Hessian's is the block call of
    # the model's own solve, whose recurrence is the state pass of the lowered
    # solve of those two lanes, covering the same 20 step times of each; an RK23
    # Hessian's the first step of its first lowered solve
    first = {fmain_gradient_forward: np.repeat(time.times[:-1], 2),
             fmain_hessian: np.repeat(time.times[:-1], 2) if isinstance(method, EulerMethod)
             else 0.0}[driver]
    assert np.array_equal(calls[0], first)
    # an RK23 Hessian's call is the structured provider's one pass, which yields
    # the block and its derivatives together; it is checked before it is used
    assert passes == ([(6,)] if isinstance(method, RK23Method) and driver is fmain_hessian else [])


@pytest.mark.parametrize("method, gradient, shapes", [
    # the 12 central points of the 6 inputs, at p and p/2, as 24 lanes of one
    # solve, under RK23 each lane with its own step control
    (EulerMethod(0.1), fmain_gradient_fd, [(2, 24)]),
    (RK23Method(), fmain_gradient_fd, [(2, 24)]),
    # the 6 complex points, at p and p/2, as 12 lanes of one solve
    (EulerMethod(0.1), fmain_gradient_cs, [(2, 12)]),
    (RK23Method(), fmain_gradient_cs, [(2, 12)]),
])
def test_numerical_gradient_solves(solve_shapes, method, gradient, shapes):
    grad = gradient(Y0, P, Points(np.linspace(0.0, 2.0, 21)), method, model=LV)
    assert grad.shape == (6,)
    assert solve_shapes == shapes


@pytest.mark.parametrize("key, make", [
    ("t0", lambda v: Scenario(t0=v)),
    ("t_end", lambda v: Scenario(t_end=v)),
    ("dt", lambda v: Scenario(dt=v)),
    ("eps1", lambda v: Scenario(values={"eps1": v})),
    ("y0_2", lambda v: Scenario(values={"y0_2": v})),
    ("t0", lambda v: Span(v, 1.0)),
    ("t_end", lambda v: Span(0.0, v)),
    ("rel_tol", lambda v: RK23Method(rel_tol=v)),
    ("abs_tol", lambda v: RK23Method(abs_tol=v)),
    ("dt", lambda v: euler_solve(lv_rhs, Span(0.0, 1.0), Y0, v)),
], ids=["scenario-t0", "scenario-t_end", "scenario-dt", "scenario-eps1", "scenario-y0_2",
        "span-t0", "span-t_end", "rk23-rel_tol", "rk23-abs_tol", "euler-dt"])
@pytest.mark.parametrize("value", [10 ** 400, -(10 ** 400)], ids=["huge", "-huge"])
def test_int_beyond_the_float_range_rejected_naming_it(key, make, value):
    # math.isfinite raises OverflowError for such an int
    with pytest.raises(ValueError, match=f"(^| ){key} must be (positive and )?finite"):
        make(value)


@pytest.mark.parametrize("method, shapes", [
    # 12 central points, each solved at p and p/2, as 24 lanes of one solve;
    # RK23 steps them as the columns of their flat (7, 2) stacks
    (EulerMethod(0.1), [(24, 7, 2)]),
    (RK23Method(), [(14, 24)]),
])
def test_fd_hessian_solves(solve_shapes, method, shapes):
    hess = fmain_hessian_fd(Y0, P, Points(np.linspace(0.0, 2.0, 21)), method, model=LV)
    assert hess.shape == (6, 6)
    assert solve_shapes == shapes


@pytest.mark.parametrize("method", [EulerMethod(0.1), RK23Method()], ids=["euler", "rk23"])
@pytest.mark.parametrize("driver", [
    fmain_objective, fmain_gradient_forward, fmain_gradient_reverse, fmain_gradient_fd,
    fmain_gradient_cs, fmain_hessian, fmain_hessian_fd,
])
def test_objective_solves_keep_only_their_last_row(monkeypatch, method, driver):
    fills, rows = [], []
    fill, solve = solvers.hermite_interp, solvers.run_solver

    def counted_fill(*args):
        fills.append(args)
        return fill(*args)

    def counted_solve(rhs, time, y0, method):
        traj = solve(rhs, time, y0, method)
        rows.append(len(traj.states))
        return traj

    monkeypatch.setattr(solvers, "hermite_interp", counted_fill)
    for module in (diffmethods, models, sensitivity, solvers):
        if getattr(module, "run_solver", None) is solve:
            monkeypatch.setattr(module, "run_solver", counted_solve)
    time = Points(np.linspace(0.0, 2.0, 21))
    driver(Y0, P, time, method, model=LV)
    # every solve, lowered ones included, steps the grid and keeps one row
    assert rows and set(rows) == {1}
    assert fills == []
    # a Points solve still fills its rows
    solvers.run_solver(lambda t, y: lv_rhs(t, y, P), time, Y0, method)
    assert rows[-1] == 21 and len(fills) == (isinstance(method, RK23Method))


def _input_columns(model, b):
    """``b`` columns of the model's default inputs, each entry scaled by a factor in [0.9, 1.1]."""
    rng = np.random.default_rng(7)
    y0 = np.array(list(model.states.values()))[:, None] * rng.uniform(0.9, 1.1, (model.state_dim, b))
    p = np.array(list(model.params.values()))[:, None] * rng.uniform(0.9, 1.1, (len(model.params), b))
    return y0, p


@pytest.mark.parametrize("name", ["lv", "linear", "zero", "binding"])
def test_model_rhs_and_jac_are_elementwise_over_lanes(binding, name):
    model = MODELS[name]
    y0, p = _input_columns(model, 3)
    m, k = y0.shape[0], p.shape[0]
    f, first = model.rhs(0.5, y0, p), model.jac(0.5, y0, p)
    assert f.shape == (m, 3) and first.shape == (m, m + k, 3)
    for b in range(3):
        assert f[:, b].tobytes() == model.rhs(0.5, y0[:, b], p[:, b]).tobytes()
        assert first[..., b].tobytes() == model.jac(0.5, y0[:, b], p[:, b]).tobytes()


@pytest.mark.parametrize("jac", ["analytic", "ad"])
@pytest.mark.parametrize("name", ["lv", "linear", "zero", "binding"])
@pytest.mark.parametrize("method", [EulerMethod(0.1), RK23Method()], ids=["euler", "rk23"])
def test_reverse_gradient_of_columns_equals_the_column_gradients(
        binding, solve_shapes, name, jac, method):
    model = MODELS[name]
    y0, p = _input_columns(model, 3)
    m, k = y0.shape[0], p.shape[0]
    time = Points(np.linspace(0.0, 2.0, 21))
    lanes = fmain_gradient_reverse(y0, p, time, method, model=model, jac=jac)
    # the 6 systems of [p | p/2] as lanes of one solve; RK23 steps them as the
    # columns of their flat stacks
    assert solve_shapes == ([(6, 1 + k + m, m)] if isinstance(method, EulerMethod)
                            else [((1 + k + m) * m, 6)])
    columns = [fmain_gradient_reverse(y0[:, b], p[:, b], time, method, model=model, jac=jac)
               for b in range(3)]
    assert lanes.shape == (m + k, 3)
    assert lanes.tobytes() == np.column_stack(columns).tobytes()


@st.composite
def _one_input(draw):
    """An LV or linear input off the defaults, a grid, plain or final-row, and an Euler step."""
    model = MODELS[draw(st.sampled_from(["lv", "linear"]))]
    scale = st.floats(0.5, 2.0)
    y0 = np.array(list(model.states.values())) * draw(
        arrays(float, model.state_dim, elements=scale))
    p = np.array(list(model.params.values())) * draw(
        arrays(float, len(model.params), elements=scale))
    grid = np.linspace(0.0, draw(st.floats(0.5, 5.0)), draw(st.integers(1, 30)))
    kind = draw(st.sampled_from([Points, solvers._FinalRow]))
    # a step below the gap covers each gap with several substeps
    return model, y0, p, kind(grid), EulerMethod(draw(st.floats(0.01, 0.5)))


@pytest.mark.parametrize("jac", ["analytic", "ad"])
@given(case=_one_input())
def test_euler_gradients_equal_their_two_solves_bitwise(jac, case):
    model, y0, p, time, method = case
    m, k = y0.shape[0], p.shape[0]
    provider = sensitivity.jacobian_provider(model, jac)
    # the last row of the solves at p and at p/2, each a solve of its own
    b1, b2 = (sensitivity.forward_sensitivity_solve(model.rhs, provider, q, y0, time, method)
              .take(slice(-1, None)) for q in (p, p / 2.0))
    (a_y0_1, a_p_1), (a_y0_2, a_p_2) = (sensitivity.vjp_solution(b, np.ones((1, m)))
                                        for b in (b1, b2))
    reverse = np.concatenate([a_y0_1 + a_y0_2, a_p_1 + 0.5 * a_p_2])
    seeds = np.eye(m + k)
    d1 = b1.dy_dy0[-1].dot(seeds[:m]) + b1.dy_dp[-1].dot(seeds[m:])
    d2 = b2.dy_dy0[-1].dot(seeds[:m]) + b2.dy_dp[-1].dot(0.5 * seeds[m:])
    forward = d1.sum(axis=0) + d2.sum(axis=0)
    rm = fmain_gradient_reverse(y0, p, time, method, model=model, jac=jac)
    fm = fmain_gradient_forward(y0, p, time, method, model=model, jac=jac)
    assert rm.tobytes() == reverse.tobytes()
    assert fm.tobytes() == forward.tobytes()


@pytest.mark.parametrize("driver", [fmain_gradient_reverse, fmain_gradient_forward],
                         ids=["rm", "fm"])
@pytest.mark.parametrize("method, dual, shapes", [
    # a real input under Euler: p and p/2 as two lanes of one solve
    (EulerMethod(0.1), False, [(2, 7, 2)]),
    # RK23: two solves of the ravelled (7, 2) stack, one per parameter vector
    (RK23Method(), False, [(14,)] * 2),
    # dual inputs lower to the flat 14-state with 4 parameters: under Euler one
    # solve of its two lanes, p and p/2; RK23 makes two solves, each stepping the
    # ravel of its (19, 14) stack
    (EulerMethod(0.1), True, [(2, 19, 14)]),
    (RK23Method(), True, [(266,)] * 2),
], ids=["euler", "rk23", "euler-dual", "rk23-dual"])
def test_the_gradient_solves_of_one_input(solve_shapes, driver, method, dual, shapes):
    x = np.concatenate([Y0, P])
    if dual:
        x = lift_dual(x, np.eye(6))
    grad = driver(x[:2], x[2:], Points(np.linspace(0.0, 2.0, 21)), method, model=LV)
    assert grad.shape == (6,)
    assert solve_shapes == shapes


@pytest.mark.parametrize("y0_shape, p_shape", [((2, 2), (4, 2)), ((2, 1), (4, 1)),
                                              ((2,), (4, 2)), ((2, 2), (4,))])
def test_the_forward_gradient_rejects_columns_naming_their_shapes(y0_shape, p_shape):
    # no caller passes columns, and the forward seeds are those of one input
    y0 = np.resize(Y0, y0_shape[::-1]).T
    p = np.resize(P, p_shape[::-1]).T
    with pytest.raises(ValueError, match=re.escape(f"got {y0_shape} and {p_shape}")):
        fmain_gradient_forward(y0, p, Points(np.linspace(0.0, 2.0, 21)), EulerMethod(0.1), model=LV)


_POSITIVE = st.floats(1e-300, 1e300)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _scenarios(draw):
    name = draw(st.sampled_from(sorted(MODELS)))
    model = MODELS[name]
    t0 = draw(st.floats(-1e6, 1e6))
    return Scenario(
        model=name,
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
