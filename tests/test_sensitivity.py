import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import BINDING
from odesens import models, sensitivity
from odesens.models import MODELS, OdeModel, fmain_hessian, linear_rhs, lv_jac, lv_rhs
from odesens.scalars import Dual1, lift_dual, primal_values, tangent_values
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
    NonFiniteStateError,
    Points,
    RK23Method,
    Span,
    SpanModeError,
    _FinalRow,
    euler_solve,
    run_solver,
)

LV_P = np.array([0.015, 1e-4, 0.03, 1e-4])
LV_Y0 = np.array([1000.0, 20.0])
LV_ANALYTIC = analytic_jacobians(lv_jac)


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
            assert np.array_equal(dv, lv_jac(0.0, LV_Y0, LV_P)[:, 2:])
            assert np.array_equal(dw, lv_jac(0.0, LV_Y0, LV_P)[:, :2])

    def test_zero_system(self):
        def zero(t, y, p):
            return 0.0 * np.asarray(y)

        provider = analytic_jacobians(lambda t, y, p: np.zeros((2, 6)))
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


def _triple_jac(t, y, p):
    yz, xz, xy = y[1] * y[2], y[0] * y[2], y[0] * y[1]
    s, zero = y[0] * y[1] * y[2], 0.0 * y[0]
    return np.array([
        [p[0] * yz, p[0] * xz, p[0] * xy, s, zero],
        [p[1] * yz, p[1] * xz, p[1] * xy, zero, s],
        [-(p[0] * yz), -(p[0] * xz), -(p[0] * xy), -s, zero],
    ])


# Every entry of its f_y depends on p[0], so a second-order sum over q has
# m = 3 nonzero terms and its rounding depends on the order they are summed.
# In binding no such sum has more than two.
TRIPLE = OdeModel(_triple_rhs, _triple_jac,
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
    value, j = aug.jacobians(aug, 0.0, x, p)
    assert j.dtype == float
    # the value the lowered step takes as its row 0 is the system's own, bitwise
    assert value.tobytes() == aug(0.0, x, p).tobytes()
    # equal in value; only the sign of some exact zeros may differ
    assert np.array_equal(j, dual_jacobians()(aug, 0.0, x, p)[1])


@pytest.mark.parametrize("case", _STRUCTURED_CASES, ids=_CASE_IDS)
def test_structured_jacobian_of_dual_inputs_equals_dual_pass(case):
    # one payload level deeper, where a lowered solve of nested duals calls it
    aug, m, k = _augmented_of(*case)
    rng = np.random.default_rng(5)
    x = lift_dual(rng.normal(scale=10.0, size=(1 + k + m) * m), rng.normal(size=((1 + k + m) * m, 3)))
    p = lift_dual(rng.normal(size=k), rng.normal(size=(k, 3)))
    (value, got), (dual_value, expected) = (aug.jacobians(aug, 0.0, x, p),
                                            dual_jacobians()(aug, 0.0, x, p))
    for a, b in ((value, dual_value), (got, expected), (value, aug(0.0, x, p))):
        assert np.array_equal(primal_values(a), primal_values(b))
        assert np.array_equal(tangent_values(a), tangent_values(b))


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
        # both integrators step the ravel of the stack, as a state with a second axis is lanes
        for method in (EulerMethod(0.1), RK23Method()):
            solve_shapes.clear()
            forward_sensitivity_solve(rhs, dual_jacobians(), p, y0, Points(np.linspace(0.0, 1.0, 3)), method)
            assert solve_shapes == [(math.prod(shape),)]


class TestLanes:
    """Real ``(m, B)``/``(k, B)`` inputs: ``B`` lanes of one Euler solve, each its own solve."""

    @pytest.mark.parametrize("model", [MODELS["lv"], MODELS["linear"], MODELS["zero"], BINDING],
                             ids=["lv", "linear", "zero", "binding"])
    @pytest.mark.parametrize("kind", ["analytic", "ad"])
    def test_every_lane_is_bitwise_its_own_solve(self, solve_shapes, model, kind):
        rng = np.random.default_rng(11)
        m, k = model.state_dim, len(model.params)
        y0 = np.array(list(model.states.values()))[:, None] * rng.uniform(0.5, 1.5, (m, 4))
        p = np.array(list(model.params.values()))[:, None] * rng.uniform(0.5, 1.5, (k, 4))
        provider = jacobian_provider(model, kind)
        time = Points(np.linspace(0.0, 3.0, 7))
        lanes = forward_sensitivity_solve(model.rhs, provider, p, y0, time, EulerMethod(0.1))
        assert solve_shapes == [(4, 1 + k + m, m)]
        assert lanes.states.shape == (7, 4, 1 + k + m, m)
        assert (lanes.state_dim, lanes.n_params) == (m, k)
        assert lanes.dy_dp.shape == (7, 4, m, k)
        for b in range(4):
            alone = forward_sensitivity_solve(
                model.rhs, provider, p[:, b], y0[:, b], time, EulerMethod(0.1))
            assert lanes.states[:, b].tobytes() == alone.states.tobytes()

    @pytest.mark.parametrize("model", [MODELS["lv"], MODELS["linear"], MODELS["zero"], BINDING],
                             ids=["lv", "linear", "zero", "binding"])
    @pytest.mark.parametrize("kind", ["analytic", "ad"])
    @settings(max_examples=15)
    @given(data=st.data())
    def test_every_rk23_lane_is_bitwise_its_own_solve(self, model, kind, data):
        # each lane keeps its own step control, so 1-24 lanes whose inputs span
        # orders of magnitude take their own steps, each those of its column
        m, k = model.state_dim, len(model.params)
        n_lanes = data.draw(st.integers(1, 24))
        powers = data.draw(arrays(float, (m + k, n_lanes), elements=st.floats(-1.0, 1.0)))
        x = np.array([*model.states.values(), *model.params.values()])[:, None] * 10.0 ** powers
        y0, p = x[:m], x[m:]
        time = data.draw(st.sampled_from([Points, _FinalRow]))(np.linspace(0.0, 2.0, 5))
        provider = jacobian_provider(model, kind)
        lanes = forward_sensitivity_solve(model.rhs, provider, p, y0, time, RK23Method())
        assert lanes.states.shape == (len(lanes.times), n_lanes, 1 + k + m, m)
        for b in range(n_lanes):
            alone = forward_sensitivity_solve(model.rhs, provider, p[:, b], y0[:, b], time, RK23Method())
            assert lanes.times.tobytes() == alone.times.tobytes()
            assert lanes.states[:, b].tobytes() == alone.states.tobytes()

    @pytest.mark.parametrize("kind", ["analytic", "ad"])
    @pytest.mark.parametrize("p_shape, y0_shape", [
        ((4,), (2, 3)),
        ((4, 2), (2, 3)),
        ((4, 3), (2,)),
        ((4,), (2, 3, 1)),
    ], ids=["1-D p, lanes of y0", "other lane count", "lanes of p, 1-D y0", "3-D y0"])
    def test_mismatched_lane_shapes_are_rejected(self, kind, p_shape, y0_shape):
        p = np.resize(LV_P, p_shape[::-1]).T
        y0 = np.broadcast_to(LV_Y0.reshape((2,) + (1,) * (len(y0_shape) - 1)), y0_shape)
        message = re.escape(f"y0 of shape {y0_shape} and p of shape {p_shape}")
        with pytest.raises(ValueError, match=message):
            forward_sensitivity_solve(lv_rhs, jacobian_provider(MODELS["lv"], kind), p, y0,
                                      Points(np.linspace(0.0, 1.0, 3)), EulerMethod(0.1))

    @pytest.mark.parametrize("kind", ["analytic", "ad", "no lane rhs"])
    def test_rk23_lanes_over_a_span_are_rejected(self, kind):
        # each RK23 lane picks its own steps, so over a span each would have its own times
        y0 = np.column_stack([LV_Y0, 0.5 * LV_Y0])
        p = np.column_stack([LV_P, LV_P])
        provider = LV_ANALYTIC if kind == "no lane rhs" else jacobian_provider(MODELS["lv"], kind)
        with pytest.raises(ValueError, match="RK23 sensitivity lanes need prescribed output points"):
            forward_sensitivity_solve(lv_rhs, provider, p, y0, Span(0.0, 50.0), RK23Method())


# y' = (a t y_1 - y_2, y_1 - b y_2 / (1 + t)): a right-hand side that reads t
def _forced_rhs(t, y, p):
    return np.array([p[0] * t * y[0] - y[1], y[0] - p[1] * y[1] / (1.0 + t)])


def _forced_jac(t, y, p):
    one, zero = 1.0 + 0.0 * y[0], 0.0 * y[0]
    return np.array([[p[0] * t * one, -one, t * y[0], zero],
                     [one, -(p[1] / (1.0 + t)) * one, zero, -y[1] / (1.0 + t)]])


FORCED = OdeModel(_forced_rhs, _forced_jac, {"u0": 1.0, "v0": 0.5}, {"a": 0.3, "b": 0.7}, ())


# y' = (a e^-t y_1, -b e^-t y_2): a numpy function of t, which a lane pass takes of a lane dual
def _decay_rhs(t, y, p):
    return np.array([p[0] * np.exp(-t) * y[0], -(p[1] * np.exp(-t) * y[1])])


def _decay_jac(t, y, p):
    e, zero = np.exp(-t), 0.0 * y[0]
    return np.array([[p[0] * e + zero, zero, e * y[0], zero],
                     [zero, -(p[1] * e) + zero, zero, -(e * y[1])]])


DECAY = OdeModel(_decay_rhs, _decay_jac, {"u0": 1.0, "v0": 0.5}, {"a": 0.3, "b": 0.7}, ())

# a right-hand side of constants only: real lanes give the constants once per lane, while
# on lane duals, whose lanes live inside each Dual1, f and [f_y | f_p] have no lane axis
CONSTANT = OdeModel(lambda t, y, p: np.multiply.outer([1.0, -2.0], np.ones(np.shape(y)[1:])),
                    lambda t, y, p: np.zeros((2, 4) + np.shape(y)[1:]),
                    {"u0": 1.0, "v0": 0.5}, {"a": 0.3, "b": 0.7}, ())


# with the models that read t, whose second derivatives take lane times as a lane dual,
# and the one whose value is the same for every lane
_LOWERED_MODELS = {**_STRUCTURED_MODELS, "forced": FORCED, "decay": DECAY, "constant": CONSTANT}


# reads t as a Python number and sums over the whole state: no lane form
def _scalar_rhs(t, y, p):
    return -p[0] * y * (2.0 if t > 0.5 else 1.0) + 0.01 * sum(y)


def _per_step_solve(model, kind, p, y0, time, dt):
    """The reference: the augmented system stepped by Euler, one provider call per step."""
    m, k = model.state_dim, len(model.params)
    aug = _augmented_system(model.rhs, jacobian_provider(model, kind), m, k)
    x0 = np.concatenate([y0[None], np.zeros((k, m)), np.eye(m)])
    return run_solver(lambda t, x: aug(t, x, p), time, x0, EulerMethod(dt))


class TestTwoPassEuler:
    """A real Euler sensitivity solve evaluates its Jacobians in blocks, ahead of its steps."""

    @pytest.fixture(autouse=True)
    def blocks_of_256_lane_steps(self, monkeypatch):
        # so that these grids of a few hundred steps take several blocks
        monkeypatch.setattr(sensitivity, "_BLOCK_LANES", 256)

    # with dt 0.01 each grid takes 301 steps, a little over one block of one lane
    TIMES = {
        # 300 full steps and a shortened last one
        "span": Span(0.0, 3.005),
        # one substep per gap
        "points": Points(np.linspace(0.0, 3.01, 302)),
        # gaps of different lengths, 2, 49, 2, 118 and 130 substeps
        "uneven": Points(np.array([0.0, 0.013, 0.5, 0.52, 1.7, 3.0])),
    }

    @pytest.mark.parametrize("case", _STRUCTURED_CASES, ids=_CASE_IDS)
    def test_equals_the_per_step_solve_bitwise(self, case):
        name, kind = case
        model = _STRUCTURED_MODELS[name]
        m, k = model.state_dim, len(model.params)
        rng = np.random.default_rng(17)
        y0 = np.array(list(model.states.values()))[:, None] * rng.uniform(0.5, 1.5, (m, 3))
        p = np.array(list(model.params.values()))[:, None] * rng.uniform(0.5, 1.5, (k, 3))
        provider = jacobian_provider(model, kind)
        calls = []

        def counted(f, t, y, q):
            calls.append(y.shape)
            return provider(f, t, y, q)

        # the wrapper stands for the model's provider, whose lane contract it keeps
        counted._lane_rhs = model.rhs
        # every grid takes 301 steps, in blocks of 256 steps of one lane or 85 of three
        blocks = {1: [256, 45], 3: [85, 85, 85, 46]}
        for time in self.TIMES.values():
            reference = [_per_step_solve(model, kind, p[:, b], y0[:, b], time, 0.01) for b in range(3)]
            one = forward_sensitivity_solve(model.rhs, counted, p[:, 0], y0[:, 0], time, EulerMethod(0.01))
            # one lane-form provider call per block of steps
            assert calls == [(m, n) for n in blocks[1]]
            assert one.times.tobytes() == reference[0].times.tobytes()
            assert one.states.tobytes() == reference[0].states.tobytes()
            calls.clear()
            lanes = forward_sensitivity_solve(model.rhs, counted, p, y0, time, EulerMethod(0.01))
            # every lane of a block in the same call
            assert calls == [(m, 3 * n) for n in blocks[3]]
            calls.clear()
            for b in range(3):
                assert lanes.states[:, b].tobytes() == reference[b].states.tobytes()

    @pytest.mark.parametrize("kind", ["analytic", "ad"])
    @pytest.mark.parametrize("y0, rate, overflow", [
        # dy/da is about y t / (1 + a dt): with a dt = 0.5 it overflows before y,
        (1.0, 50.0, "sensitivities"),
        # with a dt = 5 after it
        (1e76, 500.0, "state"),
    ], ids=["sensitivities-first", "state-first"])
    def test_the_failing_step_is_named_as_by_the_per_step_solve(self, kind, y0, rate, overflow):
        model = MODELS["linear"]
        time, y0, p = Span(0.0, 20.0), np.array([y0]), np.array([rate])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteStateError) as expected:
                _per_step_solve(model, kind, p, y0, time, 0.01)
            with pytest.raises(NonFiniteStateError) as got:
                forward_sensitivity_solve(model.rhs, jacobian_provider(model, kind), p, y0, time,
                                          EulerMethod(0.01))
            with pytest.raises(NonFiniteStateError) as state:
                euler_solve(lambda t, y: model.rhs(t, y, p), time, y0, 0.01)
        assert str(got.value) == str(expected.value)
        assert (str(state.value) == str(expected.value)) == (overflow == "state")
        # past the first block of steps
        assert int(re.search(r"step (\d+)", str(got.value)).group(1)) > sensitivity._BLOCK_LANES

    def test_a_state_solve_stopped_by_its_rhs_stops_the_recurrence_at_that_step(self):
        def strict_rhs(t, y, p):
            if not np.isfinite(y).all():
                raise FloatingPointError("non-finite input")
            return linear_rhs(t, y, p)

        model = dataclasses.replace(MODELS["linear"], rhs=strict_rhs)
        time, y0, p = Span(0.0, 20.0), np.array([1e76]), np.array([500.0])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteStateError) as expected:
                _per_step_solve(model, "analytic", p, y0, time, 0.01)
            with pytest.raises(NonFiniteStateError) as got:
                forward_sensitivity_solve(strict_rhs, jacobian_provider(model, "analytic"),
                                          p, y0, time, EulerMethod(0.01))
        assert str(got.value) == str(expected.value)
        assert int(re.search(r"step (\d+)", str(got.value)).group(1)) > sensitivity._BLOCK_LANES
        # the recurrence stopped where the state solve did, on the rhs's error
        causes, error = [], got.value
        while error is not None:
            causes.append(type(error))
            error = error.__context__
        assert FloatingPointError in causes

    @pytest.mark.parametrize("kind", ["analytic", "ad"])
    @pytest.mark.parametrize("model, lanes", [
        (FORCED, 1), (FORCED, 3), (DECAY, 1), (DECAY, 3), (CONSTANT, 1), (CONSTANT, 3),
    ], ids=["reads-t", "reads-t-lanes", "exp-of-t", "exp-of-t-lanes", "constant",
            "constant-lanes"])
    def test_a_model_that_reads_t_or_returns_constants(self, monkeypatch, kind, model, lanes):
        passes = []
        original = sensitivity._two_pass_euler

        def spy(*args):
            passes.append(args[0])
            return original(*args)

        monkeypatch.setattr(sensitivity, "_two_pass_euler", spy)
        rng = np.random.default_rng(23)
        y0 = np.array([1.0, 0.5])[:, None] * rng.uniform(0.5, 1.5, (2, lanes))
        p = np.array([0.3, 0.7])[:, None] * rng.uniform(0.5, 1.5, (2, lanes))
        if lanes == 1:
            y0, p = y0[:, 0], p[:, 0]
        time = self.TIMES["uneven"]
        got = forward_sensitivity_solve(model.rhs, jacobian_provider(model, kind), p, y0, time,
                                        EulerMethod(0.01))
        assert passes == [model.rhs]
        states = got.states if lanes > 1 else got.states[:, None]
        for b in range(lanes):
            reference = _per_step_solve(model, kind, p.reshape(2, -1)[:, b], y0.reshape(2, -1)[:, b],
                                        time, 0.01)
            assert states[:, b].tobytes() == reference.states.tobytes()

    def test_the_fd_hessian_of_a_model_of_constants_is_zero(self):
        # its 12 central points, at p and p/2, run as 24 lanes of one state pass
        args = (np.array([1.0, 0.5]), np.array([0.3, 0.7]), Points(np.linspace(0.0, 2.0, 21)),
                EulerMethod(0.1))
        assert np.array_equal(models.fmain_hessian_fd(*args, model=CONSTANT), np.zeros((4, 4)))
        assert np.array_equal(fmain_hessian(*args, model=CONSTANT), np.zeros((4, 4)))

    @pytest.mark.parametrize("lanes", [1, 2])
    def test_a_right_hand_side_not_known_to_take_lanes_is_stepped_one_point_at_a_time(
            self, monkeypatch, lanes):
        monkeypatch.setattr(sensitivity, "_two_pass_euler", None)
        y0 = np.array([1.0, 0.5])[:, None] * np.array([1.0, 1.5])[:lanes]
        p = np.array([0.3])[:, None] * np.array([1.0, 0.5])[:lanes]
        time = self.TIMES["uneven"]
        aug = _augmented_system(_scalar_rhs, dual_jacobians(), 2, 1)
        got = forward_sensitivity_solve(_scalar_rhs, dual_jacobians(), p if lanes > 1 else p[:, 0],
                                        y0 if lanes > 1 else y0[:, 0], time, EulerMethod(0.01))
        states = got.states if lanes > 1 else got.states[:, None]
        for b in range(lanes):
            x0 = np.concatenate([y0[None, :, b], np.zeros((1, 2)), np.eye(2)])
            reference = run_solver(lambda t, x: aug(t, x, p[:, b]), time, x0, EulerMethod(0.01))
            assert states[:, b].tobytes() == reference.states.tobytes()

    def test_memory_does_not_grow_with_the_substeps(self):
        # the state pass runs one block ahead of the recurrence, so four times the
        # substeps between the same three output rows take no more memory
        model = MODELS["lv"]
        provider = jacobian_provider(model, "analytic")
        time = Points(np.linspace(0.0, 10.0, 3))
        peaks = []
        for dt in (2e-3, 5e-4):
            tracemalloc.start()
            try:
                forward_sensitivity_solve(model.rhs, provider, LV_P, LV_Y0, time, EulerMethod(dt))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # holding the 15000 more states and their times would take about 0.7 MB more
        assert peaks[1] < peaks[0] + 100_000

    @pytest.mark.parametrize("name", list(_LOWERED_MODELS))
    @pytest.mark.parametrize("grid", ["points", "uneven"])
    def test_a_lowered_solve_equals_the_per_step_solve_bitwise(self, name, grid):
        for kind in ("analytic", "ad"):
            aug, p, x0 = _lowered_inputs(name, 3, kind)
            n, k = x0.shape[0], p.shape[0]
            calls = []

            def counted(f, t, x, q):
                calls.append(x.shape)
                return aug.jacobians(f, t, x, q)

            # the wrapper stands for the system's own provider, whose lane contract it keeps
            counted._lane_rhs = aug
            time = self.TIMES[grid]
            # the reference steps the system of the augmented system, one structured
            # Jacobian per step
            outer = _augmented_system(aug, aug.jacobians, n, k)
            reference = [run_solver(lambda t, x: outer(t, x, p[:, b]), time,
                                    np.concatenate([x0[None, :, b], np.zeros((k, n)), np.eye(n)]),
                                    EulerMethod(0.01)) for b in range(3)]
            one = forward_sensitivity_solve(aug, counted, p[:, 0], x0[:, 0], time, EulerMethod(0.01))
            # 301 steps, in blocks of 256 steps of one lane or 85 of three, one call each
            assert calls == [(n, 256), (n, 45)]
            assert one.states.tobytes() == reference[0].states.tobytes(), kind
            calls.clear()
            lanes = forward_sensitivity_solve(aug, counted, p, x0, time, EulerMethod(0.01))
            assert calls == [(n, 3 * steps) for steps in (85, 85, 85, 46)]
            for b in range(3):
                assert lanes.states[:, b].tobytes() == reference[b].states.tobytes(), kind

    @pytest.mark.parametrize("y0, rate", [(1.0, 50.0), (1e76, 500.0)],
                             ids=["sensitivities-first", "state-first"])
    def test_a_non_finite_lowered_step_is_named_as_by_the_per_step_solve(self, y0, rate):
        model = MODELS["linear"]
        aug = _augmented_system(model.rhs, jacobian_provider(model, "analytic"), 1, 1)
        x0, p, time = _rows(np.array([y0]), np.zeros((1, 1)), np.eye(1)).ravel(), np.array([rate]), \
            Span(0.0, 20.0)
        outer = _augmented_system(aug, aug.jacobians, 3, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteStateError) as expected:
                run_solver(lambda t, x: outer(t, x, p), time,
                           np.concatenate([x0[None], np.zeros((1, 3)), np.eye(3)]), EulerMethod(0.01))
            with pytest.raises(NonFiniteStateError) as got:
                forward_sensitivity_solve(aug, aug.jacobians, p, x0, time, EulerMethod(0.01))
        assert str(got.value) == str(expected.value)
        # past the first block of steps
        assert int(re.search(r"step (\d+)", str(got.value)).group(1)) > sensitivity._BLOCK_LANES

    def test_a_lowered_solve_stopped_by_the_models_rhs_names_the_step_of_the_per_step_solve(self):
        # the model's state pass, which feeds the lowered one, meets the error at the
        # step where the per-step solve's provider call meets it; the structured
        # Jacobian runs rhs on duals
        def strict_rhs(t, y, p):
            if not np.isfinite(primal_values(y)).all():
                raise FloatingPointError("non-finite input")
            return linear_rhs(t, y, p)

        model = dataclasses.replace(MODELS["linear"], rhs=strict_rhs)
        aug = _augmented_system(strict_rhs, jacobian_provider(model, "analytic"), 1, 1)
        x0, p = _rows(np.array([1e76]), np.zeros((1, 1)), np.eye(1)).ravel(), np.array([500.0])
        outer = _augmented_system(aug, aug.jacobians, 3, 1)
        time = Span(0.0, 20.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteStateError) as expected:
                run_solver(lambda t, x: outer(t, x, p), time,
                           np.concatenate([x0[None], np.zeros((1, 3)), np.eye(3)]), EulerMethod(0.01))
            with pytest.raises(NonFiniteStateError) as got:
                forward_sensitivity_solve(aug, aug.jacobians, p, x0, time, EulerMethod(0.01))
        assert str(got.value) == str(expected.value)
        assert int(re.search(r"step (\d+)", str(got.value)).group(1)) > sensitivity._BLOCK_LANES
        assert isinstance(got.value.__context__, FloatingPointError)

    @pytest.mark.parametrize("kind", ["analytic", "ad"])
    @pytest.mark.parametrize("y0, rate", [(1.0, 50.0), (1e76, 500.0)],
                             ids=["sensitivities-first", "state-first"])
    def test_a_failing_final_row_solve_names_the_step_of_the_points_solve(self, kind, y0, rate):
        model = MODELS["linear"]
        provider = jacobian_provider(model, kind)
        grid, y0, p = np.linspace(0.0, 20.0, 2001), np.array([y0]), np.array([rate])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteStateError) as expected:
                forward_sensitivity_solve(model.rhs, provider, p, y0, Points(grid), EulerMethod(0.01))
            with pytest.raises(NonFiniteStateError) as got:
                forward_sensitivity_solve(model.rhs, provider, p, y0, _FinalRow(grid),
                                          EulerMethod(0.01))
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("y0, rate", [(1.0, 50.0), (1e76, 500.0)],
                             ids=["sensitivities-first", "state-first"])
    def test_a_failing_final_row_lowered_solve_names_the_step_of_the_points_solve(self, y0, rate):
        model = MODELS["linear"]
        aug = _augmented_system(model.rhs, jacobian_provider(model, "analytic"), 1, 1)
        x0, p = _rows(np.array([y0]), np.zeros((1, 1)), np.eye(1)).ravel(), np.array([rate])
        grid = np.linspace(0.0, 20.0, 2001)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteStateError) as expected:
                forward_sensitivity_solve(aug, aug.jacobians, p, x0, Points(grid), EulerMethod(0.01))
            with pytest.raises(NonFiniteStateError) as got:
                forward_sensitivity_solve(aug, aug.jacobians, p, x0, _FinalRow(grid),
                                          EulerMethod(0.01))
        assert str(got.value) == str(expected.value)

    def test_an_analytic_hessian_of_a_model_that_applies_exp_to_t(self, monkeypatch):
        passes = []
        original = sensitivity._two_pass_euler

        def spy(*args):
            passes.append(args[0])
            return original(*args)

        monkeypatch.setattr(sensitivity, "_two_pass_euler", spy)
        y0, p, time = np.array([1.0, 0.5]), np.array([0.3, 0.7]), Points(np.linspace(0.0, 2.0, 21))
        got = fmain_hessian(y0, p, time, EulerMethod(0.01), model=DECAY)
        # one lowered solve, of the two lanes p and p/2
        assert len(passes) == 1
        # a provider without the model's lane contract steps each lane of the
        # lowered solve with one structured Jacobian per step, at a real t
        monkeypatch.setattr(models, "jacobian_provider",
                            lambda model, kind: analytic_jacobians(model.jac))
        expected = fmain_hessian(y0, p, time, EulerMethod(0.01), model=DECAY)
        assert len(passes) == 1
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["analytic", "ad"])
    def test_a_provider_that_carries_only_the_lane_rhs_takes_the_same_two_passes(
            self, monkeypatch, kind):
        passes = []
        original = sensitivity._two_pass_euler

        def spy(*args):
            passes.append(args[0])
            return original(*args)

        def wrapped_provider(model, kind):
            provider = jacobian_provider(model, kind)

            # a plain function in front of the provider, as a tracer puts one
            def traced(f, t, y, p):
                return provider(f, t, y, p)

            traced._lane_rhs = model.rhs
            return traced

        monkeypatch.setattr(sensitivity, "_two_pass_euler", spy)
        y0, p, time = LV_Y0, LV_P, Points(np.linspace(0.0, 2.0, 21))
        expected = fmain_hessian(y0, p, time, EulerMethod(0.1), model=MODELS["lv"], jac=kind)
        assert len(passes) == 1
        monkeypatch.setattr(models, "jacobian_provider", wrapped_provider)
        got = fmain_hessian(y0, p, time, EulerMethod(0.1), model=MODELS["lv"], jac=kind)
        # the wrapper's lowered solve takes the two passes too
        assert len(passes) == 2
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("jac, method, two_pass", [
        ("analytic", EulerMethod(0.1), True),
        ("ad", EulerMethod(0.1), True),
        # RK23's step control reads the sensitivities
        ("analytic", RK23Method(), False),
    ], ids=["analytic", "ad", "rk23"])
    @pytest.mark.parametrize("name", ["lv", "binding", "triple"])
    def test_which_lowered_hessian_solves_take_two_passes(self, monkeypatch, name, jac, method,
                                                          two_pass):
        passes = []
        original = sensitivity._two_pass_euler

        def spy(*args):
            passes.append(args[0])
            return original(*args)

        monkeypatch.setattr(sensitivity, "_two_pass_euler", spy)
        model = _STRUCTURED_MODELS[name]
        y0, p = np.array(list(model.states.values())), np.array(list(model.params.values()))
        fmain_hessian(y0, p, Points(np.linspace(0.0, 2.0, 21)), method, model=model, jac=jac)
        # under Euler one lowered solve of the lanes p and p/2, of an augmented
        # system with its own provider; RK23 makes two lowered solves, neither in two passes
        assert len(passes) == (1 if two_pass else 0)
        assert all(hasattr(f.jacobians, "_lane_rhs") for f in passes)


def _bits(states):
    """Bytes of every number in a float or dual array: primals, then tangents."""
    flat = np.ravel(states)
    return primal_values(flat).tobytes() + tangent_values(flat).tobytes()


@pytest.mark.parametrize("method", [EulerMethod(0.1), RK23Method()], ids=["euler", "rk23"])
def test_final_row_solves_keep_the_last_row_of_each_layer(method):
    grid = np.linspace(0.0, 5.0, 51)
    provider = jacobian_provider(MODELS["lv"], "analytic")
    dual_p = lift_dual(LV_P, np.eye(4))
    layers = {
        "run_solver": lambda time: run_solver(lambda t, y: lv_rhs(t, y, LV_P), time, LV_Y0,
                                              method).states,
        "forward_sensitivity_solve": lambda time: forward_sensitivity_solve(
            lv_rhs, provider, LV_P, LV_Y0, time, method).states,
        "dual_aware_solve": lambda time: dual_aware_solve(lv_rhs, dual_p, LV_Y0, time,
                                                          method).states,
        # a lowered solve of the augmented system, lifted
        "lifted": lambda time: forward_sensitivity_solve(
            lv_rhs, provider, dual_p, LV_Y0, time, method).states,
    }
    for name, solve in layers.items():
        full, final = solve(Points(grid)), solve(_FinalRow(grid))
        # a plain Points solve still gives every row
        assert len(full) == 51 and len(final) == 1, name
        assert _bits(final) == _bits(full[-1:]), name


def _lowered_inputs(name, b, kind="analytic"):
    """A model's augmented system, with ``b`` lanes of its parameters and flat composite states.

    ``V`` and ``W`` are off their initial 0 and I, as further along a solve.
    """
    model = _LOWERED_MODELS[name]
    m, k = model.state_dim, len(model.params)
    aug = _augmented_system(model.rhs, jacobian_provider(model, kind), m, k)
    rng = np.random.default_rng(29)
    y0 = np.array(list(model.states.values()))[:, None] * rng.uniform(0.5, 1.5, (m, b))
    p = np.array(list(model.params.values()))[:, None] * rng.uniform(0.5, 1.5, (k, b))
    x0 = np.column_stack([_rows(y0[:, j], rng.normal(size=(m, k)),
                                np.eye(m) + 0.1 * rng.normal(size=(m, m))).ravel()
                          for j in range(b)])
    return aug, p, x0


@st.composite
def _lowered_solve(draw):
    """A lowered system and its inputs, a grid of 1 to 50 substeps a gap, plain or
    final-row, and a block size of a few steps, so that blocks end inside gaps."""
    name = draw(st.sampled_from(sorted(_LOWERED_MODELS)))
    kind = draw(st.sampled_from(["analytic", "ad"]))
    lanes = draw(st.sampled_from([1, 2]))
    dt = 0.01
    # a gap of j dt takes j substeps
    subs = draw(st.lists(st.integers(1, 50), min_size=1, max_size=4))
    grid = np.concatenate([[0.0], dt * np.cumsum(subs)])
    time = draw(st.sampled_from([Points, _FinalRow]))(grid)
    return name, kind, lanes, time, dt, draw(st.integers(1, 40))


@given(case=_lowered_solve())
def test_a_lowered_solve_fed_by_the_model_equals_the_per_step_solve_bitwise(case):
    # the state pass of a lowered solve is the model's own two-pass recurrence;
    # the reference steps the lowered system with one structured Jacobian per
    # step, whose state pass calls the model's provider once per step
    name, kind, lanes, time, dt, block_lanes = case
    aug, p, x0 = _lowered_inputs(name, lanes, kind)
    n, k = x0.shape[0], p.shape[0]
    outer = _augmented_system(aug, aug.jacobians, n, k)
    original = sensitivity._BLOCK_LANES
    sensitivity._BLOCK_LANES = block_lanes
    try:
        if lanes == 1:
            got = forward_sensitivity_solve(aug, aug.jacobians, p[:, 0], x0[:, 0], time,
                                            EulerMethod(dt)).states[:, None]
        else:
            got = forward_sensitivity_solve(aug, aug.jacobians, p, x0, time, EulerMethod(dt)).states
    finally:
        sensitivity._BLOCK_LANES = original
    for b in range(lanes):
        start = np.concatenate([x0[None, :, b], np.zeros((k, n)), np.eye(n)])
        reference = run_solver(lambda t, x: outer(t, x, p[:, b]), time, start, EulerMethod(dt))
        assert got[:, b].tobytes() == reference.states.tobytes()


@pytest.mark.parametrize("name", ["lv", "binding", "triple", "decay"])
@pytest.mark.parametrize("layer", ["forward_sensitivity_solve", "dual_aware_solve"])
@settings(max_examples=15)
@given(data=st.data())
def test_every_dual_lane_is_bitwise_its_own_dual_solve(layer, name, data):
    # the lanes lower to one real lane solve, and each is lifted with its own seeds.
    # forward_sensitivity_solve takes the model's inputs; dual_aware_solve the flat
    # composite states of the augmented system, with its own structured provider
    model = _LOWERED_MODELS[name]
    kind = data.draw(st.sampled_from(["analytic", "ad"]))
    aug, p, x0 = _lowered_inputs(name, data.draw(st.integers(1, 3)), kind)
    n = model.state_dim if layer == "forward_sensitivity_solve" else len(x0)
    x = np.concatenate([x0[:n], p])
    # a scalar tangent, or a vector of one or three seed directions
    width = data.draw(st.sampled_from([(), (1,), (3,)]))
    x = lift_dual(x, data.draw(arrays(float, x.shape + width, elements=st.floats(-1.0, 1.0))))
    gaps = data.draw(st.integers(1, 3))
    # Euler with one or four substeps a gap, or RK23
    substeps = data.draw(st.sampled_from([1, 4, None]))
    method, grid = ((RK23Method(), np.linspace(0.0, 0.5, gaps + 1)) if substeps is None
                    else (EulerMethod(0.05), 0.05 * substeps * np.arange(gaps + 1)))
    time = data.draw(st.sampled_from([Points, _FinalRow]))(grid)
    provider = jacobian_provider(model, kind)

    def solve(x):
        if layer == "forward_sensitivity_solve":
            return forward_sensitivity_solve(model.rhs, provider, x[n:], x[:n], time, method).states
        return dual_aware_solve(aug, x[n:], x[:n], time, method).states

    lanes = solve(x)
    for b in range(x.shape[1]):
        # a bundle's lane axis follows the time axis, a trajectory's is last
        lane = lanes[:, b] if layer == "forward_sensitivity_solve" else lanes[..., b]
        assert _bits(lane) == _bits(solve(x[:, b]))


# f = (-a (u + v), a u) with the sum over the whole state: right at one point,
# over lanes it sums every lane
def _summing_rhs(t, y, p):
    return np.array([-p[0] * y.sum(), p[0] * y[0]])


def _summing_jac(t, y, p):
    one, zero = 1.0 + 0.0 * y[0], 0.0 * y[0]
    return np.array([[-p[0] * one, -p[0] * one, -(y[0] + y[1])], [p[0] * one, zero, y[0]]])


class TestLaneContract:
    """Making an ``OdeModel`` checks that its functions keep their lanes apart."""

    def test_a_lane_mixing_model_is_rejected_when_made(self):
        # fmain_gradient_fd and fmain_gradient_cs run their points as lanes of a
        # plain solve, so a model that mixes lanes would give them wrong numbers
        with pytest.raises(ValueError, match=r"model rhs mixes lanes: entry \(0,\) of lane 0"):
            OdeModel(_summing_rhs, _summing_jac, {"u0": 1.0, "v0": 0.5}, {"a": 0.3}, ())

    def test_a_model_without_the_lane_axis_is_rejected_when_made(self):
        # lanes of a plain solve would broadcast it along the wrong axis, or fail
        with pytest.raises(ValueError, match=r"model rhs of 3 lanes returned shape \(2,\); "
                                             r"expected \(2,\) with a last axis of lanes"):
            OdeModel(lambda t, y, p: np.array([1.0, -2.0]),
                     lambda t, y, p: np.zeros((2, 4) + np.shape(y)[1:]),
                     {"u0": 1.0, "v0": 0.5}, {"a": 0.3, "b": 0.7}, ())

    def test_a_jacobian_that_sums_over_lanes_is_rejected(self):
        def jac(t, y, p):
            one, zero = 1.0 + 0.0 * y[0], 0.0 * y[0]
            return np.array([[-p[0] * one, -p[0] * one, -y.sum() * one], [p[0] * one, zero, y[0]]])

        # checked whichever provider the model will take, the AD one included
        with pytest.raises(ValueError, match=r"model jac mixes lanes: entry \(0, 2\) of lane 0"):
            OdeModel(lambda t, y, p: np.array([-p[0] * (y[0] + y[1]), p[0] * y[0]]), jac,
                     {"u0": 1.0, "v0": 0.5}, {"a": 0.3}, ())

    def test_an_output_without_the_lane_axis_is_rejected(self):
        # the same at every lane or not
        for rhs in (lambda t, y, p: np.array([np.ravel(p[0])[0], 0.0]),
                    lambda t, y, p: np.array([0.3, 0.0])):
            with pytest.raises(ValueError, match=r"model rhs of 3 lanes returned shape \(2,\); "
                                                 r"expected \(2,\) with a last axis of lanes"):
                dataclasses.replace(CONSTANT, rhs=rhs)
        # the lane axis first
        with pytest.raises(ValueError, match=r"model rhs of 3 lanes returned shape \(3, 2\); "
                                             r"expected \(2,\) with a last axis of lanes"):
            dataclasses.replace(CONSTANT, rhs=lambda t, y, p: np.transpose([p[0] * y[0], -y[1]]))

    def test_a_wrong_shape_at_one_point_is_named(self):
        with pytest.raises(ValueError, match=re.escape("model jac returned shape (2, 4); "
                                                       "expected (2, 6)")):
            dataclasses.replace(MODELS["lv"], jac=lambda t, y, p: np.zeros((2, 4) + np.shape(y)[1:]))
        with pytest.raises(ValueError, match=re.escape("model rhs returned shape (3,); "
                                                       "expected (2,)")):
            dataclasses.replace(MODELS["lv"], rhs=lambda t, y, p: np.append(lv_rhs(t, y, p), y[:1], 0))

    @pytest.mark.parametrize("model", [*MODELS.values(), *_STRUCTURED_MODELS.values(), FORCED,
                                       DECAY, CONSTANT])
    def test_every_packaged_and_test_model_keeps_the_contract(self, model):
        dataclasses.replace(model)  # made, so checked, once more
        for kind in ("analytic", "ad"):
            assert jacobian_provider(model, kind)._lane_rhs is model.rhs


@pytest.mark.parametrize("name", list(_LOWERED_MODELS))
def test_structured_jacobian_on_lanes_equals_its_per_lane_calls_bitwise(name):
    # the second derivatives come from one lane pass over either provider
    for kind in ("analytic", "ad"):
        aug, p, x = _lowered_inputs(name, 5, kind)
        n, k = x.shape[0], p.shape[0]
        t = np.linspace(0.0, 1.0, 5)
        value, j = aug.jacobians(aug, t, x, p)
        assert value.shape == (n, 5) and j.shape == (n, n + k, 5)
        # the system itself follows the lane contract, as its provider's _lane_rhs
        assert aug.jacobians._lane_rhs is aug
        assert aug(t, x, p).tobytes() == value.tobytes()
        for b in range(5):
            one_value, one_j = aug.jacobians(aug, t[b], x[:, b], p[:, b])
            assert value[:, b].tobytes() == one_value.tobytes(), kind
            assert j[..., b].tobytes() == one_j.tobytes(), kind


@pytest.mark.parametrize("kind", ["analytic", "ad"])
@pytest.mark.parametrize("name", ["lv", "binding", "triple", "decay", "constant"])
@given(data=st.data())
def test_structured_jacobian_first_block_and_value_row_are_the_real_provider_call(
        name, kind, data):
    # the [f_y | f_p] block and the value row are those of the model's provider on reals
    model = _LOWERED_MODELS[name]
    m, k = model.state_dim, len(model.params)
    provider = jacobian_provider(model, kind)
    aug = _augmented_system(model.rhs, provider, m, k)
    lanes = data.draw(st.sampled_from([(), (3,)]), label="lanes")
    entries = st.floats(-1e3, 1e3)
    x = data.draw(arrays(float, ((1 + k + m) * m,) + lanes, elements=entries), label="x")
    p = data.draw(arrays(float, (k,) + lanes, elements=entries), label="p")
    t = data.draw(arrays(float, lanes, elements=st.floats(0.0, 1.0)), label="t")
    t = t if lanes else float(t)
    value, j = aug.jacobians(aug, t, x, p)
    f, first = provider(model.rhs, t, x.reshape((1 + k + m, m) + lanes)[0], p)
    # a right-hand side of constants gives one value for all lanes
    f = np.reshape(f, (m,) + (-1,) * len(lanes))
    assert value[:m].tobytes() == np.broadcast_to(f, (m,) + lanes).tobytes()
    n = (1 + k + m) * m
    assert j[:m, np.r_[:m, n:n + k]].tobytes() == first.tobytes()


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

    def test_vjp_rejects_an_adjoint_off_the_trajectory_shape(self):
        bundle = lv_bundle()
        with pytest.raises(ValueError, match=r"adjoint shape \(10, 2\) does not match"):
            vjp_solution(bundle, np.zeros((10, 2)))

    @pytest.mark.parametrize("n_lanes", [2, 3])
    def test_vjp_rejects_a_lane_bundle(self, n_lanes):
        # each lane has its own adjoints, so a lane bundle has no one pair to return
        scales = np.linspace(1.0, 1.5, n_lanes)
        lanes = forward_sensitivity_solve(
            lv_rhs, jacobian_provider(MODELS["lv"], "analytic"), LV_P[:, None] * scales,
            LV_Y0[:, None] * scales, Points(np.linspace(0.0, 2.0, 21)), EulerMethod(0.1))
        with pytest.raises(ValueError, match=rf"one lane's bundle, not {n_lanes} lanes.*states\[:, b\]"):
            vjp_solution(lanes, np.ones((21, 2)))

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
            tangents = tangent_values(traj.states)
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

    @pytest.mark.parametrize("p_shape, y0_shape", [
        ((4,), (2, 3)),
        ((4, 3), (2, 2)),
        ((4, 2, 1), (2, 2, 1)),
    ], ids=["lanes of y0", "other lane count", "3-D"])
    def test_inputs_with_lanes_are_rejected(self, p_shape, y0_shape):
        # lanes of both, B of each, are lanes of the lowered solve (see
        # test_every_dual_lane_is_bitwise_its_own_dual_solve); no other pair of shapes is
        p = np.resize(LV_P, p_shape[::-1]).T
        y0 = lift_dual(np.resize(LV_Y0, y0_shape[::-1]).T, np.ones(y0_shape))
        message = re.escape(f"y0 of shape {y0_shape} and p of shape {p_shape} are not one input")
        with pytest.raises(ValueError, match=message):
            dual_aware_solve(lv_rhs, p, y0, Points(np.linspace(0.0, 2.0, 21)), EulerMethod(0.1))

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
            return tangent_values(tangent_values(traj.states))

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
