import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from odesens import solvers
from odesens.models import lv_jac_p, lv_jac_y, lv_rhs
from odesens.scalars import Dual1, is_finite_scalar, lift_dual, primal_values, tangent_values
from odesens.sensitivity import _augmented_system, analytic_jacobians
from odesens.solvers import (
    MaxStepsExceededError,
    NonFiniteStateError,
    Points,
    RK23Method,
    Span,
    StepUnderflowError,
    Trajectory,
    euler_solve,
    hermite_interp,
    rk23_solve,
    rk23_step,
)

LV_P = np.array([0.015, 1e-4, 0.03, 1e-4])


def lv(t, y):
    return lv_rhs(t, y, LV_P)


def expgrow(t, y):
    return y.copy()


def _bits(states):
    """Bytes of every number in a float or dual array: primals, then tangents."""
    if states.dtype != object:
        return states.tobytes()
    flat = states.ravel()
    return primal_values(flat).tobytes() + tangent_values(flat).tobytes()


class TestTimeSpecs:
    def test_span_requires_increasing_window(self):
        with pytest.raises(ValueError):
            Span(1.0, 1.0)

    def test_points_must_increase(self):
        with pytest.raises(ValueError):
            Points(np.array([0.0, 2.0, 1.0]))

    def test_times_must_be_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Span(0.0, math.inf)
        with pytest.raises(ValueError, match="finite"):
            Points(np.array([0.0, math.inf]))

    def test_single_point_grid_is_allowed(self):
        spec = Points(np.array([0.0]))
        assert spec.times.shape == (1,)

    def test_span_endpoints_become_python_floats(self):
        span = Span(np.float64(0), np.int64(1000))
        assert type(span.t0) is float and type(span.t_end) is float
        with pytest.raises(TypeError):
            Span("0", 1.0)
        # with numpy endpoints, t0 + dt * n_full would meet a 10^303 Python int
        with pytest.raises(MaxStepsExceededError, match="above the budget"):
            euler_solve(expgrow, Span(np.float64(0), np.float64(1000)), np.array([1.0]), 1e-300)


class TestEuler:
    def test_first_step_matches_hand_evaluation(self):
        traj = euler_solve(lv, Span(0.0, 1.0), np.array([1000.0, 20.0]), 0.1)
        assert traj.states[0] == pytest.approx([1000.0, 20.0], abs=0.0)
        assert traj.states[1] == pytest.approx([1001.3, 20.14], rel=1e-15)

    def test_zero_rhs_keeps_state(self):
        traj = euler_solve(lambda t, y: 0.0 * y, Span(0.0, 2.0), np.array([3.0, -1.0]), 0.3)
        assert np.all(traj.states == traj.states[0])
        assert traj.times[-1] == 2.0

    def test_exponential_first_order_convergence(self):
        # y' = a*y, a = 0.5, y0 = 2 -> y(1) = 2*e^0.5
        exact = 2.0 * math.exp(0.5)
        errors = []
        for dt in (1e-2, 5e-3):
            traj = euler_solve(lambda t, y: 0.5 * y, Span(0.0, 1.0), np.array([2.0]), dt)
            errors.append(abs(traj.states[-1, 0] - exact))
        assert exact == pytest.approx(3.29744254, abs=5e-9)
        assert 1.8 <= errors[0] / errors[1] <= 2.2

    def test_points_mode_rows_at_requested_times(self):
        pts = np.linspace(0.0, 1.0, 11)
        traj = euler_solve(lv, Points(pts), np.array([1000.0, 20.0]), 0.1)
        assert np.array_equal(traj.times, pts)
        assert traj.states.shape == (11, 2)
        # first interval is exactly one 0.1 step
        assert traj.states[1] == pytest.approx([1001.3, 20.14], rel=1e-15)

    def test_span_final_step_shortened(self):
        traj = euler_solve(lambda t, y: 0.0 * y, Span(0.0, 0.25), np.array([1.0]), 0.1)
        assert traj.times[-1] == 0.25
        assert np.all(np.diff(traj.times) > 0.0)

    def test_invalid_dt(self):
        with pytest.raises(ValueError):
            euler_solve(lv, Span(0.0, 1.0), np.array([1.0, 1.0]), 0.0)

    @pytest.mark.parametrize("time", [Span(0.0, 5.0), Points(np.array([0.0, 2.0, 5.0]))])
    @pytest.mark.parametrize("dt", [math.inf, math.nan])
    def test_non_finite_dt_rejected_before_stepping(self, time, dt):
        calls = []

        def counted(t, y):
            calls.append(t)
            return y

        with pytest.raises(ValueError, match="dt must be positive and finite"):
            euler_solve(counted, time, np.array([1.0]), dt)
        assert calls == []

    @pytest.mark.parametrize("time, dt", [
        (Span(0.0, 1000.0), 1e-300),
        (Points(np.linspace(0.0, 1000.0, 11)), 1e-300),
        (Span(0.0, 1000.0), 5e-324),  # the step count overflows to inf
        (Span(0.0, 1.0), 1e-6 * (1.0 - 1e-6)),  # one step above the budget
    ])
    def test_step_budget_raises_before_stepping(self, time, dt):
        calls = []

        def counted(t, y):
            calls.append(t)
            return y

        with pytest.raises(MaxStepsExceededError, match=f"dt = {dt!r}"):
            euler_solve(counted, time, np.array([1.0]), dt)
        assert calls == []

    def test_non_finite_state_reported(self):
        def blowup(t, y):
            with np.errstate(over="ignore"):
                return y * y * 1e200

        # step 1 gives 1e199, step 2 overflows
        with pytest.raises(NonFiniteStateError, match=r"at step 2 \("):
            euler_solve(blowup, Span(0.0, 1.0), np.array([1.0]), 0.1)

    def test_dual_lanes_equal_one_lane_solves_and_are_checked_for_finiteness(self):
        lanes = np.array([[Dual1(1.0, 1.0), Dual1(2.0, 0.5)]], dtype=object)
        traj = euler_solve(lambda t, y: 0.5 * y, Span(0.0, 1.0), lanes, 0.1)
        assert traj.states.shape == (11, 1, 2)
        for b in range(2):
            one = euler_solve(lambda t, y: 0.5 * y, Span(0.0, 1.0), lanes[:, b], 0.1)
            assert np.array_equal(primal_values(traj.states[:, 0, b]), primal_values(one.states[:, 0]))
            assert np.array_equal(tangent_values(traj.states[:, 0, b]), tangent_values(one.states[:, 0]))
        # only the tangent of the second lane overflows, in the first step
        lanes = np.array([[Dual1(1.0, 1.0), Dual1(1.0, 1e300)]], dtype=object)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError, match=r"at step 1 \("):
            euler_solve(lambda t, y: 1e10 * y, Span(0.0, 1.0), lanes, 0.1)

    def test_blow_up_on_points_names_the_step_that_ends_the_first_bad_gap(self):
        def blowup(t, y):
            with np.errstate(over="ignore"):
                return y * y * 1e200

        # the first gap takes three substeps and overflows in its second
        with pytest.raises(NonFiniteStateError, match=r"at step 3 \("):
            euler_solve(blowup, Points(np.array([0.0, 0.25, 0.5, 1.0])), np.array([1.0]), 0.1)

    @pytest.mark.parametrize("time, step", [
        (Span(0.0, 1.0), 1),
        (Points(np.linspace(0.0, 1.0, 4)), 4),  # gaps of 1/3 take four 0.1 substeps
    ])
    def test_non_finite_initial_state_is_reported_at_the_first_row_after_it(self, time, step):
        with pytest.raises(NonFiniteStateError, match=rf"at step {step} \("):
            euler_solve(lambda t, y: -y, time, np.array([math.nan, 1.0]), 0.1)

    def test_one_point_grid_returns_the_initial_state_unchecked(self):
        traj = euler_solve(lambda t, y: -y, Points(np.array([2.0])), np.array([math.nan, 1.0]), 0.1)
        assert traj.times.tolist() == [2.0]
        assert math.isnan(traj.states[0, 0]) and traj.states[0, 1] == 1.0

    def test_rhs_that_rejects_a_non_finite_state_still_gets_the_step_reported(self):
        def strict_blowup(t, y):
            if not np.isfinite(y).all():
                raise ValueError("the rhs got a non-finite state")
            with np.errstate(over="ignore"):
                return y * y * 1e200

        # step 2 overflows; step 3 would hand the rhs an infinite state
        with pytest.raises(NonFiniteStateError, match=r"at step 2 \("):
            euler_solve(strict_blowup, Span(0.0, 1.0), np.array([1.0]), 0.1)

    def test_points_solve_keeps_no_per_substep_table(self):
        tracemalloc.start()
        try:
            traj = euler_solve(lambda t, y: -y, Points(np.array([0.0, 1.0])), np.array([1.0]), 1e-5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert traj.states[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-4)
        # 100,000 substeps: a table of one float per substep alone would hold 2.4 MB
        assert peak < 1_000_000


def _reference_euler(rhs, time, y0, dt):
    """Euler as two loops, one per time spec, checked after every gap: the reference."""

    def check(v, step, t):
        if not all(is_finite_scalar(x) for x in v.flat):
            raise NonFiniteStateError(f"non-finite state at step {step} (t = {t!r})")

    y = np.array(y0)
    step = 0
    if isinstance(time, Points):
        pts = time.times
        n_subs = np.maximum(1.0, np.ceil((np.diff(pts) / dt) * (1.0 - 1e-12)))
        rows = [y]
        for a, b, n_sub in zip(pts[:-1], pts[1:], n_subs.astype(int).tolist()):
            h = (b - a) / n_sub
            for j in range(n_sub):
                y = y + h * rhs(a + j * h, y)
                step += 1
            check(y, step, b)
            rows.append(y)
        return Trajectory(pts.copy(), np.array(rows))

    span = time.t_end - time.t0
    q = span / dt
    n_full = math.floor(q)
    if q - n_full > 1.0 - 1e-9:
        n_full += 1
    n_steps = n_full + (time.t_end - (time.t0 + dt * n_full) > dt * 1e-9)
    times = time.t0 + dt * np.arange(n_full + 1)
    if n_steps > n_full:
        times = np.append(times, time.t_end)
    times[-1] = time.t_end
    rows = [y]
    for k in range(n_steps):
        h = times[k + 1] - times[k]
        y = y + h * rhs(times[k], y)
        step += 1
        check(y, step, times[k + 1])
        rows.append(y)
    return Trajectory(times, np.array(rows))


@st.composite
def _euler_cases(draw):
    """A float, complex or dual state, one lane or ``(m, B)`` lanes, and a time spec."""
    kind = draw(st.sampled_from(["float", "complex", "dual"]))
    shape = (draw(st.integers(1, 3)),) + draw(st.sampled_from([(), (1,), (3,)]))
    values = draw(arrays(float, shape, elements=st.floats(-1.5, 1.5)))
    extra = draw(arrays(float, shape, elements=st.floats(-1.0, 1.0)))
    if kind == "complex":
        y0 = values + 1j * extra
    elif kind == "dual":
        y0 = np.array([Dual1(v, e) for v, e in zip(values.flat, extra.flat)], dtype=object)
        y0 = y0.reshape(shape)
    else:
        y0 = values
    dt = draw(st.floats(0.05, 0.5))
    t0 = draw(st.floats(-3.0, 3.0))
    if draw(st.booleans()):
        # whole steps plus a shortened last one
        time = Span(t0, t0 + dt * (draw(st.integers(0, 12)) + draw(st.floats(0.1, 0.9))))
    else:
        # uneven gaps, up to 20 substeps each, and down to a one-point grid
        gaps = draw(st.lists(st.floats(0.01, 1.0), max_size=5))
        time = Points(t0 + np.concatenate([[0.0], np.cumsum(gaps)]))
    return y0, dt, time


@given(_euler_cases())
def test_euler_equals_the_two_loop_reference_bitwise(case):
    y0, dt, time = case

    def recorded(calls):
        def rhs(t, y):
            calls.append(t)
            return 0.5 * y - 0.2 * y * y * y + 0.1 * t
        return rhs

    got_t, ref_t = [], []
    got = euler_solve(recorded(got_t), time, y0, dt)
    ref = _reference_euler(recorded(ref_t), time, y0, dt)
    assert got.times.tobytes() == ref.times.tobytes()
    assert got.states.dtype == ref.states.dtype and got.states.shape == ref.states.shape
    assert _bits(got.states) == _bits(ref.states)
    assert np.array(got_t).tobytes() == np.array(ref_t).tobytes()


@st.composite
def _lv_lanes(draw):
    """Random positive LV columns ``(y0 || p)``, a step size and an output grid."""
    n_lanes = draw(st.integers(1, 4))
    y0 = draw(arrays(float, (2, n_lanes), elements=st.floats(1.0, 2000.0)))
    rates = draw(arrays(float, (2, n_lanes), elements=st.floats(1e-3, 0.1)))
    gammas = draw(arrays(float, (2, n_lanes), elements=st.floats(1e-7, 1e-5)))
    # (eps1, gamma1, eps2, gamma2): small enough that no lane leaves the finite range
    p = np.stack([rates[0], gammas[0], rates[1], gammas[1]])
    t_end = draw(st.floats(0.5, 10.0))
    dt = draw(st.floats(0.01, 0.5))
    n_points = draw(st.integers(1, 12))
    return y0, p, dt, t_end, n_points


@given(_lv_lanes())
def test_euler_lanes_equal_one_column_solves_bitwise(case):
    y0, p, dt, t_end, n_points = case
    for time in (Span(0.0, t_end), Points(np.linspace(0.0, t_end, n_points))):
        lanes = euler_solve(lambda t, y: lv_rhs(t, y, p), time, y0, dt)
        for b in range(y0.shape[1]):
            one = euler_solve(lambda t, y: lv_rhs(t, y, p[:, b]), time, y0[:, b], dt)
            assert lanes.times.tobytes() == one.times.tobytes()
            assert lanes.states[..., b].tobytes() == one.states.tobytes()


class TestRK23Step:
    def test_zero_rhs(self):
        y_next, err, k4 = rk23_step(lambda t, y: 0.0 * y, 0.0, np.array([2.0]), 0.5)
        assert y_next[0] == 2.0
        assert err[0] == 0.0
        assert k4[0] == 0.0

    def test_constant_rhs_is_exact(self):
        y_next, err, _ = rk23_step(lambda t, y: np.ones(1), 0.0, np.array([1.0]), 0.25)
        assert y_next[0] == pytest.approx(1.25, abs=1e-15)
        assert abs(err[0]) <= 1e-16

    def test_exponential_tableau_value(self):
        y_next, _, _ = rk23_step(expgrow, 0.0, np.array([1.0]), 0.1)
        assert y_next[0] == pytest.approx(1.10516667, abs=5e-9)
        assert abs(y_next[0] - math.exp(0.1)) <= 5e-6

    def test_third_order_error_ratio_under_step_halving(self):
        # fixed-step runs built from raw steps on y' = y
        def endpoint_error(h):
            y = np.array([1.0])
            t = 0.0
            n = round(1.0 / h)
            for _ in range(n):
                y, _, _ = rk23_step(expgrow, t, y, h)
                t += h
            return abs(y[0] - math.e)

        ratio = endpoint_error(0.05) / endpoint_error(0.025)
        assert 6.5 <= ratio <= 9.5


class TestRK23Solve:
    def test_zero_rhs_points(self):
        traj = rk23_solve(lambda t, y: 0.0 * y, Points(np.array([0.0, 1.0, 2.0])),
                          np.array([5.0, 6.0]))
        assert traj.states.shape == (3, 2)
        assert np.all(traj.states == np.array([5.0, 6.0]))

    def test_exponential_oracle(self):
        tol = RK23Method(rel_tol=1e-6, abs_tol=1e-9)
        traj = rk23_solve(expgrow, Points(np.array([0.0, 1.0])), np.array([1.0]), tol)
        assert abs(traj.states[-1, 0] - math.e) <= 1e-5

    def test_tolerance_monotonicity(self):
        def end_error(rel_tol):
            tol = RK23Method(rel_tol=rel_tol, abs_tol=1e-12)
            traj = rk23_solve(expgrow, Points(np.array([0.0, 5.0])), np.array([1.0]), tol)
            return abs(traj.states[-1, 0] - math.exp(5.0))

        assert end_error(1e-3) / end_error(1e-5) >= 10.0

    def test_points_equal_span_plus_interpolation_bitwise(self):
        pts = np.linspace(0.0, 50.0, 37)
        tol = RK23Method()
        got = rk23_solve(lv, Points(pts), np.array([1000.0, 20.0]), tol)
        span = rk23_solve(lv, Span(0.0, 50.0), np.array([1000.0, 20.0]), tol)
        knot_f = np.array([lv(t, y) for t, y in zip(span.times, span.states)])
        for i, t in enumerate(pts):
            idx = int(np.searchsorted(span.times, t, side="right")) - 1
            if idx == len(span.times) - 1 or span.times[idx] == t:
                expected = span.states[idx]
            else:
                expected = hermite_interp(
                    span.times[idx], span.states[idx], knot_f[idx],
                    span.times[idx + 1], span.states[idx + 1], knot_f[idx + 1], float(t),
                )
            assert np.array_equal(got.states[i], expected)

    def test_lv_oscillation_predator_lags_prey(self):
        pts = np.linspace(0.0, 1000.0, 1001)
        traj = rk23_solve(lv, Points(pts), np.array([1000.0, 20.0]))
        prey = traj.states[:, 0]
        predator = traj.states[:, 1]

        def first_peak(series):
            for i in range(1, len(series) - 1):
                if series[i] > series[i - 1] and series[i] > series[i + 1]:
                    return i
            raise AssertionError("no interior peak found")

        assert first_peak(predator) > first_peak(prey)
        # populations oscillate: prey must rise back above its start at least once
        assert prey.max() > prey[0]
        assert prey.min() < prey[0]

    def test_max_steps_budget(self, monkeypatch):
        monkeypatch.setattr(solvers, "_MAX_STEPS", 5)
        tol = RK23Method(rel_tol=1e-10, abs_tol=1e-12)
        with pytest.raises(MaxStepsExceededError):
            rk23_solve(lv, Span(0.0, 1000.0), np.array([1000.0, 20.0]), tol)

    def test_step_underflow_on_unresolvable_rhs(self):
        # stage samples of this oscillation decorrelate for any resolvable h,
        # so the controller shrinks the step below the floating-point floor
        def noisy(t, y):
            return np.array([1e12 * math.cos(1e18 * t)])

        with pytest.raises(StepUnderflowError):
            rk23_solve(noisy, Span(1.0, 2.0), np.array([0.0]))
        # the floor scales with the span too, so it also holds near t = 0
        with pytest.raises(StepUnderflowError):
            rk23_solve(noisy, Span(0.0, 1.0), np.array([0.0]))

    def test_failures_name_the_step_t_and_h_as_plain_floats(self, monkeypatch):
        def blowup(t, y):
            with np.errstate(over="ignore"):
                return y * y * 1e200

        where = r"at step \d+ \(t = [-+.e\d]+, h = [-+.e\d]+\)$"
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteStateError, match="non-finite state " + where):
            rk23_solve(blowup, Span(0.0, 1.0), np.array([1.0]))
        with pytest.raises(NonFiniteStateError, match=r"at step 0 \(t = 0.0, h = "):
            rk23_solve(lambda t, y: np.array([math.inf]), Span(0.0, 1.0), np.array([1.0]))
        with monkeypatch.context() as patch:
            patch.setattr(solvers, "_MAX_STEPS", 5)
            tol = RK23Method(rel_tol=1e-10, abs_tol=1e-12)
            with pytest.raises(MaxStepsExceededError, match="exceeded 5 step attempts at step 6 \\(t = "):
                rk23_solve(lv, Span(0.0, 1000.0), np.array([1000.0, 20.0]), tol)
        with pytest.raises(StepUnderflowError, match="step size underflow " + where):
            rk23_solve(lambda t, y: np.array([1e12 * math.cos(1e18 * t)]), Span(1.0, 2.0),
                       np.array([0.0]))
        with pytest.raises(NonFiniteStateError, match=r"at step 2 \(t = 0.2, h = 0.1\)$"):
            euler_solve(blowup, Span(0.0, 1.0), np.array([1.0]), 0.1)

    def test_zero_start_over_long_span_completes(self):
        # y0 = 0 gives the smallest start step, far below the span-scaled
        # floor; accepted steps grow from it without tripping the guard
        traj = rk23_solve(lambda t, y: np.ones(1), Span(0.0, 100.0), np.array([0.0]))
        assert traj.times[-1] == 100.0
        assert traj.states[-1, 0] == pytest.approx(100.0)

    def test_tolerance_config_validation(self):
        with pytest.raises(ValueError, match="rel_tol must be positive, got 0.0"):
            RK23Method(rel_tol=0.0)
        with pytest.raises(ValueError, match="abs_tol must be positive, got -1.0"):
            RK23Method(abs_tol=-1.0)
        with pytest.raises(ValueError, match="rel_tol must be finite"):
            RK23Method(rel_tol=math.inf)
        with pytest.raises(ValueError, match="abs_tol must be finite"):
            RK23Method(abs_tol=math.nan)

    def test_composite_state_equals_its_ravel_bitwise(self):
        # the (7, 2) composite of the LV sensitivity system is one coupled system
        aug = _augmented_system(lv_rhs, analytic_jacobians(lv_jac_y, lv_jac_p), 2, 4)
        x0 = np.concatenate([[[1000.0, 20.0]], np.zeros((4, 2)), np.eye(2)])
        seeds = np.random.default_rng(41).uniform(-1.0, 1.0, (7, 2))
        for start in (x0, lift_dual(x0, seeds)):
            for time in (Span(0.0, 20.0), Points(np.linspace(0.0, 20.0, 9))):
                shapes = []

                def rhs(t, x):
                    shapes.append(x.shape)
                    return aug(t, x, LV_P)

                composite = rk23_solve(rhs, time, start)
                flat = rk23_solve(rhs, time, start.ravel())
                assert composite.states.shape == (composite.times.shape[0], 7, 2)
                assert composite.times.tobytes() == flat.times.tobytes()
                assert _bits(composite.states) == _bits(flat.states)
                assert shapes.count((7, 2)) == shapes.count((14,)) > 4

    def test_single_point_grid_returns_initial_state(self):
        traj = rk23_solve(lv, Points(np.array([0.0])), np.array([1000.0, 20.0]))
        assert traj.states.shape == (1, 2)
        assert np.array_equal(traj.states[0], np.array([1000.0, 20.0]))


class TestHermite:
    def test_endpoint_exact(self):
        y = hermite_interp(0.0, np.array([1.0, 2.0]), np.array([0.5, 0.5]),
                           1.0, np.array([3.0, 4.0]), np.array([0.5, 0.5]), 0.0)
        assert np.array_equal(y, np.array([1.0, 2.0]))

    def test_linear_data(self):
        slope = np.array([2.0])
        y = hermite_interp(0.0, np.array([1.0]), slope, 2.0, np.array([5.0]), slope, 0.75)
        assert y[0] == pytest.approx(1.0 + 2.0 * 0.75, rel=1e-15)

    def test_cubic_reproduced_exactly(self):
        # y(t) = t^3 on [0, 1]
        y = hermite_interp(0.0, np.array([0.0]), np.array([0.0]),
                           1.0, np.array([1.0]), np.array([3.0]), 0.5)
        assert y[0] == 0.125

    def test_query_outside_interval(self):
        with pytest.raises(ValueError):
            hermite_interp(0.0, np.array([0.0]), np.array([0.0]),
                           1.0, np.array([1.0]), np.array([1.0]), 1.5)

    def test_empty_interval(self):
        with pytest.raises(ValueError, match="empty"):
            hermite_interp(1.0, np.array([0.0]), np.array([0.0]),
                           1.0, np.array([1.0]), np.array([1.0]), 1.0)


class TestScalarKindGenericity:
    def test_euler_runs_on_complex_states(self):
        y0 = np.array([1.0 + 1e-30j, 2.0])
        traj = euler_solve(expgrow, Span(0.0, 1.0), y0, 0.05)
        assert traj.states.dtype == np.complex128
        assert traj.states[-1, 0].imag > 0.0

    def test_euler_runs_on_dual_states(self):
        y0 = np.array([Dual1(2.0, 1.0)], dtype=object)
        traj = euler_solve(lambda t, y: 0.5 * y, Span(0.0, 1.0), y0, 0.01)
        primal = primal_values(traj.states[-1])[0]
        tangent = tangent_values(traj.states[-1])[0]
        # d/dy0 of the discrete Euler map is exactly solution/y0 for a linear system
        assert tangent == pytest.approx(primal / 2.0, rel=1e-14)

    def test_rk23_runs_on_dual_states(self):
        y0 = np.array([Dual1(1.0, 1.0)], dtype=object)
        traj = rk23_solve(expgrow, Points(np.array([0.0, 1.0])), y0,
                          RK23Method(rel_tol=1e-6, abs_tol=1e-9))
        primal = primal_values(traj.states[-1])[0]
        tangent = tangent_values(traj.states[-1])[0]
        assert abs(primal - math.e) <= 1e-5
        assert abs(tangent - math.e) <= 1e-5


def test_trajectory_rows_match_times():
    pts = np.linspace(0.0, 10.0, 21)
    traj = euler_solve(lv, Points(pts), np.array([1000.0, 20.0]), 0.1)
    assert isinstance(traj, Trajectory)
    assert traj.times[0] == 0.0
    assert np.array_equal(traj.states[0], np.array([1000.0, 20.0]))
    assert traj.times.shape[0] == traj.states.shape[0]
