"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.  The reference scenario is the default one (rates
(0.015, 1e-4, 0.03, 1e-4), initial populations (1000, 20), window
[0, 1000] sampled at 10001 points, Euler step 0.1).
"""

import math
import time

import numpy as np
import pytest

from odesens.cli import main as cli_main
from odesens.diffmethods import cross_compare
from odesens.models import (
    MODELS,
    Scenario,
    fmain_gradient_fd,
    fmain_gradient_forward,
    fmain_gradient_reverse,
    fmain_hessian,
    fmain_hessian_fd,
    linear_rhs,
)
from odesens.sensitivity import dual_jacobians, forward_sensitivity_solve, jvp_solution, vjp_solution
from odesens.solvers import (
    EulerMethod,
    Points,
    RK23Method,
    Span,
    euler_solve,
    rk23_step,
)

Y0 = np.array([1000.0, 20.0])
P = np.array([0.015, 1e-4, 0.03, 1e-4])
LV = MODELS["lv"]
FULL_POINTS = Points(np.linspace(0.0, 1000.0, 10001))


def _criterion(num: int, description: str, checks):
    ok = all(flag for flag, _ in checks)
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {description}")
    for flag, detail in checks:
        if not flag:
            print(f"  failed check: {detail}")
    assert ok, f"criterion {num} failed"


@pytest.fixture(scope="module")
def euler_table():
    start = time.perf_counter()
    table = cross_compare(Scenario())
    return table, time.perf_counter() - start


@pytest.fixture(scope="module")
def rk23_table():
    return cross_compare(Scenario(solver="rk23"))


@pytest.fixture(scope="module")
def euler_bundle():
    from odesens.models import lv_jac, lv_rhs
    from odesens.sensitivity import analytic_jacobians

    return forward_sensitivity_solve(
        lv_rhs, analytic_jacobians(lv_jac), P, Y0, FULL_POINTS, EulerMethod(0.1)
    )


def test_criterion_1_euler_cross_table(euler_table):
    table, elapsed = euler_table
    an_ad = table["analytic", "ad"]
    an_cs = table["analytic", "cs"]
    an_fd = table["analytic", "fd"]
    _criterion(1, "explicit-Euler cross-method table", [
        (elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s budget"),
        (an_ad <= 1e-13, f"analytic vs ad = {an_ad:g} > 1e-13"),
        (an_cs <= 1e-12, f"analytic vs cs = {an_cs:g} > 1e-12"),
        (1e-8 <= an_fd <= 1e-4, f"analytic vs fd = {an_fd:g} outside [1e-8, 1e-4]"),
    ])


def test_criterion_2_rk23_cross_table(euler_table, rk23_table):
    e_table, _ = euler_table
    r_table = rk23_table
    an_ad = r_table["analytic", "ad"]
    an_fd = r_table["analytic", "fd"]
    an_cs = r_table["analytic", "cs"]
    fd_cs = r_table["fd", "cs"]
    _criterion(2, "adaptive-solver cross-method table and step-adaptivity blowup", [
        (an_ad <= 1e-13, f"analytic vs ad = {an_ad:g} > 1e-13"),
        (fd_cs < an_fd, f"fd vs cs = {fd_cs:g} not below analytic vs fd = {an_fd:g}"),
        (fd_cs < an_cs, f"fd vs cs = {fd_cs:g} not below analytic vs cs = {an_cs:g}"),
        (an_fd >= 10.0 * e_table["analytic", "fd"],
         "adaptive fd deviation not 10x the fixed-step one"),
        (an_cs >= 10.0 * e_table["analytic", "cs"],
         "adaptive cs deviation not 10x the fixed-step one"),
    ])


def test_criterion_3_closed_form_linear_oracle():
    a, y0 = 0.5, 2.0
    bundle = forward_sensitivity_solve(
        linear_rhs, dual_jacobians(), np.array([a]), np.array([y0]),
        Points(np.array([0.0, 1.0])),
        RK23Method(rel_tol=1e-8, abs_tol=1e-12),
    )
    v_exact = 1.0 * y0 * math.exp(a * 1.0)
    w_exact = math.exp(a * 1.0)
    v_err = abs(bundle.dy_dp[-1, 0, 0] - v_exact) / v_exact
    w_err = abs(bundle.dy_dy0[-1, 0, 0] - w_exact) / w_exact
    _criterion(3, "closed-form sensitivities of y' = a*y", [
        (v_err <= 1e-6, f"parameter sensitivity error {v_err:g} > 1e-6"),
        (w_err <= 1e-6, f"initial-value sensitivity error {w_err:g} > 1e-6"),
    ])


def test_criterion_4_adjoint_identity(euler_bundle):
    rng = np.random.default_rng(2024)
    n = euler_bundle.times.shape[0]
    worst = 0.0
    for _ in range(50):
        g_y0 = rng.normal(size=2)
        g_p = rng.normal(size=4)
        adjoint = rng.normal(size=(n, 2))
        forward = float(np.sum(adjoint * jvp_solution(euler_bundle, g_y0, g_p)))
        a_y0, a_p = vjp_solution(euler_bundle, adjoint)
        reverse = float(a_y0 @ g_y0 + a_p @ g_p)
        worst = max(worst, abs(forward - reverse) / abs(forward))
    _criterion(4, "bilinear adjoint identity over 50 random seed/adjoint pairs", [
        (worst <= 1e-13, f"worst relative defect {worst:g} > 1e-13"),
    ])


def test_criterion_5_objective_gradients():
    method = EulerMethod(0.1)
    fm = fmain_gradient_forward(Y0, P, FULL_POINTS, method, model=LV)
    rm = fmain_gradient_reverse(Y0, P, FULL_POINTS, method, model=LV)
    fd = fmain_gradient_fd(Y0, P, FULL_POINTS, method, model=LV)
    fm_rm = np.max(np.abs(fm - rm) / np.maximum(np.abs(rm), 1e-300))
    fm_fd = np.max(np.abs(fm - fd) / np.maximum(np.abs(fd), 1e-300))
    rm_fd = np.max(np.abs(rm - fd) / np.maximum(np.abs(fd), 1e-300))
    _criterion(5, "objective gradients: forward vs reverse vs central differences", [
        (fm_rm <= 1e-12, f"forward vs reverse {fm_rm:g} > 1e-12"),
        (fm_fd <= 1e-5, f"forward vs central-fd {fm_fd:g} > 1e-5"),
        (rm_fd <= 1e-5, f"reverse vs central-fd {rm_fd:g} > 1e-5"),
    ])


def test_criterion_6_hessian_forward_over_reverse():
    time_spec = Points(np.linspace(0.0, 50.0, 501))
    method = EulerMethod(0.1)
    hess = fmain_hessian(Y0, P, time_spec, method, model=LV)
    hess_fd = fmain_hessian_fd(Y0, P, time_spec, method, model=LV)
    sym = np.linalg.norm(hess - hess.T) / np.linalg.norm(hess)
    vs_fd = np.linalg.norm(hess - hess_fd) / np.linalg.norm(hess)

    rk_spec = Points(np.linspace(0.0, 20.0, 201))
    rk_hess = fmain_hessian(Y0, P, rk_spec, RK23Method(), model=LV)
    _criterion(6, "forward-over-reverse Hessian (incl. adaptive-solver dispatch)", [
        (sym <= 1e-10, f"symmetry defect {sym:g} > 1e-10"),
        (vs_fd <= 1e-5, f"vs differenced gradient {vs_fd:g} > 1e-5"),
        (rk_hess.shape == (6, 6) and bool(np.all(np.isfinite(rk_hess))),
         "adaptive-solver Hessian did not complete with finite entries"),
    ])


def test_criterion_7_solver_orders():
    exact = math.e

    def euler_error(dt):
        traj = euler_solve(lambda t, y: y.copy(), Span(0.0, 1.0), np.array([1.0]), dt)
        return abs(traj.states[-1, 0] - exact)

    euler_ratio = euler_error(1e-2) / euler_error(5e-3)

    def rk_error(h):
        y = np.array([1.0])
        t = 0.0
        for _ in range(round(1.0 / h)):
            y, _, _ = rk23_step(lambda tt, yy: yy.copy(), t, y, h)
            t += h
        return abs(y[0] - exact)

    rk_ratio = rk_error(0.05) / rk_error(0.025)
    _criterion(7, "order of accuracy under step halving", [
        (1.8 <= euler_ratio <= 2.2, f"Euler error ratio {euler_ratio:g} outside [1.8, 2.2]"),
        (6.5 <= rk_ratio <= 9.5, f"fixed-step RK error ratio {rk_ratio:g} outside [6.5, 9.5]"),
    ])


def test_criterion_8_sensitivity_csv_initial_row(tmp_path, capsys):
    checks = []
    cases = [
        ("euler", "analytic", ["--t-end", "50", "--n-points", "51"]),
        ("euler", "ad", ["--t-end", "50", "--n-points", "51"]),
        ("rk23", "analytic", ["--t-end", "50", "--n-points", "51"]),
        ("rk23", "ad", ["--t-end", "50", "--n-points", "51"]),
        ("euler", "ad", []),  # full reference scenario
    ]
    for solver, jac, extra in cases:
        out = tmp_path / f"sens-{solver}-{jac}-{len(extra)}.csv"
        code = cli_main(["sens", "--solver", solver, "--jac", jac, *extra, "--output", str(out)])
        capsys.readouterr()
        lines = out.read_text().strip().splitlines()
        first = [float(v) for v in lines[1].split(",")]
        sens_block = first[3:]
        ok = code == 0 and sens_block == [0.0] * 8 + [1.0, 0.0, 0.0, 1.0]
        checks.append((ok, f"{solver}/{jac} first data row sensitivity block {sens_block}"))
    _criterion(8, "emitted sensitivity CSVs start at zero/identity conditions", checks)
