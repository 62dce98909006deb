"""Seeded inputs, command mixes and output checks for the benchmark.

Every workload is the predator-prey (LV) model.  A seed scales the four
rates and both initial populations by factors drawn from [0.9, 1.1],
which keeps the populations positive and the analytic and dual-number
Jacobians bit-identical.  The program under test only ever sees the
scenario files written here and the argv of each command.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

REFERENCE = {
    "eps1": 0.015, "gamma1": 1e-4, "eps2": 0.03, "gamma2": 1e-4,
    "y0_1": 1000.0, "y0_2": 20.0,
}

# Scenario files per workload: "main" for the first eight commands of the
# mix, "hessian" for the two Hessian commands; each is (solver, t_end,
# n_points).  A Hessian over the full [0, 1000] window costs minutes per
# call, so the -ref workloads run the Hessian commands on [0, 2] with
# Euler (about 0.3 s; an RK23 Hessian costs seconds on any window and
# would crowd out the Hermite-dominated commands rk23-ref is for).  Every
# workload then reports every command.
WORKLOADS = {
    "euler-ref": {"main": ("euler", 1000.0, 10001), "hessian": ("euler", 2.0, 21)},
    "rk23-ref": {"main": ("rk23", 1000.0, 10001), "hessian": ("euler", 2.0, 21)},
    "hessian-short": {"main": ("euler", 20.0, 201), "hessian": ("euler", 20.0, 201)},
}

# (end-to-end metric, argv before the scenario flags, scenario file).
# The order matters: a command's output is checked against outputs of
# commands earlier in the same cycle.
MIX = [
    ("solve_s", ["solve"], "main"),
    ("sens_analytic_s", ["sens", "--jac", "analytic"], "main"),
    ("sens_ad_s", ["sens", "--jac", "ad"], "main"),
    ("gradient_rm_s", ["gradient", "--mode", "rm"], "main"),
    ("gradient_fm_s", ["gradient", "--mode", "fm"], "main"),
    ("gradient_fd_s", ["gradient", "--mode", "fd"], "main"),
    ("gradient_cs_s", ["gradient", "--mode", "cs"], "main"),
    ("compare_s", ["compare"], "main"),
    ("hessian_for_s", ["hessian", "--method", "for"], "hessian"),
    ("hessian_fd_s", ["hessian", "--method", "fd"], "hessian"),
]

INPUT_LABELS = ["y0_1", "y0_2", "eps1", "gamma1", "eps2", "gamma2"]


def draw_inputs(seed: int | None) -> dict:
    """Rates and initial populations for a seed; ``None`` gives the reference."""
    if seed is None:
        return dict(REFERENCE)
    rng = random.Random(seed)
    return {key: value * rng.uniform(0.9, 1.1) for key, value in REFERENCE.items()}


def write_scenarios(spec: dict, inputs: dict, directory: Path) -> dict:
    """Write a workload's main and Hessian scenario files; return their metadata."""
    directory.mkdir(parents=True, exist_ok=True)
    scenarios = {}
    for key in ("main", "hessian"):
        solver, t_end, n_points = spec[key]
        meta = dict(inputs, t0=0.0, t_end=t_end, n_points=n_points,
                    solver=solver, dt=0.1, rel_tol=1e-3, abs_tol=1e-6)
        path = directory / f"{key}.scenario"
        path.write_text("".join(
            f"{k}={v if isinstance(v, str) else repr(v)}\n" for k, v in meta.items()
        ))
        scenarios[key] = dict(meta, path=path)
    return scenarios


# ---------------------------------------------------------------- checks
# Tolerances follow tests/test_acceptance.py (criteria 1, 2, 5, 6 and 8).


def _rows(text: str) -> tuple[list, list]:
    lines = text.strip().splitlines()
    return lines[0].split(","), [[float(v) for v in line.split(",")] for line in lines[1:]]


def _fro(m) -> float:
    return math.sqrt(sum(v * v for row in m for v in row))


def _rel_fro(a, b) -> float:
    return _fro([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]) / _fro(a)


def _finite(rows) -> bool:
    return all(math.isfinite(v) for row in rows for v in row)


def _check_trajectory(header, rows, meta, width) -> list:
    problems = []
    if len(header) != width:
        problems.append(f"header has {len(header)} columns, expected {width}")
    if len(rows) != meta["n_points"]:
        problems.append(f"{len(rows)} rows, expected {meta['n_points']}")
    elif rows[0][:3] != [meta["t0"], meta["y0_1"], meta["y0_2"]] or rows[-1][0] != meta["t_end"]:
        problems.append("first row is not the initial state or last row not at t_end")
    if not _finite(rows):
        problems.append("non-finite value")
    return problems


def _gradient(text: str) -> tuple[list, list]:
    lines = text.strip().splitlines()[1:]
    labels = [line.split(",")[0] for line in lines]
    return labels, [float(line.split(",")[1]) for line in lines]


def check_output(metric: str, text: str, meta: dict, earlier: dict) -> list:
    """Problems found in one command's output; an empty list means correct.

    ``earlier`` maps the metric names of commands already run in this cycle
    to their output text.
    """
    euler = meta["solver"] == "euler"
    if metric == "solve_s":
        header, rows = _rows(text)
        return _check_trajectory(header, rows, meta, 3)
    if metric.startswith("sens_"):
        header, rows = _rows(text)
        problems = _check_trajectory(header, rows, meta, 15)
        if rows and rows[0][3:] != [0.0] * 8 + [1.0, 0.0, 0.0, 1.0]:
            problems.append("first sensitivity row is not the zero/identity block")
        if metric == "sens_ad_s" and text != earlier.get("sens_analytic_s"):
            problems.append("AD CSV differs from the analytic CSV")
        return problems
    if metric.startswith("gradient_"):
        labels, grad = _gradient(text)
        if labels != INPUT_LABELS or not all(math.isfinite(g) for g in grad):
            return [f"malformed gradient {labels} {grad}"]
        if metric == "gradient_rm_s" or (metric != "gradient_fm_s" and not euler):
            return []
        _, rm = _gradient(earlier["gradient_rm_s"])
        if metric == "gradient_fm_s":
            err = max(abs(g - r) / max(abs(r), 1e-300) for g, r in zip(grad, rm))
            return [] if err <= 1e-12 else [f"vs rm {err:g} > 1e-12"]
        # Componentwise relative error is ill-conditioned where a component
        # of dz/dx nears zero (dz/dy0_2 on [0, 20] crosses zero between
        # seeds).  A difference quotient with step sqrt(eps)*|x_i| errs by
        # about sqrt(eps)*|z|/|x_i|, so compare in relative-input units,
        # |g_i - rm_i| * |x_i|, against the largest |rm_j * x_j|.
        x = [meta[label] for label in INPUT_LABELS]
        scale = max(abs(r * xi) for r, xi in zip(rm, x))
        err = max(abs(g - r) * abs(xi) for g, r, xi in zip(grad, rm, x)) / scale
        return [] if err <= 1e-5 else [f"vs rm {err:g} > 1e-5 (relative-input units)"]
    if metric == "compare_s":
        pairs = {}
        for line in text.strip().splitlines()[1:]:
            a, b, err = line.split(",")
            pairs[a, b] = float(err)
        an_ad, an_fd = pairs["analytic", "ad"], pairs["analytic", "fd"]
        an_cs = pairs["analytic", "cs"]
        checks = [(an_ad <= 1e-13, f"analytic~ad {an_ad:g} > 1e-13")]
        if euler:
            checks += [
                (an_cs <= 1e-12, f"analytic~cs {an_cs:g} > 1e-12"),
                (1e-8 <= an_fd <= 1e-4, f"analytic~fd {an_fd:g} outside [1e-8, 1e-4]"),
            ]
        else:
            # Criterion 2's step-adaptivity blowup: at least 10 times the
            # fixed-step deviations allowed above.  Its orderings fd~cs <
            # analytic~fd and fd~cs < analytic~cs hold on the reference inputs
            # but not on every draw: on seeds 12 and 28 of 1..30 the FD run
            # itself drifts (fd~cs ~ 0.066), so they are not checked here.
            checks += [
                (an_fd >= 1e-3, f"analytic~fd {an_fd:g} below 10 x 1e-4"),
                (an_cs >= 1e-11, f"analytic~cs {an_cs:g} below 10 x 1e-12"),
            ]
        return [detail for ok, detail in checks if not ok]
    if metric.startswith("hessian_"):
        header, hess = _rows(text)
        if header != INPUT_LABELS or len(hess) != 6 or not _finite(hess):
            return ["malformed Hessian"]
        if metric == "hessian_for_s":
            sym = _rel_fro(hess, [list(col) for col in zip(*hess)])
            return [] if sym <= 1e-10 else [f"symmetry defect {sym:g} > 1e-10"]
        _, hess_for = _rows(earlier["hessian_for_s"])
        vs_for = _rel_fro(hess_for, hess)
        return [] if vs_for <= 1e-5 else [f"for vs fd {vs_for:g} > 1e-5"]
    raise ValueError(f"no check for {metric}")
