"""Command-line front end.

Each subcommand takes the resolved scenario and returns its rows: CSV
lines (full shortest-round-trip double precision) and, for the comparison
and benchmark tables, an aligned text table.  Only :func:`main` writes:
the table to stdout, then the CSV to stdout after a blank line, or to
``--output``, written atomically (temp file + rename) so that a failing
run never leaves partial output behind.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
import time as _time
from typing import Optional, Sequence

import numpy as np

from .diffmethods import CROSS_METHODS, cross_compare, sensitivity_matrix, solve_columns
from .models import (
    MODELS,
    SOLVERS,
    Scenario,
    fmain_gradient_cs,
    fmain_gradient_fd,
    fmain_gradient_forward,
    fmain_gradient_reverse,
    fmain_hessian,
    fmain_hessian_fd,
    load_scenario,
    scenario_keys,
)
from .sensitivity import forward_sensitivity_solve, jacobian_provider
from .solvers import SolverError

__all__ = ["main"]


def _fmt(x) -> str:
    return repr(float(x))


def _csv_rows(table: np.ndarray) -> list:
    """One CSV line per row of a 2-D float array, each cell its shortest round-trip repr."""
    return [",".join(map(repr, row.tolist())) for row in table]


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(output)) or "."
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".odesens-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_path, output)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _scenario_from_args(args) -> Scenario:
    if args.scenario is not None:
        scenario = load_scenario(args.scenario, model=args.model)
    else:
        scenario = Scenario(model=args.model)
    overrides = {key: getattr(args, key) for key in scenario_keys()
                 if getattr(args, key) is not None}
    return scenario.with_updates(**overrides)


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", help="key=value scenario file")
    parser.add_argument("--model", default="lv", choices=tuple(MODELS),
                        help="model to run (linear uses eps1 as rate, y0_1 as start)")
    for key, caster in scenario_keys().items():
        choices = SOLVERS if key == "solver" else None
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=caster, choices=choices)
    parser.add_argument("--output", help="write here instead of stdout (atomic)")


def _state_labels(m: int) -> list:
    return [f"Y{i + 1}" for i in range(m)]


def _sens_labels(m: int, k: int) -> list:
    labels = [f"dY{i + 1}dp{j + 1}" for j in range(k) for i in range(m)]
    labels += [f"dY{i + 1}dy0{j + 1}" for j in range(m) for i in range(m)]
    return labels


def _input_labels(scenario: Scenario) -> list:
    model = scenario.ode_model()
    return [*model.states, *model.params]


def _cmd_solve(scenario, args):
    model = scenario.ode_model()
    time = scenario.time_spec()
    x = np.concatenate([scenario.initial_state(), scenario.params_array()])
    states = solve_columns(model, time, scenario.method(), x)
    lines = ["t," + ",".join(_state_labels(model.state_dim))]
    return None, lines + _csv_rows(np.column_stack([time.times, states]))


def _cmd_sens(scenario, args):
    model = scenario.ode_model()
    provider = jacobian_provider(model, args.jac)
    bundle = forward_sensitivity_solve(
        model.rhs, provider, scenario.params_array(), scenario.initial_state(),
        scenario.time_spec(), scenario.method(),
    )
    m, k = bundle.state_dim, bundle.n_params
    sens_labels = _sens_labels(m, k)
    if args.seed_columns:
        wanted = [name.strip() for name in args.seed_columns.split(",") if name.strip()]
        unknown = [name for name in wanted if name not in sens_labels]
        if unknown:
            raise ValueError(f"unknown sensitivity columns: {', '.join(unknown)}")
        keep = [i for i, name in enumerate(sens_labels) if name in wanted]
    else:
        keep = list(range(len(sens_labels)))
    header = ["t"] + _state_labels(m) + [sens_labels[i] for i in keep]
    columns = list(range(m)) + [m + i for i in keep]
    # each composite row ravels to [y; vec(dy/dp); vec(dy/dy0)], the label order
    packed = bundle.states.reshape(bundle.times.shape[0], -1)[:, columns]
    return None, [",".join(header)] + _csv_rows(np.column_stack([bundle.times, packed]))


def _aligned(rows: list) -> str:
    """Left-aligned text table, two spaces between columns."""
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(r)).rstrip()
        for r in rows
    ) + "\n"


def _table_text(errors: dict) -> str:
    """The pairwise errors of :func:`cross_compare` as an upper triangle, one row per method."""
    rows = [[""] + [f"vs. {name}" for name in CROSS_METHODS[1:]]]
    for a in CROSS_METHODS[:-1]:
        rows.append([a] + [f"{errors[a, b]:.6g}" if (a, b) in errors else ""
                           for b in CROSS_METHODS[1:]])
    return _aligned(rows)


def _cmd_compare(scenario, args):
    errors = cross_compare(scenario)
    csv_lines = ["method_a,method_b,rel_error"]
    csv_lines += [f"{a},{b},{_fmt(err)}" for (a, b), err in errors.items()]
    return _table_text(errors), csv_lines


def _objective_driver(driver, scenario, **kwargs) -> np.ndarray:
    """Run an ``fmain_*`` driver on the scenario's inputs, grid, solver and model."""
    return driver(scenario.initial_state(), scenario.params_array(), scenario.time_spec(),
                  scenario.method(), model=scenario.ode_model(), **kwargs)


def _cmd_gradient(scenario, args):
    if args.mode == "fm":
        grad = _objective_driver(fmain_gradient_forward, scenario, jac=args.jac)
    elif args.mode == "rm":
        grad = _objective_driver(fmain_gradient_reverse, scenario, jac=args.jac)
    elif args.mode == "fd":
        grad = _objective_driver(fmain_gradient_fd, scenario)
    else:
        grad = _objective_driver(fmain_gradient_cs, scenario)
    labels = _input_labels(scenario)
    return None, ["input,dz"] + [f"{label},{_fmt(value)}" for label, value in zip(labels, grad)]


def _cmd_hessian(scenario, args):
    driver = fmain_hessian if args.method == "for" else fmain_hessian_fd
    hess = _objective_driver(driver, scenario, jac=args.jac)
    return None, [",".join(_input_labels(scenario))] + _csv_rows(hess)


def _cmd_bench(scenario, args):
    rows = []
    for solver in SOLVERS:
        timed = [solver]
        for method_name in CROSS_METHODS:
            start = _time.perf_counter()
            sensitivity_matrix(scenario.with_updates(solver=solver), method_name)
            timed.append(_time.perf_counter() - start)
        rows.append(timed)
    header = ["solver"] + list(CROSS_METHODS)
    text = _aligned([header] + [[r[0]] + [f"{v:.6g}" for v in r[1:]] for r in rows])
    csv_lines = [",".join(header)]
    csv_lines += [",".join([r[0]] + [_fmt(v) for v in r[1:]]) for r in rows]
    return text, csv_lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="odesens",
        description="Derivatives of ODE solutions: solve, sensitivities, "
                    "method comparison, gradients and Hessians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="integrate the model, emit t,Y CSV")
    _add_scenario_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_sens = sub.add_parser("sens", help="solution plus sensitivity columns as CSV")
    _add_scenario_flags(p_sens)
    p_sens.add_argument("--jac", default="ad", choices=("analytic", "ad"),
                        help="Jacobian provider for the augmented system")
    p_sens.add_argument("--seed-columns", dest="seed_columns",
                        help="comma-separated subset of sensitivity columns to emit")
    p_sens.set_defaults(func=_cmd_sens)

    p_cmp = sub.add_parser("compare", help="all-vs-all relative-error table")
    _add_scenario_flags(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_grad = sub.add_parser("gradient", help="gradient of the paired-solve objective")
    _add_scenario_flags(p_grad)
    p_grad.add_argument("--mode", default="rm", choices=("fm", "rm", "fd", "cs"))
    p_grad.add_argument("--jac", default="analytic", choices=("analytic", "ad"))
    p_grad.set_defaults(func=_cmd_gradient)

    p_hess = sub.add_parser("hessian", help="Hessian of the paired-solve objective")
    _add_scenario_flags(p_hess)
    p_hess.add_argument("--method", default="for", choices=("for", "fd"),
                        help="'for' = forward-over-reverse, 'fd' = differenced gradient")
    p_hess.add_argument("--jac", default="analytic", choices=("analytic", "ad"))
    p_hess.set_defaults(func=_cmd_hessian)

    p_bench = sub.add_parser("bench", help="wall-clock table, methods x solvers")
    _add_scenario_flags(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    return parser


@functools.lru_cache(maxsize=1)
def _parser_for(registry: tuple) -> argparse.ArgumentParser:
    """:func:`build_parser` once per model registry; ``registry`` is only the cache key."""
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    # the flags follow the registered models, so a newly registered model gets a new parser
    args = _parser_for((tuple(MODELS), tuple(scenario_keys().items()))).parse_args(argv)
    try:
        table, csv_lines = args.func(_scenario_from_args(args), args)
        if table is not None:
            # on stdout a blank line separates the table from the CSV
            sys.stdout.write(table if args.output is not None else table + "\n")
        _emit("\n".join(csv_lines) + "\n", args.output)
    except (ValueError, SolverError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
