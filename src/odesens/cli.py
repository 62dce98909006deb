"""Command-line front end.

Subcommands run a scenario and emit CSV (full shortest-round-trip double
precision) plus, for the comparison and benchmark tables, an aligned
text rendering.  Output goes to stdout unless ``--output`` is given, in
which case the file is written atomically (temp file + rename) so a
failing run never leaves partial output behind.
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

from .diffmethods import CROSS_METHODS, CrossTable, cross_compare, sensitivity_matrix
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
from .solvers import SolverError, run_solver

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


def _cmd_solve(args) -> int:
    scenario = _scenario_from_args(args)
    model = scenario.ode_model()
    p = scenario.params_array()
    traj = run_solver(
        lambda t, y: model.rhs(t, y, p),
        scenario.time_spec(),
        scenario.initial_state(),
        scenario.method(),
    )
    lines = ["t," + ",".join(_state_labels(model.state_dim))]
    lines += _csv_rows(np.column_stack([traj.times, traj.states]))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_sens(args) -> int:
    scenario = _scenario_from_args(args)
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
    lines = [",".join(header)] + _csv_rows(np.column_stack([bundle.times, packed]))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _aligned(rows: list) -> str:
    """Left-aligned text table, two spaces between columns."""
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(r)).rstrip()
        for r in rows
    ) + "\n"


def _emit_table(text: str, csv_lines: list, output: Optional[str]) -> None:
    """Print the text table; the CSV goes to ``output`` or follows on stdout."""
    sys.stdout.write(text)
    csv_text = "\n".join(csv_lines) + "\n"
    if output is not None:
        _emit(csv_text, output)
    else:
        sys.stdout.write("\n" + csv_text)


def _table_text(table: CrossTable) -> str:
    methods = table.methods
    rows = [[""] + [f"vs. {name}" for name in methods[1:]]]
    for i, name in enumerate(methods[:-1]):
        row = [name]
        for j in range(1, len(methods)):
            row.append(f"{table.errors[i, j]:.6g}" if j > i else "")
        rows.append(row)
    return _aligned(rows)


def _cmd_compare(args) -> int:
    scenario = _scenario_from_args(args)
    table = cross_compare(scenario)
    csv_lines = ["method_a,method_b,rel_error"]
    for a, b, err in table.entries():
        csv_lines.append(f"{a},{b},{_fmt(err)}")
    _emit_table(_table_text(table), csv_lines, args.output)
    return 0


def _cmd_gradient(args) -> int:
    scenario = _scenario_from_args(args)
    model = scenario.ode_model()
    y0 = scenario.initial_state()
    p = scenario.params_array()
    time_spec = scenario.time_spec()
    method = scenario.method()
    if args.mode == "fm":
        grad = fmain_gradient_forward(y0, p, time_spec, method, model=model, jac=args.jac)
    elif args.mode == "rm":
        grad = fmain_gradient_reverse(y0, p, time_spec, method, model=model, jac=args.jac)
    elif args.mode == "fd":
        grad = fmain_gradient_fd(y0, p, time_spec, method, model=model)
    else:
        grad = fmain_gradient_cs(y0, p, time_spec, method, model=model)
    labels = _input_labels(scenario)
    lines = ["input,dz"]
    lines += [f"{label},{_fmt(value)}" for label, value in zip(labels, grad)]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_hessian(args) -> int:
    scenario = _scenario_from_args(args)
    model = scenario.ode_model()
    y0 = scenario.initial_state()
    p = scenario.params_array()
    time_spec = scenario.time_spec()
    method = scenario.method()
    if args.method == "for":
        hess = fmain_hessian(y0, p, time_spec, method, model=model, jac=args.jac)
    else:
        hess = fmain_hessian_fd(y0, p, time_spec, method, model=model, jac=args.jac)
    labels = _input_labels(scenario)
    lines = [",".join(labels)] + _csv_rows(hess)
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_bench(args) -> int:
    scenario = _scenario_from_args(args)
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
    for r in rows:
        csv_lines.append(",".join([r[0]] + [_fmt(v) for v in r[1:]]))
    _emit_table(text, csv_lines, args.output)
    return 0


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
        return args.func(args)
    except (ValueError, SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
