"""Per-layer spans and counters, recorded from outside the package.

Nothing under ``src/`` is edited.  :func:`install` re-binds, in every
``odesens`` module that holds them, the module-level names of the public
functions at each layer boundary, wraps the right-hand sides the solver
receives and the Jacobian providers the factories return, and swaps
wrapped models into ``odesens.models.MODELS``.  It returns a function
that puts every original back.

Spans at coarse boundaries (commands, solves, gradient drivers) are kept
one by one: name, start, end, parent span and command id.  Hot leaf calls
(right-hand sides, Jacobian providers, solver steps, Hermite fills) are
only summed, because a single command makes up to a million of them.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import dataclasses
import importlib
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

MODULES = ("odesens", "odesens.cli", "odesens.models", "odesens.diffmethods",
           "odesens.sensitivity", "odesens.solvers", "odesens.scalars")

# Plain spans: layer -> public functions of that module whose calls are spans.
SPANS = {
    "models": ("fmain_objective", "fmain_gradient_forward", "fmain_gradient_reverse",
               "fmain_gradient_fd", "fmain_gradient_cs", "fmain_hessian", "fmain_hessian_fd"),
    "diffmethods": ("cross_compare", "relative_error"),
    "sensitivity": ("jvp_solution", "vjp_solution", "dual_aware_solve"),
    "solvers": ("hermite_interp",),
    "scalars": ("complex_step_column",),
}

# Boundaries that are summed but not kept span by span.
HOT = {
    "models.rhs", "solvers.rhs", "sensitivity.aug_rhs", "sensitivity.jac_analytic",
    "sensitivity.jac_ad", "scalars.eval_jacobian_dual", "solvers.rk23_step",
    "solvers.hermite_interp", "diffmethods.trajectory_eval",
}


class Tracer:
    """Span stack plus per-boundary totals: name -> [calls, seconds, self seconds]."""

    def __init__(self):
        self.stack = []     # open frames: [start, child seconds, last child end, id, name]
        self.spans = []     # kept spans: (id, parent id, name, start, end, command id)
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts = Counter()
        self.seconds = Counter()
        self.boundaries = set()
        self.cmd = None
        self.last = None    # the frame closed most recently, with its end time
        self._ids = 0

    def current(self):
        return self.stack[-1][4] if self.stack else None

    def call(self, name, fn, *args, **kwargs):
        stack = self.stack
        parent = stack[-1][3] if stack else None
        self._ids += 1
        start = perf_counter()
        frame = [start, 0.0, start, self._ids, name]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
                stack[-1][2] = end
            total = self.totals[name]
            total[0] += 1
            total[1] += duration
            total[2] += duration - frame[1]
            if name not in HOT:
                self.spans.append((frame[3], parent, name, start, end, self.cmd))
            frame.append(end)
            self.last = frame

    def calls(self, name):
        return self.totals[name][0] if name in self.totals else 0

    def total_s(self, name):
        return self.totals[name][1] if name in self.totals else 0.0

    def self_s(self, *names):
        return sum(self.totals[n][2] for n in names if n in self.totals)


def _primal_bytes(values) -> bytes:
    from odesens.scalars import Dual1

    flat = []
    for v in np.asarray(values).ravel():
        while isinstance(v, Dual1):
            v = v.primal
        flat.append(v)
    return np.asarray(flat).tobytes()


def install(tracer: Tracer):
    """Instrument every layer boundary; return a function that undoes it."""
    mods = {name: importlib.import_module(name) for name in MODULES}
    models, solvers = mods["odesens.models"], mods["odesens.solvers"]
    from odesens.scalars import contains_dual

    undo = []

    def rebind(module, name, make, boundary=None):
        original = getattr(mods[f"odesens.{module}"], name)
        replacement = make(original)
        replacement.__wrapped__ = original
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    undo.append((mod, attr, original))
        tracer.boundaries.add(boundary or f"{module}.{name}")

    def plain(name):
        return lambda fn: (lambda *a, **kw: tracer.call(name, fn, *a, **kw))

    for layer, names in SPANS.items():
        for fn_name in names:
            rebind(layer, fn_name, plain(f"{layer}.{fn_name}"))

    solve_stack = []

    def make_run_solver(fn):
        def run_solver(rhs, time, y0, method):
            in_sens = tracer.current() == "sensitivity.forward_sensitivity_solve"
            name = "sensitivity.aug_rhs" if in_sens else "solvers.rhs"
            solve = {"rhs": 0, "t": set(), "attempts": 0}

            def counted_rhs(t, y):
                solve["rhs"] += 1
                return tracer.call(name, rhs, t, y)

            solve_stack.append(solve)
            try:
                traj = tracer.call("solvers.run_solver", fn, counted_rhs, time, y0, method)
            finally:
                solve_stack.pop()
            if isinstance(method, solvers.EulerMethod):
                attempts = accepted = solve["rhs"]
            else:
                attempts, accepted = solve["attempts"], len(solve["t"])
            tracer.counts["solvers.step_attempts"] += attempts
            tracer.counts["solvers.steps_accepted"] += accepted
            tracer.counts["solvers.state_width_max"] = max(
                tracer.counts["solvers.state_width_max"], np.asarray(y0).shape[0])
            tracer.counts["solvers.output_bytes_computed"] += traj.states.nbytes + traj.times.nbytes
            return traj
        return run_solver

    def make_rk23_step(fn):
        def rk23_step(rhs, t, y, h, k1=None):
            solve = solve_stack[-1]
            solve["attempts"] += 1
            solve["t"].add(t)
            return tracer.call("solvers.rk23_step", fn, rhs, t, y, h, k1=k1)
        return rk23_step

    def make_fwd(fn):
        seen = set()

        def forward_sensitivity_solve(f, jac, p, y0, time, method):
            if not (contains_dual(np.asarray(p)) or contains_dual(np.asarray(y0))):
                kind = getattr(jac, "kind", "ad" if jac is None else "other")
                grid = time.times.tobytes() if isinstance(time, solvers.Points) else repr(time)
                key = (tracer.cmd, kind, repr(method), grid, _primal_bytes(y0), _primal_bytes(p))
                tracer.counts["sensitivity.fwd_solves"] += 1
                if key not in seen:
                    seen.add(key)
                    tracer.counts["sensitivity.fwd_solves_unique"] += 1
            try:
                return tracer.call("sensitivity.forward_sensitivity_solve", fn, f, jac, p, y0, time, method)
            finally:
                frame = tracer.last
                tracer.seconds["sensitivity.unpack_s"] += frame[5] - frame[2]
        return forward_sensitivity_solve

    def make_provider_factory(kind):
        def factory(fn):
            def wrapped_factory(*args):
                provider = fn(*args)

                def traced_provider(f, t, y, p):
                    return tracer.call(f"sensitivity.jac_{kind}", provider, f, t, y, p)

                traced_provider.kind = kind
                return traced_provider
            return wrapped_factory
        return factory

    def make_hessian(fn):
        def hessian_forward_over_reverse(gradient, x0):
            def column(x):
                tracer.counts["sensitivity.hessian_columns"] += 1
                return gradient(x)
            return tracer.call("sensitivity.hessian_forward_over_reverse", fn, column, x0)
        return hessian_forward_over_reverse

    def make_jacobian_dual(fn):
        def eval_jacobian_dual(f, x):
            tracer.counts["scalars.jacobian_dual_columns"] += np.asarray(x).shape[0]
            return tracer.call("scalars.eval_jacobian_dual", fn, f, x)
        return eval_jacobian_dual

    def make_sens_matrix(fn):
        def sensitivity_matrix(scenario, method_name):
            try:
                return tracer.call("diffmethods.sensitivity_matrix", fn, scenario, method_name)
            finally:
                frame = tracer.last
                tracer.seconds[f"diffmethods.sens_matrix_{method_name}_s"] += frame[5] - frame[0]
        return sensitivity_matrix

    def make_trajectory_map(fn):
        def trajectory_map(model, time, method):
            g = fn(model, time, method)
            return lambda x: tracer.call("diffmethods.trajectory_eval", g, x)
        return trajectory_map

    rebind("solvers", "run_solver", make_run_solver)
    rebind("solvers", "rk23_step", make_rk23_step)
    rebind("sensitivity", "forward_sensitivity_solve", make_fwd)
    rebind("sensitivity", "analytic_jacobians", make_provider_factory("analytic"), "sensitivity.jac_analytic")
    rebind("sensitivity", "dual_jacobians", make_provider_factory("ad"), "sensitivity.jac_ad")
    rebind("sensitivity", "hessian_forward_over_reverse", make_hessian)
    rebind("scalars", "eval_jacobian_dual", make_jacobian_dual)
    rebind("diffmethods", "sensitivity_matrix", make_sens_matrix)
    rebind("diffmethods", "trajectory_map", make_trajectory_map, "diffmethods.trajectory_eval")
    tracer.boundaries |= {"cli.main", "models.rhs", "solvers.rhs", "sensitivity.aug_rhs"}

    saved_models = dict(models.MODELS)
    for key, model in saved_models.items():
        rhs = model.rhs
        models.MODELS[key] = dataclasses.replace(
            model, rhs=lambda t, y, p, _rhs=rhs: tracer.call("models.rhs", _rhs, t, y, p))

    def restore():
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)
        models.MODELS.clear()
        models.MODELS.update(saved_models)

    return restore


def layer_metrics(tracer: Tracer, bytes_out: int, overhead: float) -> dict:
    """The per-layer metrics of one traced cycle, as ``name -> (value, unit)``."""
    t = tracer
    c = t.counts
    models_drivers = [f"models.{n}" for n in SPANS["models"]]
    attempts = c["solvers.step_attempts"]
    accepted = c["solvers.steps_accepted"]
    fwd = c["sensitivity.fwd_solves"]
    values = {
        "cli.self_s": (t.self_s("cli.main"), "s"),
        "cli.bytes_out": (bytes_out, "B"),
        "models.rhs_evals": (t.calls("models.rhs"), "count"),
        "models.rhs_s": (t.total_s("models.rhs"), "s"),
        "models.objective_calls": (t.calls("models.fmain_objective"), "count"),
        "models.gradient_self_s": (t.self_s(*models_drivers), "s"),
    }
    for method in ("analytic", "ad", "fd", "cs"):
        name = f"diffmethods.sens_matrix_{method}_s"
        values[name] = (t.seconds[name], "s")
    values.update({
        "diffmethods.trajectory_evals": (t.calls("diffmethods.trajectory_eval"), "count"),
        "diffmethods.relative_error_s": (t.total_s("diffmethods.relative_error"), "s"),
        "sensitivity.fwd_solves": (fwd, "count"),
        "sensitivity.fwd_solve_unique_ratio": (c["sensitivity.fwd_solves_unique"] / fwd if fwd else 1.0, "ratio"),
        "sensitivity.aug_rhs_evals": (t.calls("sensitivity.aug_rhs"), "count"),
        "sensitivity.aug_rhs_self_s": (t.self_s("sensitivity.aug_rhs"), "s"),
        "sensitivity.jac_calls": (t.calls("sensitivity.jac_analytic") + t.calls("sensitivity.jac_ad"), "count"),
        "sensitivity.jac_analytic_s": (t.total_s("sensitivity.jac_analytic"), "s"),
        "sensitivity.jac_ad_s": (t.total_s("sensitivity.jac_ad"), "s"),
        "sensitivity.unpack_s": (t.seconds["sensitivity.unpack_s"], "s"),
        "sensitivity.jvp_calls": (t.calls("sensitivity.jvp_solution"), "count"),
        "sensitivity.jvp_s": (t.total_s("sensitivity.jvp_solution"), "s"),
        "sensitivity.vjp_calls": (t.calls("sensitivity.vjp_solution"), "count"),
        "sensitivity.vjp_s": (t.total_s("sensitivity.vjp_solution"), "s"),
        "sensitivity.dual_aware_calls": (t.calls("sensitivity.dual_aware_solve"), "count"),
        "sensitivity.dual_aware_self_s": (t.self_s("sensitivity.dual_aware_solve"), "s"),
        "sensitivity.hessian_columns": (c["sensitivity.hessian_columns"], "count"),
        "solvers.solves": (t.calls("solvers.run_solver"), "count"),
        "solvers.rhs_evals": (t.calls("solvers.rhs") + t.calls("sensitivity.aug_rhs"), "count"),
        "solvers.step_attempts": (attempts, "count"),
        "solvers.steps_accepted": (accepted, "count"),
        "solvers.steps_rejected": (attempts - accepted, "count"),
        "solvers.accept_ratio": (accepted / attempts if attempts else 1.0, "ratio"),
        "solvers.step_loop_self_s": (t.self_s("solvers.run_solver", "solvers.rk23_step"), "s"),
        "solvers.hermite_calls": (t.calls("solvers.hermite_interp"), "count"),
        "solvers.hermite_s": (t.total_s("solvers.hermite_interp"), "s"),
        "solvers.state_width_max": (c["solvers.state_width_max"], "count"),
        "solvers.output_bytes_computed": (c["solvers.output_bytes_computed"], "B"),
        "scalars.jacobian_dual_calls": (t.calls("scalars.eval_jacobian_dual"), "count"),
        "scalars.jacobian_dual_columns": (c["scalars.jacobian_dual_columns"], "count"),
        "scalars.jacobian_dual_s": (t.total_s("scalars.eval_jacobian_dual"), "s"),
        "scalars.cs_columns": (t.calls("scalars.complex_step_column"), "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    })
    return values
