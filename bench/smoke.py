"""Smoke test of the benchmark itself; not part of the package's test suite.

Run from the repository root (takes about a minute):

    python3 bench/smoke.py

Checks that
* a plain solve of the unjittered reference scenario makes the pinned
  numbers of right-hand-side evaluations and steps: Euler 10000; RK23 487
  evaluations over 162 step attempts with 151 accepted;
* two traced runs with the same seed give identical counters;
* ``euler-ref`` records no Hermite fill, and no traced run reports
  instrumentation drift or a failed command.
"""

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (pins the BLAS threads before numpy is imported)
import layers  # noqa: E402
from workloads import draw_inputs, write_scenarios  # noqa: E402

PINNED = {
    "euler": {"solvers.rhs_evals": 10000, "solvers.step_attempts": 10000, "solvers.steps_accepted": 10000},
    "rk23": {"solvers.rhs_evals": 487, "solvers.step_attempts": 162, "solvers.steps_accepted": 151},
}

failures = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def reference_counts() -> None:
    sys.path.insert(0, str(run.SRC))
    from odesens.cli import main

    for solver, pinned in PINNED.items():
        spec = {"main": (solver, 1000.0, 10001), "hessian": (solver, 2.0, 21)}
        scenario = write_scenarios(spec, draw_inputs(None), run.WORK / "smoke")["main"]
        tracer = layers.Tracer()
        restore = layers.install(tracer)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(["solve", "--scenario", str(scenario["path"]),
                             "--output", str(run.WORK / "smoke" / "solve.out")])
        finally:
            restore()
        metrics = layers.layer_metrics(tracer, 0, 0.0)
        got = {name: metrics[name][0] for name in pinned}
        expect(code == 0 and got == pinned, f"reference {solver} solve counts {got} == {pinned}")


def traced(workload: str, seed: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=run.ROOT,
    )
    lines = proc.stdout.strip().splitlines()
    context = json.loads(lines[-2])["context"]
    result = json.loads(lines[-1])
    expect(result["correct"] and result["failed"] == 0, f"{workload} seed {seed}: every command correct")
    expect(not context["instrumentation_drift"], f"{workload} seed {seed}: no instrumentation drift")
    counters = {name: m["value"] for name, m in result["metrics"].items() if m["unit"] in ("count", "B")}
    counters["sensitivity.fwd_solve_unique_ratio"] = result["metrics"]["sensitivity.fwd_solve_unique_ratio"]["value"]
    counters["solvers.accept_ratio"] = result["metrics"]["solvers.accept_ratio"]["value"]
    return counters, context


def main() -> int:
    reference_counts()
    first, _ = traced("hessian-short", 7)
    second, _ = traced("hessian-short", 7)
    expect(first == second, "two same-seed traced runs give identical counters")
    euler, _ = traced("euler-ref", 7)
    expect(euler["solvers.hermite_calls"] == 0, "euler-ref makes no Hermite calls")
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
