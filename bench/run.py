"""Benchmark of the odesens CLI commands on seeded predator-prey scenarios.

Run from the repository root:

    python3 bench/run.py --workload euler-ref --seed 1 --seconds 30 --trace 0

One client, one thread of work: a closed loop calls ``odesens.cli.main``
in this process, one command after the other, over the workload's mix
(see ``workloads.py``) until ``--seconds`` have passed; every cycle
starts over at the first command.  Each command reads a scenario file
generated from ``--seed``, writes its result with ``--output`` into
``bench/_work`` and has its output checked against the other
differentiation methods.  Set-up time is measured in fresh interpreters.

Times are scaled to a nominal machine speed.  On a shared machine the
same code runs up to 1.9 times slower for minutes at a time, with CPU
time tracking wall time.  A fixed calibration loop, which uses no
odesens code, is timed before and after every command, and the
command's wall time is multiplied by ``NOMINAL_PASS_S`` over the mean of
the two calibration times.  Raw wall medians and the calibration times
are reported in the context line.

``--trace 1`` runs the mix once untraced and once with every layer
boundary instrumented (``layers.py``), reports per-layer counts and
times and the tracing overhead, and writes the kept spans to
``bench/_work``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the run's context (seed, versions, sample counts, percentiles).
"""

import os

# One thread of work: pin the BLAS pools before numpy is imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

sys.path.insert(0, str(HERE))
from workloads import MIX, WORKLOADS, check_output, draw_inputs, write_scenarios  # noqa: E402

SETUP_REPEATS = 7
IDLE_ON_EULER = {"solvers.rk23_step", "solvers.hermite_interp"}

# One calibration pass takes this long on an uncontended core of the
# reference machine (2-vCPU VM, Python 3.11.7, numpy 2.4.6).
NOMINAL_PASS_S = 3.2e-3
# Slope of log(command time) on log(pass time), fitted over 170 commands of
# the euler-ref mix there (0.69 to 0.90 per command): contention slows the
# commands a little less than the pass.
SLOWDOWN_EXPONENT = 0.8
TICK_S = 0.2


class _Dual:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __mul__(self, other):
        if isinstance(other, _Dual):
            return _Dual(self.a * other.a, self.a * other.b + self.b * other.a)
        return _Dual(self.a * other, self.b * other)

    def __add__(self, other):
        return _Dual(self.a + other.a, self.b + other.b)


def calibration_pass():
    """A fixed slice of the kind of work the package does, using no odesens code.

    Small-array numpy steps, stacking rows, ``repr`` formatting and
    operator-overloaded scalar arithmetic.
    """
    y = np.array([1000.0, 20.0])
    rows = []
    for _ in range(500):
        f = np.array([(0.015 - 1e-4 * y[1]) * y[0], -(0.03 - 1e-4 * y[0]) * y[1]])
        y = y + 0.01 * f
        rows.append(y)
    text = "\n".join(",".join(repr(float(v)) for v in row) for row in np.array(rows)[::2])
    d = _Dual(1.0, 0.5)
    for _ in range(1500):
        d = d * 0.5 + _Dual(1.0, 0.25) * d
    return len(text), d


def pass_seconds() -> float:
    start = perf_counter()
    calibration_pass()
    return perf_counter() - start


def edge_pass_seconds() -> float:
    """Current time of one calibration pass: the median of three."""
    return sorted(pass_seconds() for _ in range(3))[1]


class Speedometer:
    """Times calibration passes before, after and, if ``tick``, every
    ``TICK_S`` seconds during a command (from ``SIGALRM``).
    """

    def __init__(self, tick: bool):
        self.tick = tick
        self.passes = []
        self.paused = 0.0

    def _on_alarm(self, signum, frame):
        seconds = pass_seconds()
        self.passes.append(seconds)
        self.paused += seconds

    def __enter__(self):
        self.passes.append(edge_pass_seconds())
        if self.tick:
            self.previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        if self.tick:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self.previous)
        self.passes.append(edge_pass_seconds())

    def scale(self, seconds: float) -> float:
        """Wall ``seconds`` without the passes run inside, at nominal speed."""
        slowdown = statistics.fmean(self.passes) / NOMINAL_PASS_S
        return (seconds - self.paused) / slowdown ** SLOWDOWN_EXPONENT


def steal_ticks():
    """Cumulative steal ticks of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def setup_seconds(scenario_path: Path) -> list:
    """Scaled wall times of fresh interpreters importing the CLI and parsing a scenario.

    The first start fills the bytecode cache and is not counted.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
               PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    command = [sys.executable, "-c", "import sys, odesens.cli as cli; cli.load_scenario(sys.argv[1])",
               str(scenario_path)]
    subprocess.run(command, env=env, check=True)
    times = []
    for _ in range(SETUP_REPEATS):
        with Speedometer(tick=False) as speed:
            start = perf_counter()
            subprocess.run(command, env=env, check=True)
            seconds = perf_counter() - start
        times.append(speed.scale(seconds))
    return times


def timed_main(main, tick=True):
    """Call the CLI with stdout captured.

    Returns (exit code, scaled seconds, raw seconds, stdout bytes).
    """
    def call(metric, argv):
        gc.collect()
        buffer = io.StringIO()
        with Speedometer(tick) as speed:
            start = perf_counter()
            with contextlib.redirect_stdout(buffer):
                code = main(argv)
            seconds = perf_counter() - start
        return code, speed.scale(seconds), seconds - speed.paused, len(buffer.getvalue().encode())
    return call


def cycle(call, scenarios, work, deadline=float("inf")):
    """Run the mix once, stopping early at ``deadline``.

    Yields ``(metric, scaled seconds, raw seconds, problems, bytes written)``
    per command.
    """
    earlier = {}
    for metric, argv, key in MIX:
        if perf_counter() >= deadline:
            return
        meta = scenarios[key]
        out = work / f"{metric[:-2]}.out"
        out.unlink(missing_ok=True)
        try:
            code, scaled, seconds, stdout_bytes = call(
                metric, [*argv, "--scenario", str(meta["path"]), "--output", str(out)])
        except (Exception, SystemExit):
            traceback.print_exc()
            code, scaled, seconds, stdout_bytes = "exception", float("nan"), float("nan"), 0
        text = out.read_text() if out.exists() else ""
        earlier[metric] = text
        problems = [] if code == 0 else [f"exit code {code}"]
        if not problems:
            try:
                problems = check_output(metric, text, meta, earlier)
            except Exception as exc:  # a malformed output is a failed command
                problems = [f"output check raised {exc!r}"]
        for problem in problems:
            print(f"FAIL {metric}: {problem}", file=sys.stderr)
        yield metric, scaled, seconds, problems, stdout_bytes + len(text.encode())


def warm_up(main, work):
    """One pass of the mix on a tiny Euler window, so lazy set-up is not timed."""
    tiny = {"main": ("euler", 1.0, 11), "hessian": ("euler", 1.0, 11)}
    scenarios = write_scenarios(tiny, draw_inputs(None), work / "warm-up")
    with contextlib.redirect_stdout(io.StringIO()):
        for _, argv, key in MIX:
            main([*argv, "--scenario", str(scenarios[key]["path"]), "--output", str(work / "warm-up" / "out")])


def top_percentile(samples):
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": round(100.0 * (n - 10) / n, 2), "value": sorted(samples)[n - 11]}


def timed_run(main, scenarios, work, seconds, setup):
    samples = {metric: [] for metric, _, _ in MIX}
    raw = {metric: [] for metric, _, _ in MIX}
    cycle_seconds = []
    attempted = failed = 0
    call = timed_main(main)
    deadline = perf_counter() + seconds
    first = True
    while first or perf_counter() < deadline:
        done, spent = 0, 0.0
        for metric, scaled, secs, problems, _ in cycle(call, scenarios, work,
                                                       float("inf") if first else deadline):
            attempted += 1
            failed += bool(problems)
            samples[metric].append(scaled)
            raw[metric].append(secs)
            done += 1
            spent += scaled
        if done == len(MIX):
            cycle_seconds.append(spent)
        first = False
    samples["setup_s"] = setup
    metrics = {metric: (statistics.median(values), "s") for metric, values in samples.items()}
    metrics["cmds_per_s"] = (len(MIX) * len(cycle_seconds) / sum(cycle_seconds), "1/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    context = {
        "samples": {m: len(v) for m, v in samples.items()},
        "top_percentile": {m: top_percentile(v) for m, v in samples.items()},
        "raw_median_s": {m: statistics.median(v) for m, v in raw.items()},
        "full_cycles": len(cycle_seconds),
        "fail_ratio": failed / attempted,
    }
    return attempted, failed, metrics, context


def traced_run(main, workload, scenarios, work):
    import layers

    # No calibration ticks here: they would land in the layer times.
    attempted = failed = 0
    untraced = 0.0
    for _, scaled, _, problems, _ in cycle(timed_main(main, tick=False), scenarios, work):
        attempted += 1
        failed += bool(problems)
        untraced += scaled

    tracer = layers.Tracer()
    restore = layers.install(tracer)
    traced_main = timed_main(lambda argv: tracer.call("cli.main", main, argv), tick=False)

    def traced_call(metric, argv):
        tracer.cmd = metric
        return traced_main(metric, argv)

    traced, bytes_out = 0.0, 0
    try:
        for _, scaled, _, problems, nbytes in cycle(traced_call, scenarios, work):
            attempted += 1
            failed += bool(problems)
            traced += scaled
            bytes_out += nbytes
    finally:
        restore()

    metrics = layers.layer_metrics(tracer, bytes_out, traced / untraced - 1.0)
    idle = IDLE_ON_EULER if WORKLOADS[workload]["main"][0] == "euler" else set()
    drift = sorted(b for b in tracer.boundaries if (tracer.calls(b) == 0) != (b in idle))
    for boundary in drift:
        print(f"INSTRUMENTATION DRIFT: {boundary} recorded {tracer.calls(boundary)} calls", file=sys.stderr)
    spans_path = work / "trace-spans.jsonl"
    with open(spans_path, "w", encoding="utf-8") as handle:
        for span_id, parent, name, start, end, cmd in tracer.spans:
            handle.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                     "start": start, "end": end, "cmd": cmd}) + "\n")
    context = {
        "untraced_s": untraced, "traced_s": traced, "instrumentation_drift": drift,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "boundary_calls": {b: tracer.calls(b) for b in sorted(tracer.boundaries)},
        "fail_ratio": failed / attempted,
    }
    return attempted, failed, metrics, context


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "odesens" / "cli.py").is_file():
        print(f"error: no odesens sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from odesens import cli

    work = WORK / f"{args.workload}-s{args.seed}"
    scenarios = write_scenarios(WORKLOADS[args.workload], draw_inputs(args.seed), work)
    steal_before = steal_ticks()
    wall_start = perf_counter()
    warm_up(cli.main, work)
    if args.trace:
        attempted, failed, metrics, context = traced_run(cli.main, args.workload, scenarios, work)
    else:
        setup = setup_seconds(scenarios["main"]["path"])
        attempted, failed, metrics, context = timed_run(cli.main, scenarios, work, args.seconds, setup)
    steal_after = steal_ticks()
    context.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs": {k: v for k, v in scenarios["main"].items() if k != "path"},
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "steal_ticks": None if steal_before is None else steal_after - steal_before,
        "wall_s": perf_counter() - wall_start,
    })
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
