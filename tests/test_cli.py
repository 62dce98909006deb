import argparse
import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from odesens import cli
from odesens.cli import _csv_rows, _fmt, build_parser, main
from odesens.models import SOLVERS, format_scenario, Scenario
from odesens.sensitivity import forward_sensitivity_solve, jacobian_provider
from odesens.solvers import run_solver

SMALL = ["--t-end", "50", "--n-points", "51"]
TINY = ["--t-end", "5", "--n-points", "6"]


def run_cli(args):
    return main(args)


def parse_csv(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestSolve:
    def test_reference_invocation_row_count(self, capsys):
        code = run_cli([
            "solve", "--model", "lv", "--solver", "euler",
            "--dt", "0.1", "--t-end", "1000", "--n-points", "10001",
        ])
        assert code == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["t", "Y1", "Y2"]
        assert len(rows) == 10001

    def test_first_row_is_initial_condition(self, capsys):
        assert run_cli(["solve", *TINY]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert [float(v) for v in rows[0]] == [0.0, 1000.0, 20.0]

    def test_zero_stub_rows_constant(self, capsys):
        assert run_cli(["solve", "--model", "zero", *SMALL]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        for row in rows:
            assert [float(v) for v in row[1:]] == [1000.0, 20.0]

    def test_output_file_and_round_trip(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert run_cli(["solve", *SMALL, "--solver", "rk23", "--output", str(out)]) == 0
        header, rows = parse_csv(out.read_text())
        parsed = np.array([[float(v) for v in row] for row in rows])
        # shortest round-trip formatting: parsing reproduces bit-exact values
        from odesens.models import lv_rhs
        from odesens.solvers import run_solver

        sc = Scenario(t_end=50.0, n_points=51, solver="rk23")
        p = sc.params_array()
        traj = run_solver(lambda t, y: lv_rhs(t, y, p), sc.time_spec(), sc.initial_state(), sc.method())
        assert np.array_equal(parsed[:, 0], traj.times)
        assert np.array_equal(parsed[:, 1:], traj.states)

    def test_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "case.scn"
        path.write_text(format_scenario(Scenario(t_end=2.0, n_points=3, dt=0.5)))
        assert run_cli(["solve", "--scenario", str(path)]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 3

    def test_flag_overrides_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "case.scn"
        path.write_text(format_scenario(Scenario(t_end=2.0, n_points=3, dt=0.5)))
        assert run_cli(["solve", "--scenario", str(path), "--n-points", "5"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        assert len(rows) == 5

    def test_bad_scenario_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_text("nonsense=1\n")
        assert run_cli(["solve", "--scenario", str(path)]) == 1
        assert "unknown scenario key" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, field", [
        (["--dt", "nan"], "dt"),
        (["--solver", "rk23", "--rel-tol", "nan"], "rel_tol"),
    ])
    def test_non_finite_flag_exits_one_naming_it(self, flags, field, capsys):
        assert run_cli(["solve", *TINY, *flags]) == 1
        assert f"error: {field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--rel-tol", "-1"], "rel_tol must be positive, got -1.0"),
        (["--solver", "rk23", "--abs-tol", "-1"], "abs_tol must be positive, got -1.0"),
        (["--model", "linear", "--y0-1", "-1"], "y0_1 must be positive, got -1.0"),
        (["--gamma2", "0"], "gamma2 must be positive, got 0.0"),
    ])
    def test_bad_setting_exits_one_naming_it(self, flags, message, capsys):
        # Euler never reads the tolerances, so they are checked where they enter
        assert run_cli(["solve", *TINY, *flags]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_an_output_grid_too_large_to_hold_exits_one(self, capsys):
        # 10**18 rows of float64 are 8 EiB, which numpy refuses before touching memory
        assert run_cli(["solve", "--t-end", "5", "--n-points", "1000000000000000000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    def test_keys_of_other_models_are_ignored(self, capsys):
        assert run_cli(["solve", "--model", "linear", *TINY]) == 0
        expected = capsys.readouterr().out
        assert run_cli(["solve", "--model", "linear", *TINY, "--gamma1", "-5", "--y0-2", "nan"]) == 0
        assert capsys.readouterr().out == expected

    def test_euler_step_budget_exits_one(self, capsys):
        assert run_cli(["solve", *TINY, "--dt", "1e-300"]) == 1
        assert "above the budget of 1000000" in capsys.readouterr().err

    def test_solver_failure_names_step_t_and_h(self, capsys):
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli(["solve", "--eps1", "1e300", "--t-end", "10", "--n-points", "11"])
        assert code == 1
        assert capsys.readouterr().err == "error: non-finite state at step 10 (t = 1.0, h = 0.1)\n"

    def test_failure_leaves_no_output_file(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = run_cli([
            "solve", "--dt", "-1", "--output", str(out),
        ])
        assert code == 1
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error:")

    def test_output_onto_a_directory_exits_one_and_leaves_no_temp_file(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.mkdir()
        assert run_cli(["solve", *TINY, "--output", str(taken)]) == 1
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.glob(".odesens-*.tmp")) == []
        assert list(taken.iterdir()) == []


class TestSens:
    def test_header_and_first_row_invariants(self, capsys):
        assert run_cli(["sens", *SMALL]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == [
            "t", "Y1", "Y2",
            "dY1dp1", "dY2dp1", "dY1dp2", "dY2dp2",
            "dY1dp3", "dY2dp3", "dY1dp4", "dY2dp4",
            "dY1dy01", "dY2dy01", "dY1dy02", "dY2dy02",
        ]
        first = [float(v) for v in rows[0]]
        assert first[3:11] == [0.0] * 8
        assert first[11:] == [1.0, 0.0, 0.0, 1.0]

    def test_jac_providers_agree(self, capsys):
        assert run_cli(["sens", *SMALL, "--jac", "analytic"]) == 0
        _, rows_a = parse_csv(capsys.readouterr().out)
        assert run_cli(["sens", *SMALL, "--jac", "ad"]) == 0
        _, rows_b = parse_csv(capsys.readouterr().out)
        a = np.array([[float(v) for v in r] for r in rows_a])
        b = np.array([[float(v) for v in r] for r in rows_b])
        assert np.max(np.abs(a - b)) <= 1e-13 * max(np.max(np.abs(a)), 1.0)

    def test_linear_model_final_sensitivity(self, capsys):
        code = run_cli([
            "sens", "--model", "linear", "--solver", "rk23",
            "--eps1", "0.5", "--y0-1", "2.0",
            "--t0", "0", "--t-end", "1", "--n-points", "2",
            "--rel-tol", "1e-8", "--abs-tol", "1e-10",
        ])
        assert code == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["t", "Y1", "dY1dp1", "dY1dy01"]
        final = [float(v) for v in rows[-1]]
        assert final[2] == pytest.approx(2.0 * math.exp(0.5), rel=1e-6)
        assert final[3] == pytest.approx(math.exp(0.5), rel=1e-6)

    def test_seed_columns_filter(self, capsys):
        assert run_cli(["sens", *TINY, "--seed-columns", "dY1dp2,dY2dy02"]) == 0
        header, rows = parse_csv(capsys.readouterr().out)
        assert header == ["t", "Y1", "Y2", "dY1dp2", "dY2dy02"]
        assert len(rows[0]) == 5

    def test_unknown_seed_column_exits_one(self, capsys):
        assert run_cli(["sens", *TINY, "--seed-columns", "dY9dp9"]) == 1
        assert "unknown sensitivity columns" in capsys.readouterr().err


class TestCompare:
    def test_table_and_csv(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert run_cli(["compare", *SMALL, "--output", str(out)]) == 0
        text = capsys.readouterr().out
        assert "vs. ad" in text and "analytic" in text
        header, rows = parse_csv(out.read_text())
        assert header == ["method_a", "method_b", "rel_error"]
        assert len(rows) == 6
        by_pair = {(r[0], r[1]): float(r[2]) for r in rows}
        assert by_pair[("analytic", "ad")] <= 1e-13

    def test_csv_to_stdout_without_output(self, capsys):
        assert run_cli(["compare", *TINY]) == 0
        text = capsys.readouterr().out
        assert "method_a,method_b,rel_error" in text


class TestGradient:
    def test_modes_agree(self, capsys):
        grads = {}
        for mode in ("fm", "rm"):
            assert run_cli(["gradient", *SMALL, "--mode", mode]) == 0
            header, rows = parse_csv(capsys.readouterr().out)
            assert header == ["input", "dz"]
            assert [r[0] for r in rows] == ["y0_1", "y0_2", "eps1", "gamma1", "eps2", "gamma2"]
            grads[mode] = np.array([float(r[1]) for r in rows])
        assert np.max(np.abs(grads["fm"] - grads["rm"])) <= 1e-12 * np.max(np.abs(grads["rm"]))

    def test_fd_and_cs_modes_run(self, capsys):
        for mode in ("fd", "cs"):
            assert run_cli(["gradient", *TINY, "--mode", mode]) == 0
            _, rows = parse_csv(capsys.readouterr().out)
            assert len(rows) == 6


class TestHessian:
    def test_forward_over_reverse_vs_fd(self, capsys):
        assert run_cli(["hessian", *TINY, "--method", "for"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        h_for = np.array([[float(v) for v in r] for r in rows])
        assert run_cli(["hessian", *TINY, "--method", "fd"]) == 0
        _, rows = parse_csv(capsys.readouterr().out)
        h_fd = np.array([[float(v) for v in r] for r in rows])
        assert h_for.shape == (6, 6)
        assert np.linalg.norm(h_for - h_for.T) <= 1e-10 * np.linalg.norm(h_for)
        assert np.linalg.norm(h_for - h_fd) <= 1e-5 * np.linalg.norm(h_for)


class TestBench:
    def test_structure(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert run_cli(["bench", *TINY, "--output", str(out)]) == 0
        header, rows = parse_csv(out.read_text())
        assert header == ["solver", "analytic", "ad", "fd", "cs"]
        assert [r[0] for r in rows] == ["euler", "rk23"]
        for row in rows:
            assert all(float(v) > 0.0 for v in row[1:])


@given(arrays(float, (3, 4), elements=st.floats(allow_nan=False)))
def test_csv_rows_match_per_cell_repr(table):
    # hypothesis draws -0.0, subnormals and infinities among the doubles
    assert _csv_rows(table) == [",".join(_fmt(v) for v in row) for row in table]


@st.composite
def _small_scenarios(draw):
    rate, coupling = st.floats(1e-3, 0.1), st.floats(1e-5, 1e-3)
    values = {
        "eps1": draw(rate), "gamma1": draw(coupling), "eps2": draw(rate), "gamma2": draw(coupling),
        "y0_1": draw(st.floats(1.0, 2000.0)), "y0_2": draw(st.floats(1.0, 100.0)),
    }
    return Scenario(
        model=draw(st.sampled_from(("lv", "linear"))), values=values,
        t_end=draw(st.floats(0.5, 20.0)), n_points=draw(st.integers(1, 25)),
        solver=draw(st.sampled_from(SOLVERS)), dt=draw(st.floats(0.05, 0.5)),
    )


def _cli_table(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(args) == 0
    return np.array([[float(cell) for cell in line.split(",")]
                     for line in out.getvalue().splitlines()[1:]])


@given(_small_scenarios(), st.sampled_from(("analytic", "ad")))
def test_solve_and_sens_csv_round_trip_every_double(scenario, jac):
    flags = ["--model", scenario.model]
    for line in format_scenario(scenario).splitlines():
        key, value = line.split("=")
        flags += ["--" + key.replace("_", "-"), value]
    model, p, y0 = scenario.ode_model(), scenario.params_array(), scenario.initial_state()
    time, method = scenario.time_spec(), scenario.method()

    traj = run_solver(lambda t, y: model.rhs(t, y, p), time, y0, method)
    expected = np.column_stack([traj.times, traj.states])
    assert _cli_table(["solve", *flags]).tobytes() == expected.tobytes()

    bundle = forward_sensitivity_solve(model.rhs, jacobian_provider(model, jac), p, y0, time, method)
    expected = np.column_stack([bundle.times, bundle.states.reshape(bundle.times.shape[0], -1)])
    assert _cli_table(["sens", "--jac", jac, *flags]).tobytes() == expected.tobytes()


# The option surface of every subcommand as recorded before the scenario
# keys came from the model declarations: (option strings, dest, type,
# choices, default), in parser order.
_SCENARIO_OPTIONS = [
    (("-h", "--help"), "help", None, None, argparse.SUPPRESS),
    (("--scenario",), "scenario", None, None, None),
    (("--model",), "model", None, ("lv", "linear", "zero"), "lv"),
    (("--eps1",), "eps1", float, None, None),
    (("--gamma1",), "gamma1", float, None, None),
    (("--eps2",), "eps2", float, None, None),
    (("--gamma2",), "gamma2", float, None, None),
    (("--y0-1",), "y0_1", float, None, None),
    (("--y0-2",), "y0_2", float, None, None),
    (("--t0",), "t0", float, None, None),
    (("--t-end",), "t_end", float, None, None),
    (("--n-points",), "n_points", int, None, None),
    (("--solver",), "solver", str, ("euler", "rk23"), None),
    (("--dt",), "dt", float, None, None),
    (("--rel-tol",), "rel_tol", float, None, None),
    (("--abs-tol",), "abs_tol", float, None, None),
    (("--output",), "output", None, None, None),
]
_OPTION_SURFACE = {
    "solve": _SCENARIO_OPTIONS,
    "sens": _SCENARIO_OPTIONS + [
        (("--jac",), "jac", None, ("analytic", "ad"), "ad"),
        (("--seed-columns",), "seed_columns", None, None, None),
    ],
    "compare": _SCENARIO_OPTIONS,
    "gradient": _SCENARIO_OPTIONS + [
        (("--mode",), "mode", None, ("fm", "rm", "fd", "cs"), "rm"),
        (("--jac",), "jac", None, ("analytic", "ad"), "analytic"),
    ],
    "hessian": _SCENARIO_OPTIONS + [
        (("--method",), "method", None, ("for", "fd"), "for"),
        (("--jac",), "jac", None, ("analytic", "ad"), "analytic"),
    ],
    "bench": _SCENARIO_OPTIONS,
}


def test_option_surface_is_pinned():
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    surface = {
        name: [(tuple(a.option_strings), a.dest, a.type, a.choices, a.default)
               for a in parser._actions]
        for name, parser in commands.items()
    }
    assert surface == _OPTION_SURFACE


def test_parser_is_built_once_per_model_registry(monkeypatch, request, capsys):
    built = []

    def counted():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    assert run_cli(["solve", *TINY]) == 0
    assert run_cli(["gradient", *TINY]) == 0
    assert len(built) <= 1
    before = len(built)
    # a model registered after the first call still gets its flags
    request.getfixturevalue("binding")
    capsys.readouterr()
    assert run_cli(["solve", "--model", "binding", "--k-on", "0.7", *TINY]) == 0
    header, rows = parse_csv(capsys.readouterr().out)
    assert header == ["t", "Y1", "Y2", "Y3"] and len(rows) == 6
    assert run_cli(["sens", "--model", "binding", "--c0", "0.5", *TINY]) == 0
    assert len(built) == before + 1


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_scenario_example_is_the_default_scenario():
    readme = README.read_text(encoding="utf-8")
    example = readme.split("Scenario files are plain", 1)[1].split("```\n", 2)[1]
    assert example == format_scenario(Scenario())


def test_readme_library_quick_start_runs():
    quick_start = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = quick_start.split("```python\n", 1)[1].split("```\n", 1)[0]
    names = {}
    exec(code, names)
    assert names["bundle"].dy_dp[-1].shape == (2, 4) and names["a_p"].shape == (4,)
    assert np.array_equal(names["same"].states, names["bundle"].states)


class TestThreeStateTwoRateModel:
    """A model registered only through its ``MODELS`` entry runs through every command."""

    SETTINGS = {"values": {"k_on": 0.6, "c0": 0.25}, "t_end": 5.0, "n_points": 11}

    @pytest.fixture(params=["flags", "file"])
    def args(self, request, binding, tmp_path):
        if request.param == "flags":
            return ["--model", "binding", "--t-end", "5", "--n-points", "11",
                    "--k-on", "0.6", "--c0", "0.25"]
        path = tmp_path / "binding.scn"
        path.write_text(format_scenario(Scenario(model="binding", **self.SETTINGS)))
        return ["--model", "binding", "--scenario", str(path)]

    def test_flags_and_file_give_the_same_run(self, args, binding, capsys):
        sc = Scenario(model="binding", **self.SETTINGS)
        p = sc.params_array()
        traj = run_solver(lambda t, y: binding.rhs(t, y, p), sc.time_spec(), sc.initial_state(), sc.method())
        assert run_cli(["solve", *args]) == 0
        header, _ = parse_csv(capsys.readouterr().out)
        assert header == ["t", "Y1", "Y2", "Y3"]
        expected = np.column_stack([traj.times, traj.states])
        assert _cli_table(["solve", *args]).tobytes() == expected.tobytes()
        assert list(expected[0]) == [0.0, 1.0, 2.0, 0.25]

    def test_sens_labels_seed_columns_and_providers(self, args, capsys):
        assert run_cli(["sens", "--jac", "analytic", *args]) == 0
        analytic = capsys.readouterr().out
        assert run_cli(["sens", "--jac", "ad", *args]) == 0
        assert capsys.readouterr().out == analytic
        header, rows = parse_csv(analytic)
        assert header == ["t", "Y1", "Y2", "Y3"] + [
            f"dY{i}d{seed}{j}" for seed, n in (("p", 2), ("y0", 3))
            for j in range(1, n + 1) for i in (1, 2, 3)
        ]
        assert [float(v) for v in rows[0][4:]] == [0.0] * 6 + list(np.eye(3).ravel())
        assert run_cli(["sens", *args, "--seed-columns", "dY3dp1,dY1dy03"]) == 0
        sub_header, sub_rows = parse_csv(capsys.readouterr().out)
        assert sub_header == ["t", "Y1", "Y2", "Y3", "dY3dp1", "dY1dy03"]
        keep = [0, 1, 2, 3, header.index("dY3dp1"), header.index("dY1dy03")]
        assert sub_rows == [[row[i] for i in keep] for row in rows]

    def test_compare_runs_fd_as_lanes(self, args, capsys, solve_shapes):
        assert run_cli(["compare", *args]) == 0
        _, rows = parse_csv(capsys.readouterr().out.split("\n\n", 1)[1])
        errors = {(r[0], r[1]): float(r[2]) for r in rows}
        assert len(errors) == 6
        assert errors[("analytic", "ad")] == 0.0
        assert errors[("analytic", "cs")] <= 1e-14
        assert errors[("analytic", "fd")] <= 1e-6
        # two (1 + k + m, m) composite solves, the d + 1 = 6 FD points as lanes
        # of one Euler solve, then the 5 complex points as lanes of another
        assert solve_shapes == [(6, 3), (6, 3), (3, 6), (3, 5)]

    def test_gradient_modes_agree(self, args, capsys):
        grads = {}
        for mode in ("fm", "rm", "fd", "cs"):
            assert run_cli(["gradient", *args, "--mode", mode]) == 0
            header, rows = parse_csv(capsys.readouterr().out)
            assert header == ["input", "dz"]
            assert [r[0] for r in rows] == ["a0", "b0", "c0", "k_on", "k_off"]
            grads[mode] = np.array([float(r[1]) for r in rows])
        scale = np.max(np.abs(grads["rm"]))
        assert np.max(np.abs(grads["fm"] - grads["rm"])) <= 1e-13 * scale
        assert np.max(np.abs(grads["cs"] - grads["rm"])) <= 1e-13 * scale
        assert np.max(np.abs(grads["fd"] - grads["rm"])) <= 1e-6 * scale

    # SHA-256 of the `hessian --method for` output file, recorded before the
    # lowered solve had a structured Jacobian; m = 3 reaches sums of 3 terms
    HESSIAN_DIGESTS = {
        "analytic": "fb9ab68b4b8ad32e65a711dadad06315a604b47e03de8bf0ba56494e68d3d261",
        "ad": "fb9ab68b4b8ad32e65a711dadad06315a604b47e03de8bf0ba56494e68d3d261",
        "rk23": "71417df059830ec039d4247a59f5f70d4df67d18718a2871fd7ce422cee13758",
    }

    @pytest.mark.parametrize("variant, extra", [
        ("analytic", ["--jac", "analytic"]),
        ("ad", ["--jac", "ad"]),
        ("rk23", ["--solver", "rk23"]),
    ])
    def test_hessian_digest_is_pinned(self, args, variant, extra, tmp_path):
        out = tmp_path / "hessian.csv"
        assert run_cli(["hessian", *args, "--method", "for", *extra, "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.HESSIAN_DIGESTS[variant]

    def test_hessian_methods_agree(self, args, capsys):
        hessians = {}
        for method in ("for", "fd"):
            assert run_cli(["hessian", *args, "--method", method]) == 0
            header, rows = parse_csv(capsys.readouterr().out)
            assert header == ["a0", "b0", "c0", "k_on", "k_off"]
            hessians[method] = np.array([[float(v) for v in r] for r in rows])
        h_for, h_fd = hessians["for"], hessians["fd"]
        assert h_for.shape == (5, 5)
        assert np.linalg.norm(h_for - h_for.T) <= 1e-12 * np.linalg.norm(h_for)
        assert np.linalg.norm(h_for - h_fd) <= 1e-7 * np.linalg.norm(h_for)
