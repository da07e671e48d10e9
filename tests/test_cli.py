"""Command-line interface: schema, round trips, exit codes."""
import argparse
import csv
import dataclasses
import io
import json
import math

import pytest

from xxzfidelity import (InvalidSpec, ModelPoint, evaluate_point, fidelity,
                         identity_report, log_correlation_length, qseries)
from xxzfidelity.cli import (EXIT_NUMERICAL, EXIT_OK, EXIT_VALIDATION,
                             POINT_COLUMNS, RunConfig, _grid, build_parser,
                             main, run)
from xxzfidelity.scaling import MAX_GRID_COUNT

from xi_one import xi_one_x


def _invoke(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_json_matches_library(self, capsys):
        code, out, err = _invoke(capsys, ["eval", "--x", "0.5"])
        assert code == EXIT_OK
        assert err == ""
        row = json.loads(out)
        assert list(row.keys()) == list(POINT_COLUMNS)
        p = ModelPoint.from_x(0.5)
        result = fidelity(p)
        assert row["f"] == result.f
        assert row["ln_f"] == result.ln_f
        assert row["path"] == result.path.value
        assert row["eps"] == p.eps
        assert row["delta"] == p.delta
        ln_xi = log_correlation_length(p)
        assert row["ln_xi"] == ln_xi
        assert row["xi"] == math.exp(ln_xi)
        assert row["ratio"] == -result.ln_f / ln_xi

    def test_eps_entry_point(self, capsys):
        code, out, _ = _invoke(capsys, ["eval", "--eps", "0.5"])
        assert code == EXIT_OK
        row = json.loads(out)
        assert row["x"] == math.exp(-0.5)

    def test_small_eps_succeeds(self, capsys):
        code, out, err = _invoke(capsys, ["eval", "--eps", "1e-6"])
        assert code == EXIT_OK and err == ""
        row = json.loads(out)
        assert row["ln_f"] == fidelity(ModelPoint.from_eps(1e-6)).ln_f
        assert row["ratio"] == pytest.approx(0.125, abs=1e-12)

    def test_xi_beyond_double_range(self, capsys):
        code, out, _ = _invoke(capsys, ["eval", "--eps", "1e-3"])
        assert code == EXIT_OK
        row = json.loads(out)
        assert math.isinf(row["xi"])
        assert math.isfinite(row["ln_xi"])
        assert row["ln_xi"] > 4000.0

    def test_ratio_inf_where_xi_is_one(self, capsys):
        x = xi_one_x()  # ln xi rounds to zero here
        code, out, _ = _invoke(capsys, ["eval", "--x", repr(x)])
        assert code == EXIT_OK
        row = json.loads(out)
        point = evaluate_point(ModelPoint.from_x(x))
        assert row["ln_xi"] == point.ln_xi == 0.0
        assert row["xi"] == point.xi == 1.0
        assert row["ratio"] == point.ratio == math.inf
        assert row["ln_f"] == point.fidelity.ln_f

    def test_invalid_x_exits_1_with_stderr_json(self, capsys):
        code, out, err = _invoke(capsys, ["eval", "--x", "1.5"])
        assert code == EXIT_VALIDATION
        assert out == ""
        report = json.loads(err)
        assert report["error"] == "InvalidSpec"
        assert "1.5" in report["message"]

    def test_needs_exactly_one_coordinate(self, capsys):
        for argv in (["eval"], ["eval", "--x", "0.5", "--eps", "0.5"]):
            code, _, err = _invoke(capsys, argv)
            assert code == EXIT_VALIDATION
            assert json.loads(err)["error"] == "InvalidSpec"

    def test_invalid_rel_tol_exits_1_with_stderr_json(self, capsys):
        # the error target is a module constant; the parser refuses the flag
        code, out, err = _invoke(capsys, ["eval", "--x", "0.5", "--rel-tol", "inf"])
        assert code == EXIT_VALIDATION
        assert out == ""
        assert json.loads(err)["error"] == "InvalidSpec"

    def test_numerical_failure_exits_2(self, capsys, monkeypatch):
        monkeypatch.setattr(qseries, "SERIES_MAX_TERMS", 3)
        code, _, err = _invoke(capsys, ["eval", "--x", "0.5"])
        assert code == EXIT_NUMERICAL
        assert json.loads(err)["error"] == "NonConvergent"


class TestScan:
    def test_linear_grid(self, capsys):
        code, out, _ = _invoke(
            capsys, ["scan", "--min", "0.2", "--max", "0.8", "--count", "4"])
        assert code == EXIT_OK
        rows = json.loads(out)
        assert [r["x"] for r in rows] == [0.2, 0.4, 0.6000000000000001, 0.8]
        assert all(list(r.keys()) == list(POINT_COLUMNS) for r in rows)
        assert rows[0]["f"] == fidelity(ModelPoint.from_x(0.2)).f

    def test_linear_grid_ends_at_its_max(self, capsys):
        # lo + i*step rounds: these two once stepped past their own --max
        x_max, eps_max = "0.9999999999999999", "745.1332191019411"
        for argv, var in ((["--min", "0.1", "--max", x_max, "--count", "28"],
                           "x"),
                          (["--var", "eps", "--min", "0.001", "--max", eps_max,
                            "--count", "6"], "eps")):
            code, out, err = _invoke(capsys, ["scan"] + argv)
            assert (code, err) == (EXIT_OK, ""), argv
            last = argv[argv.index("--max") + 1]
            assert json.loads(out)[-1][var] == float(last)
        # before, 1,543 of these x grids missed their end and 84 of the eps
        # grids passed it
        x_los = (0.013, 0.05, 0.1, 0.2, 0.3, 0.33, 0.5, 0.7)
        for var, los, hi in (("x", x_los, float(x_max)),
                             ("eps", (0.001, 0.5, 1.0), float(eps_max))):
            for lo in los:
                for count in range(2, 400):
                    grid = _grid(RunConfig(command="scan", grid_var=var,
                                           grid_min=lo, grid_max=hi,
                                           count=count))
                    assert len(grid) == count and grid[-1] == hi, (lo, count)
                    assert all(lo <= v <= hi for v in grid), (lo, count)

    def test_log_spaced_eps_grid(self, capsys):
        code, out, _ = _invoke(
            capsys, ["scan", "--var", "eps", "--min", "1e-3", "--max", "1e-1",
                     "--count", "3", "--spacing", "log"])
        assert code == EXIT_OK
        eps = [r["eps"] for r in json.loads(out)]
        assert eps == pytest.approx([1e-3, 1e-2, 1e-1], rel=1e-12, abs=0)

    def test_csv_round_trip(self, capsys):
        argv = ["scan", "--min", "0.2", "--max", "0.8", "--count", "3"]
        _, json_out, _ = _invoke(capsys, argv)
        code, csv_out, _ = _invoke(capsys, argv + ["--format", "csv"])
        assert code == EXIT_OK
        reader = csv.reader(io.StringIO(csv_out))
        header = next(reader)
        assert header == list(POINT_COLUMNS)
        json_rows = json.loads(json_out)
        csv_rows = list(reader)
        assert len(csv_rows) == len(json_rows)
        for jrow, crow in zip(json_rows, csv_rows):
            cells = dict(zip(header, crow))
            # repr round-trip: CSV floats reparse to the identical double
            for key in ("x", "f", "ln_f", "ln_xi", "est_rel_error"):
                assert float(cells[key]) == jrow[key]
            assert cells["path"] == jrow["path"]

    def test_byte_identical_reruns(self, capsys):
        argv = ["scan", "--min", "0.3", "--max", "0.7", "--count", "5"]
        _, first, _ = _invoke(capsys, argv)
        _, second, _ = _invoke(capsys, argv)
        assert first == second

    def test_grid_validation(self, capsys):
        bad = (["scan", "--min", "0.8", "--max", "0.2"],
               ["scan", "--min", "0.0", "--max", "0.5"],
               ["scan", "--min", "0.2", "--max", "0.5", "--count", "0"],
               # past MAX_GRID_COUNT; 10**400 is past the float range
               ["scan", "--min", "0.1", "--max", "0.5", "--count",
                str(MAX_GRID_COUNT + 1)],
               ["scan", "--min", "0.1", "--max", "0.5", "--count",
                "1" + "0" * 400],
               ["scan", "--var", "eps", "--min", "-1.0", "--max", "1.0"],
               ["scan", "--var", "z", "--min", "0.2", "--max", "0.5"],
               ["scan", "--min", "0.2", "--max", "0.5", "--format", "xml"],
               ["scan", "--min", "0.2", "--max", "0.5", "--spacing", "cubic"])
        for argv in bad:
            code, out, err = _invoke(capsys, argv)
            assert code == EXIT_VALIDATION, argv
            assert out == ""
            assert json.loads(err)["error"] == "InvalidSpec"


class TestFit:
    def test_extracts_reference_coefficients(self, capsys):
        code, out, _ = _invoke(
            capsys, ["fit", "--eps-min", "1e-3", "--eps-max", "1e-2"])
        assert code == EXIT_OK
        rows = {r["quantity"]: r for r in json.loads(out)}
        assert set(rows) == {"minus_ln_f", "ln_xi"}
        for row in rows.values():
            assert list(row) == ["quantity", "A", "B", "C", "max_residual",
                                 "sample_count", "A_expected", "A_rel_error",
                                 "B_expected", "B_abs_error"]
        f_row = rows["minus_ln_f"]
        assert f_row["A_expected"] == math.pi ** 2 / 16.0
        assert f_row["A_rel_error"] < 1e-6
        assert f_row["B_abs_error"] < 1e-4
        xi_row = rows["ln_xi"]
        assert xi_row["A_expected"] == math.pi ** 2 / 2.0
        assert xi_row["A_rel_error"] < 1e-12
        assert xi_row["B_abs_error"] < 1e-10
        assert f_row["sample_count"] == xi_row["sample_count"] == 10

    def test_three_samples_suffice(self, capsys):
        code, out, err = _invoke(
            capsys, ["fit", "--eps-min", "1e-3", "--eps-max", "1e-2",
                     "--count", "3"])
        assert code == EXIT_OK, err
        rows = json.loads(out)
        assert len(rows) == 2
        assert all(r["sample_count"] == 3 for r in rows)

    def test_needs_three_samples(self, capsys):
        code, out, err = _invoke(
            capsys, ["fit", "--eps-min", "1e-3", "--eps-max", "1e-2",
                     "--count", "2"])
        assert code == EXIT_VALIDATION
        assert out == ""
        assert json.loads(err) == {"error": "InvalidSpec",
                                   "message": "need at least 3 samples, got 2"}


class TestIdentities:
    def test_all_residuals_small(self, capsys):
        code, out, _ = _invoke(capsys, ["identities"])
        assert code == EXIT_OK
        rows = json.loads(out)
        assert {r["check"] for r in rows} == {
            "qcalc_r1", "qcalc_r2", "minus_one_peel", "short_theta",
            "three_path_fidelity", "moduli_complementary", "moduli_duality",
            "g_series_vs_product"}
        for r in rows:
            assert r["max_residual"] < 1e-10, r["check"]

    def test_rows_are_the_library_report(self, capsys):
        code, out, _ = _invoke(capsys, ["identities"])
        assert code == EXIT_OK
        assert [(r["check"], r["max_residual"])
                for r in json.loads(out)] == identity_report()

    def test_csv_shape(self, capsys):
        code, out, _ = _invoke(capsys, ["identities", "--format", "csv"])
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "check,max_residual"
        assert len(lines) == 9


class TestEd:
    def test_convergence_rows(self, capsys):
        code, out, _ = _invoke(capsys, ["ed", "--x", "0.2", "--Ls", "4,8"])
        assert code == EXIT_OK
        rows = json.loads(out)
        assert [r["L"] for r in rows] == [4, 8]
        assert rows[0]["abs_error"] > rows[1]["abs_error"]
        assert rows[0]["f_exact"] == rows[1]["f_exact"]
        for r in rows:
            assert r["abs_error"] == pytest.approx(
                abs(r["f_finite"] - r["f_exact"]), abs=1e-12)

    def test_one_exact_value_at_the_requested_tolerance(self, capsys,
                                                         monkeypatch):
        monkeypatch.setattr(qseries, "REL_TOL", 1e-6)
        code, out, _ = _invoke(capsys, ["ed", "--x", "0.6", "--Ls", "4,6"])
        assert code == EXIT_OK
        f_exact = fidelity(ModelPoint.from_x(0.6)).f
        for r in json.loads(out):
            assert r["f_exact"] == f_exact
            assert r["abs_error"] == abs(r["f_finite"] - f_exact)

    def test_chain_too_long_to_solve_exits_2(self, capsys):
        # refused for its length, which is past MAX_LENGTH, not for x
        code, out, err = _invoke(
            capsys, ["ed", "--x", "0.2", "--Ls", "1" + "0" * 400])
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert json.loads(err)["error"] == "SizeLimit"

    def test_x_whose_hamiltonian_overflows_rejected(self, capsys):
        code, out, err = _invoke(capsys, ["ed", "--x", "1e-310", "--Ls", "8"])
        assert code == EXIT_VALIDATION
        assert out == ""
        assert err.count("\n") == 1
        assert "x=1e-310" in json.loads(err)["message"]

    def test_odd_length_rejected(self, capsys):
        code, _, err = _invoke(capsys, ["ed", "--x", "0.2", "--Ls", "5"])
        assert code == EXIT_VALIDATION
        assert json.loads(err)["error"] == "InvalidSpec"

    def test_bad_x_rejected_without_lengths(self, capsys):
        code = run(RunConfig(command="ed", x=5.0, Ls=()))
        captured = capsys.readouterr()
        assert code == EXIT_VALIDATION
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "InvalidSpec"


class TestOutputFile:
    def test_writes_file_instead_of_stdout(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        argv = ["eval", "--x", "0.5"]
        _, stdout_text, _ = _invoke(capsys, argv)
        code, out, _ = _invoke(capsys, argv + ["--output", str(target)])
        assert code == EXIT_OK
        assert out == ""
        assert target.read_text(encoding="utf-8") == stdout_text

    def test_unwritable_target_exits_1_with_stderr_json(self, capsys, tmp_path):
        code, out, err = _invoke(
            capsys, ["eval", "--x", "0.5", "--output", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert out == ""
        report = json.loads(err)
        assert report["error"] == "InvalidSpec"
        assert str(tmp_path) in report["message"]


class TestParser:
    def test_usage_errors_exit_1(self, capsys):
        # the term caps and the error target are module constants, not flags
        for argv in ([], ["eval", "--bogus", "1"], ["frobnicate"],
                     ["eval", "--x", "0.5", "--max-terms", "3"],
                     ["eval", "--x", "0.5", "--rel-tol", "1e-10"],
                     ["eval", "--x", "abc"],
                     ["ed", "--x", "0.3", "--Ls", "a,b"]):
            code, out, err = _invoke(capsys, argv)
            assert code == EXIT_VALIDATION, argv
            assert out == ""
            assert err.count("\n") == 1
            report = json.loads(err)
            assert report["error"] == "InvalidSpec", argv
            assert report["message"].startswith("xxzfid")
        # the last one names its flag and what the flag takes, not a lambda
        assert report["message"] == ("xxzfid ed: argument --Ls: takes "
                                     "comma-separated even integers, got 'a,b'")

    def test_missing_field_is_reported_by_run_config(self, capsys):
        # the parser requires no flag, so a missing field gets RunConfig's
        # one message, whichever entry point leaves it out
        for argv, fields in ((["ed"], {}),
                             (["ed", "--Ls", "8"], {"Ls": (8,)}),
                             (["scan", "--min", "0.1"], {"grid_min": 0.1}),
                             (["scan", "--max", "0.5"], {"grid_max": 0.5}),
                             (["fit", "--eps-min", "1e-3"],
                              {"grid_min": 1e-3}),
                             (["fit"], {})):
            with pytest.raises(InvalidSpec) as raised:
                RunConfig(command=argv[0], **fields)
            code, out, err = _invoke(capsys, argv)
            assert (code, out) == (EXIT_VALIDATION, ""), argv
            assert json.loads(err) == {"error": "InvalidSpec",
                                       "message": str(raised.value)}, argv

    def test_help_exits_0(self, capsys):
        for argv in (["--help"], ["scan", "--help"]):
            code, out, err = _invoke(capsys, argv)
            assert code == EXIT_OK
            assert out.startswith("usage: xxzfid") and err == ""

    def test_defaults_are_those_of_run_config(self, capsys):
        # the parser sets no defaults of its own, so a flag left out means
        # the same as a RunConfig field left out: log eps for fit, L = 8, 12
        for argv, config in (
                (["fit", "--eps-min", "1e-3", "--eps-max", "1e-2"],
                 RunConfig(command="fit", grid_min=1e-3, grid_max=1e-2)),
                (["ed", "--x", "0.3"], RunConfig(command="ed", x=0.3))):
            code, out, err = _invoke(capsys, argv)
            assert code == EXIT_OK and err == ""
            assert run(config) == EXIT_OK
            assert capsys.readouterr().out == out, argv
        assert [r["L"] for r in json.loads(out)] == [8, 12]
        assert RunConfig(command="fit", grid_min=1e-3, grid_max=1e-2).spacing == "log"
        assert RunConfig(command="scan", grid_min=0.1, grid_max=0.5).spacing == "linear"

    def test_flags_set_exactly_the_run_config_fields(self):
        # main passes the parsed namespace to RunConfig whole: a flag with no
        # field fails there, and a field that no flag sets is dead code
        parser = build_parser()
        (commands,) = [a for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)]
        dests = {commands.dest}
        for sub in commands.choices.values():
            dests |= {a.dest for a in sub._actions
                      if not isinstance(a, argparse._HelpAction)}
        assert dests == {f.name for f in dataclasses.fields(RunConfig)}


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(InvalidSpec):
            RunConfig(command="frobnicate")
        with pytest.raises(InvalidSpec):
            RunConfig(command="identities", fmt="xml")
        with pytest.raises(InvalidSpec):
            RunConfig(command="eval")
        with pytest.raises(InvalidSpec):
            RunConfig(command="eval", x=0.5, eps=0.5)
        with pytest.raises(InvalidSpec):
            RunConfig(command="scan", grid_min=0.2)
        with pytest.raises(InvalidSpec):
            RunConfig(command="scan", grid_var="z", grid_min=0.2, grid_max=0.5)
        # the rule of log_spaced; 10**5000 is past repr()'s digit limit
        for bad in (2.5, 3.0, True, MAX_GRID_COUNT + 1, 10 ** 400, 10 ** 5000):
            with pytest.raises(InvalidSpec):
                RunConfig(command="scan", grid_min=0.1, grid_max=0.5, count=bad)
        with pytest.raises(InvalidSpec):
            RunConfig(command="ed")
        # fit bounds are eps, whatever their size; an x grid is refused
        assert RunConfig(command="fit", grid_min=1e-3, grid_max=2.0).grid_var == "eps"
        with pytest.raises(InvalidSpec):
            RunConfig(command="fit", grid_var="x", grid_min=0.1, grid_max=0.5)
        with pytest.raises(InvalidSpec):
            RunConfig(command="fit", grid_min=0.0, grid_max=2.0)
        # both bounds by ModelPoint's rule, before any point is computed:
        # x = e^{-800} underflows to 0
        with pytest.raises(InvalidSpec):
            RunConfig(command="scan", grid_var="eps", grid_min=0.5, grid_max=800.0)
        with pytest.raises(InvalidSpec):
            RunConfig(command="fit", grid_min=1e-3, grid_max=800.0)
        assert RunConfig(command="scan", grid_min=0.2, grid_max=0.5).grid_var == "x"

    def test_run_accepts_config_directly(self, capsys, tmp_path):
        target = tmp_path / "point.json"
        code = run(RunConfig(command="eval", x=0.3, output=str(target)))
        assert code == EXIT_OK
        row = json.loads(target.read_text(encoding="utf-8"))
        assert row["x"] == 0.3
