"""Command-line interface: exit codes, serialization, determinism."""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthostab import cli, stability
from orthostab.cli import _fmt, dump_json_17g, main, parse_args
from orthostab.funcspace import MapHandle, map_sum

FAST = ["--samples", "48", "--pairs", "48"]


class TestJsonDump:
    def test_float_17g_round_trip(self):
        for v in (0.1, 1.0 / 3.0, 2.0 ** -1074, 1e300, -0.0):
            assert float(json.loads(dump_json_17g(v))) == v

    def test_non_finite_become_strings(self):
        assert dump_json_17g(math.inf) == '"Infinity"'
        assert dump_json_17g(-math.inf) == '"-Infinity"'
        assert dump_json_17g(math.nan) == '"NaN"'

    def test_csv_spelling(self):
        assert _fmt(math.inf) == "Infinity"
        assert _fmt(-math.inf) == "-Infinity"
        assert _fmt(math.nan) == "NaN"
        assert _fmt(0.1) == "0.10000000000000001"

    def test_scalars_and_nesting(self):
        obj = {"a": [True, None, 2], "b": {"c": "x\"y"}}
        assert json.loads(dump_json_17g(obj)) == obj

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            dump_json_17g(object())

    def test_numpy_scalars(self):
        import numpy as np
        assert json.loads(dump_json_17g(np.float64(0.5))) == 0.5
        assert json.loads(dump_json_17g(np.int64(3))) == 3
        assert json.loads(dump_json_17g(np.bool_(True))) is True


class TestParsing:
    def test_defaults(self):
        args = parse_args(["report"])
        assert args.relation == "inner"
        assert args.dim == 3
        assert args.pairs == 512
        assert args.delta == 0.0
        assert args.seed == 42

    def test_cubic_only_where_meaningful(self):
        parse_args(["extract", "--cubic", "1.0"])
        parse_args(["quadratic", "--cubic", "1.0"])
        with pytest.raises(SystemExit):
            parse_args(["report", "--cubic", "1.0"])


class TestExitCodes:
    def test_exact_report_passes(self):
        assert main(["report", *FAST]) == 0

    def test_noisy_report_passes(self):
        assert main(["report", "--delta", "1e-2", *FAST]) == 0

    def test_bad_dimension_is_usage_error(self, capsys):
        assert main(["report", "--dim", "1", *FAST]) == 2
        assert capsys.readouterr().err != ""

    def test_bad_relation_name(self):
        with pytest.raises(SystemExit):
            parse_args(["report", "--relation", "sobolev"])

    def test_cubic_extract_reports_divergence(self):
        assert main(["extract", "--cubic", "1.0", *FAST]) == 3

    def test_cubic_quadratic_reports_divergence(self, capsys):
        assert main(["quadratic", "--cubic", "1.0", *FAST]) == 3
        assert "diverg" in capsys.readouterr().err

    def test_axioms_pass(self):
        assert main(["axioms", "--relation", "inner", "--samples", "64"]) == 0

    def test_defect_always_zero_exit(self):
        assert main(["defect", "--delta", "1e-2", *FAST]) == 0

    def test_cauchy_passes(self):
        assert main(["cauchy", "--delta", "1e-3", *FAST]) == 0

    def test_dim2_l1_report_finds_partners(self):
        # a seed at which the search-based pair sampler gave up
        assert main(["report", "--relation", "bj:l1", "--dim", "2",
                     "--pairs", "24", "--samples", "24", "--delta", "0.001",
                     "--seed", "42622"]) == 0

    @pytest.mark.parametrize("command", ["report", "extract"])
    def test_exhausted_budget_is_a_failed_bound(self, command):
        assert main([command, "--n-max", "0", "--delta", "0.01", *FAST]) == 1

    def test_underflowing_radius_is_usage_error(self, capsys):
        assert main(["report", "--radius", "1e-300", *FAST]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    # every comparison with NaN is false, so the guard must ask for the
    # valid range rather than test for the invalid one
    @pytest.mark.parametrize("option", ["--radius", "--tol", "--delta"])
    @pytest.mark.parametrize("command", ["axioms", "defect", "extract",
                                         "report", "cauchy", "quadratic"])
    def test_nan_setting_is_usage_error(self, command, option, capsys,
                                        monkeypatch):
        def refuse(*args):
            raise AssertionError("the command ran")

        monkeypatch.setitem(cli._COMMANDS, command, refuse)
        assert main([command, option, "nan", *FAST]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --radius and --tol must be positive, "
                                "--delta nonnegative\n")

    # a numpy overflow warning would print to stderr before the error line
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        # squared norms overflow: an infinite defect certifies nothing
        ["report", "--radius", "1e100"],
        ["defect", "--radius", "1e100"],
        # the square of the radius itself overflows a float
        ["report", "--radius", "1e200"],
        ["defect", "--radius", "1e200"],
        ["axioms", "--radius", "1e200"],
        ["extract", "--radius", "1e200"],
        ["cauchy", "--radius", "1e200"],
        ["quadratic", "--radius", "1e200"],
        ["report", "--radius", "inf"],
    ])
    def test_overflowing_radius_is_usage_error(self, argv, capsys):
        assert main([*argv, *FAST]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        ["report", "--radius", "1e75"],
        ["axioms", "--radius", "1e140"],
        ["extract", "--radius", "1e150"],
    ])
    def test_large_finite_radius_still_runs(self, argv, capsys):
        assert main([*argv, *FAST]) == 0
        assert capsys.readouterr().err == ""

    # squared norms of lam*x - y0 (axioms) or of f(x + y) overflow
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv, code", [
        (["axioms", "--relation", "inner", "--radius", "1.6e153"], 0),
        (["axioms", "--relation", "inner", "--radius", "1.34e154"], 0),
        (["axioms", "--relation", "trivial", "--radius", "1.6e153"], 1),
        (["axioms", "--relation", "trivial", "--radius", "1.34e154"], 1),
        (["axioms", "--relation", "bj:l2", "--radius", "1.6e153"], 0),
        (["axioms", "--relation", "bj:l2", "--radius", "1.34e154"], 1),
        (["report", "--radius", "7.9e153"], 2),
        (["defect", "--radius", "7.9e153"], 2),
        (["quadratic", "--radius", "7.9e153"], 2),
    ])
    def test_radius_below_the_guard_prints_no_warning(self, argv, code,
                                                      capsys):
        assert main([*argv, "--json", "-"]) == code
        err = capsys.readouterr().err
        if code == 2:
            assert err == ("error: non-finite values measuring the "
                           "equation residual\n")
        else:
            assert err == ""

    @pytest.mark.parametrize("argv", [
        ["report", "--tol", "1e-9", "--delta", "0.01"],
        ["report", "--tol", "1e-6", "--delta", "0.01"],
        ["report", "--tol", "1e-3", "--delta", "0.01"],
        ["cauchy", "--tol", "1e-2", "--delta", "0.1"],
    ], ids=["report-1e-9", "report-1e-6", "report-1e-3", "cauchy-1e-2"])
    def test_doubling_tolerance_follows_tol(self, argv, capsys):
        # the even extraction stops once its gap is at most tol, and the
        # corrector's doubling residual is 4 times that gap
        assert main([*argv, *FAST, "--json", "-"]) == 0
        doc = json.loads(capsys.readouterr().out)["report"]
        residual = doc["necessity"]["corrector_doubling_residual"]
        assert residual == 4.0 * doc["iterations"]["S"]["raw_gaps"][-1]
        assert residual <= 4.0 * float(argv[2])

    @pytest.mark.parametrize("command", ["report", "cauchy"])
    def test_corrector_breaking_doubling_identity_fails(self, command,
                                                        monkeypatch, capsys):
        check = stability.necessity_check

        def shifted(f, t, grid, doubling_tol):
            # t + c is even and breaks the identity by 3|c|, 7.5 times
            # the tolerance at the default tol
            c = np.zeros(t.target_dim)
            c[0] = 1e-9
            const = MapHandle(lambda pts: np.broadcast_to(
                c, pts.shape[:-1] + c.shape).copy(), t.source_dim,
                t.target_dim, "const", "even")
            return check(f, map_sum(t, const), grid, doubling_tol)

        monkeypatch.setattr(stability, "necessity_check", shifted)
        assert main([command, "--delta", "0.01", *FAST]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: corrector violates the doubling")
        assert "> 4.0e-10" in err
        assert err.count("\n") == 1


class TestTopLevelGuard:
    def test_unexpected_exception_is_one_error_line(self, monkeypatch,
                                                   capsys):
        def broken(*args, **kwargs):
            return 1 / 0

        monkeypatch.setattr(cli, "random_ground_truth", broken)
        assert main(["report", *FAST]) == 2
        err = capsys.readouterr().err
        assert err == ("error: internal error: ZeroDivisionError: "
                       "division by zero\n")

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
    def test_interrupt_and_exit_pass_through(self, exc, monkeypatch):
        def stop(*args, **kwargs):
            raise exc()

        monkeypatch.setattr(cli, "random_ground_truth", stop)
        with pytest.raises(exc):
            main(["report", *FAST])

    # every exit code is documented and every failure is one error line;
    # an exception escaping main fails the test as a traceback would
    @settings(max_examples=60, deadline=None)
    @given(command=st.sampled_from(["report", "extract", "axioms"]),
           relation=st.sampled_from(["trivial", "inner", "bj:l1", "bj:l2",
                                     "bj:linf"]),
           # most runs at moderate radii; the rest reach both guards
           exponent=st.one_of(st.integers(-8, 8), st.integers(-320, 320)),
           dim=st.integers(2, 8),
           delta=st.floats(0.0, 1.0),
           pairs=st.integers(2, 24),
           samples=st.integers(2, 24),
           seed=st.integers(0, 10 ** 6))
    def test_documented_exit_codes(self, command, relation, exponent, dim,
                                   delta, pairs, samples, seed):
        argv = [command, "--relation", relation, "--radius", f"1e{exponent}",
                "--dim", str(dim), "--delta", repr(delta), "--pairs",
                str(pairs), "--samples", str(samples), "--seed", str(seed),
                "--json", "-"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        text = err.getvalue()
        assert "Traceback" not in text
        assert text.count("error:") <= 1


class TestSerialization:
    def test_json_structure(self, tmp_path):
        out = tmp_path / "r.json"
        rc = main(["report", "--delta", "1e-3", *FAST,
                   "--json", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"config", "report"}
        assert doc["config"]["command"] == "report"
        rep = doc["report"]
        assert rep["passed"] is True
        assert {c["name"] for c in rep["bounds"]} >= {
            "f_total_gap", "g_total_gap", "hk_total_gap"}

    def test_json_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["report", "--delta", "1e-2", "--seed", "7", *FAST]
        assert main([*argv, "--json", str(a)]) == 0
        assert main([*argv, "--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_to_stdout_is_pure(self, capsys):
        rc = main(["report", *FAST, "--json", "-"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["defects"]["pexider"] <= 1e-12

    def test_csv_bounds(self, tmp_path):
        out = tmp_path / "bounds.csv"
        assert main(["report", "--delta", "1e-3", *FAST,
                     "--csv", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("name,coefficient,measured,bound,ratio,"
                            "verdict,informational")
        assert len(lines) > 10

    @pytest.mark.parametrize("command", ["defect", "axioms", "extract",
                                         "report"])
    def test_csv_to_stdout_is_the_table_alone(self, command, tmp_path,
                                              monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        argv = [command, "--delta", "1e-3", *FAST]
        assert main([*argv, "--csv", "-"]) == 0
        out, err = capsys.readouterr()
        # no file named "-", and no human-readable lines around the table
        assert list(tmp_path.iterdir()) == []
        assert err == ""
        assert main([*argv, "--csv", "table.csv"]) == 0
        capsys.readouterr()
        assert out == (tmp_path / "table.csv").read_bytes().decode("ascii")

    def test_csv_to_stdout_beside_a_json_file(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["defect", *FAST, "--json", str(out), "--csv", "-"]) == 0
        assert capsys.readouterr().out.startswith("name,value\r\n")
        assert json.loads(out.read_text())["config"]["command"] == "defect"

    def test_json_and_csv_cannot_share_stdout(self, tmp_path, monkeypatch,
                                              capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["defect", *FAST, "--json", "-", "--csv", "-"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_extract_json(self, tmp_path):
        out = tmp_path / "it.json"
        assert main(["extract", "--delta", "1e-3", *FAST,
                     "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert set(doc["iterations"]) == {"R", "R_prime", "S", "S_prime"}
        for rec in doc["iterations"].values():
            assert rec["verdict"] == "converged"

    @pytest.mark.parametrize("flag", ["--json", "--csv"])
    def test_unwritable_output_path_is_usage_error(self, flag, tmp_path,
                                                   capsys, monkeypatch):
        def not_run(args, rel):
            raise AssertionError("the command ran")

        # refused before the command runs, and nothing is created
        monkeypatch.setitem(cli._COMMANDS, "defect", not_run)
        path = tmp_path / "missing" / "out"
        assert main(["defect", *FAST, flag, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: [Errno 2] No such file or directory: "
                       f"'{path}'\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, code", [
        (["quadratic", "--cubic", "1.0"], 3),
        (["report", "--n-max", "0", "--delta", "0.01"], 1),
    ], ids=["diverged", "budget-exhausted"])
    def test_divergent_report_writes_its_csv(self, argv, code, tmp_path):
        doc, table = tmp_path / "r.json", tmp_path / "r.csv"
        assert main([*argv, *FAST, "--json", str(doc),
                     "--csv", str(table)]) == code
        div = json.loads(doc.read_text())["divergence"]
        gaps = [g if isinstance(g, str) else _fmt(g)
                for g in div["raw_gaps"]]
        assert table.read_text().splitlines() == [
            "component,verdict,steps,first_gap,last_gap",
            f"{div['component']},{div['verdict']},{div['n_steps']},"
            f"{gaps[0]},{gaps[-1]}"]
