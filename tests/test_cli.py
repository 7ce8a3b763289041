import json
import math
import os
import re
from pathlib import Path

import pytest

from summa import casimir, cli, euler_maclaurin, series, smoothed, summation
from summa.cli import build_parser, run

DOCS = Path(__file__).resolve().parent.parent / "docs"


def run_capture(capsys, argv):
    rc = run(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def run_json(capsys, argv):
    rc, out, err = run_capture(capsys, argv)
    assert rc == 0, err
    payload = json.loads(out)
    return payload


def validate_against_schema(payload):
    """Minimal validator for docs/cli_schema.json (no external deps)."""
    schema = json.loads((DOCS / "cli_schema.json").read_text())
    assert set(payload) == {"config", "result"}
    for key in schema["required"]:
        assert key in payload
    config = payload["config"]
    for key in schema["properties"]["config"]["required"]:
        assert key in config
    assert "backend" not in config and "threads" not in config
    assert isinstance(config["subcommand"], str)
    assert isinstance(config["version"], str)
    assert isinstance(payload["result"], dict)


class TestJsonOutputs:
    def test_bernoulli_example(self, capsys):
        payload = run_json(capsys, ["bernoulli", "--k", "4"])
        assert payload["result"]["value"] == "-1/30"
        validate_against_schema(payload)

    def test_abel_grandi_example(self, capsys):
        payload = run_json(capsys, ["sum", "--method", "abel", "--series", "grandi"])
        assert payload["result"]["verdict"] == "finite"
        assert abs(payload["result"]["value"] - 0.5) < 1e-6
        validate_against_schema(payload)

    def test_casimir_example(self, capsys):
        payload = run_json(capsys, ["casimir", "--d", "1e-6", "--N", "400", "--cutoff", "bump"])
        limit = payload["result"]["limit"]
        assert abs(limit - (-4.3318e-10)) <= 0.02 * 4.3318e-10
        assert payload["result"]["relative_error"] < 0.02
        validate_against_schema(payload)

    def test_casimir_force(self, capsys):
        payload = run_json(capsys, ["casimir-force", "--d", "1e-6", "--N", "400"])
        closed = payload["result"]["closed_form"]
        assert closed == pytest.approx(-math.pi**2 * 1.054571817e-34 * 2.99792458e8 / 240.0 * 1e24,
                                       rel=1e-9)
        assert payload["result"]["relative_error"] < 0.01
        cfg = casimir.CasimirConfig(d=1e-6, N=400.0, quad_tol=1e-9)
        assert payload["result"]["force"] == 3.0 * casimir.energy_density(cfg) / 1e-6

    def test_every_subcommand_emits_valid_json(self, capsys):
        argvs = [
            ["bernoulli", "--k", "12"],
            ["faulhaber", "--s", "3", "--N", "5"],
            ["sum", "--method", "cesaro", "--series", "grandi", "--n", "2000"],
            ["sum", "--method", "zeta-eta", "--series", "alt-zeta:0"],
            ["sum", "--method", "ramanujan", "--series", "monomial:2"],
            ["ledger"],
            ["smoothed", "--s", "1", "--cutoff", "poly:3", "--N", "50"],
            ["extract", "--s", "0", "--cutoff", "poly:4", "--grid", "50,100,200,400"],
            ["grandi", "--N", "500"],
            ["scaling-demo", "--cutoff", "poly:1", "--N", "2"],
            ["delta-seq", "--j", "25", "--testfn", "centered"],
            ["em-tail", "--s", "1", "--cutoff", "bump", "--N", "50"],
            ["stirling", "--n", "10", "--terms", "2"],
            ["em-diverge", "--n", "1", "--max-terms", "10"],
            ["truncate", "--alpha", "0.5"],
            ["borel", "--coeffs", "euler", "--x", "0.1"],
            ["gyro", "--alpha", "0.007297", "--order", "1"],
            ["flat-check", "--beta", "0.5", "--n", "1"],
        ]
        for argv in argvs:
            payload = run_json(capsys, argv)
            validate_against_schema(payload)
            assert payload["config"]["subcommand"] == argv[0]

    def test_determinism(self, capsys):
        argv = ["extract", "--s", "1", "--cutoff", "bump", "--grid", "50,100,200,400"]
        rc1, out1, _ = run_capture(capsys, argv)
        rc2, out2, _ = run_capture(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2


class TestCsvOutputs:
    def test_ledger_layout(self, capsys):
        rc, out, _ = run_capture(capsys, ["--format", "csv", "ledger"])
        assert rc == 0
        lines = out.strip().splitlines()
        config_lines = [l for l in lines if l.startswith("# ")]
        assert any(l.startswith("# version=") for l in config_lines)
        assert not any(l.startswith(("# backend=", "# threads=")) for l in config_lines)
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "identity,rule_a,rule_b,clash"

    def test_stirling_table(self, capsys):
        rc, out, _ = run_capture(capsys, ["--format", "csv", "stirling", "--n", "6",
                                          "--terms", "2", "--table"])
        assert rc == 0
        lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
        assert lines[0] == "n,g,value,bound"
        assert len(lines) == 1 + 5  # n = 2..6

    def test_casimir_convergence_rows(self, capsys):
        rc, out, _ = run_capture(capsys, ["--format", "csv", "casimir", "--N", "160",
                                          "--levels", "3"])
        assert rc == 0
        lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
        assert lines[0] == "N,value,error_estimate"
        assert len(lines) == 1 + 3
        # each row is the library's u_t at its N, halving error included
        for N, value, error in (line.split(",") for line in lines[1:]):
            ref = casimir.u_t_dimensionless(casimir.CasimirConfig(N=float(N), quad_tol=1e-9))
            assert (float(value), float(error)) == (ref.value, ref.error_estimate)

    def test_levels_past_the_smallest_scale_print_the_same_rows(self, capsys):
        rows = []
        for levels in ("6", "1100"):
            rc, out, _ = run_capture(capsys, ["--format", "csv", "casimir", "--N", "400",
                                              "--levels", levels])
            assert rc == 0
            rows.append([l for l in out.splitlines() if not l.startswith("#")])
        assert rows[0] == rows[1] and len(rows[0]) == 1 + 6  # N = 12.5 .. 400

    def test_truncate_scan(self, capsys):
        rc, out, _ = run_capture(capsys, ["--format", "csv", "truncate", "--alpha", "1/8"])
        lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
        assert lines[0] == "N,log10_term"
        assert len(lines) == 1 + 8 + 5


class TestErrors:
    def test_unknown_series_is_usage_error(self, capsys):
        rc, _, err = run_capture(capsys, ["sum", "--method", "abel", "--series", "wat"])
        assert rc == 2
        assert "grammar" in err

    def test_unknown_cutoff_is_usage_error(self, capsys):
        rc, _, err = run_capture(capsys, ["smoothed", "--s", "0", "--cutoff", "gauss", "--N", "50"])
        assert rc == 2

    def test_computational_error_is_exit_one(self, capsys):
        # poly:1 is far too rough for s = 5 extraction
        rc, _, err = run_capture(capsys, ["extract", "--s", "5", "--cutoff", "poly:1",
                                          "--grid", "100,200,400,800"])
        assert rc == 1
        assert "error" in err

    def test_usage_error_from_argparse(self, capsys):
        rc, _, _ = run_capture(capsys, ["bernoulli"])  # missing --k
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["casimir", "--N", "nan"],
        ["casimir", "--N", "inf"],
        ["smoothed", "--s", "1", "--N", "nan"],
        ["casimir", "--d", "nan"],
    ])
    def test_non_finite_float_flag_is_usage_error(self, capsys, argv):
        rc, out, err = run_capture(capsys, argv)
        assert rc == 2
        assert out == "" and "finite" in err

    @pytest.mark.parametrize("argv", [
        ["extract", "--s", "1", "--grid", "100,200,400,inf"],
        ["extract", "--s", "1", "--grid", "100,200,400,nan"],
        ["flat-check", "--beta", "1", "--grid", "1e-2,inf"],
        ["flat-check", "--beta", "1", "--grid", "nan,1e-3"],
    ])
    def test_non_finite_grid_point_is_usage_error(self, capsys, argv):
        rc, out, err = run_capture(capsys, argv)
        assert rc == 2
        assert out == "" and "finite" in err

    @pytest.mark.parametrize("argv", [
        ["smoothed", "--s", "-1", "--N", "10"],
        ["extract", "--s", "-1"],
        ["em-tail", "--s", "-1", "--N", "10"],
        ["faulhaber", "--s", "-1", "--N", "5"],
        ["bernoulli", "--k", "-1"],
    ])
    def test_negative_exponent_is_usage_error(self, capsys, argv):
        rc, out, err = run_capture(capsys, argv)
        assert rc == 2
        assert out == "" and re.search(r"must be >= [01], got '-1'", err)

    @pytest.mark.parametrize("argv,lo", [
        (["casimir", "--levels", "0"], 1),
        (["delta-seq", "--j", "0"], 1),
        (["stirling", "--n", "0"], 1),
        (["stirling", "--n", "5", "--terms", "0"], 1),
        (["em-diverge", "--n", "0"], 1),
        (["em-diverge", "--n", "1", "--max-terms", "1"], 2),
        (["em-tail", "--s", "0", "--N", "10"], 1),
        (["em-tail", "--s", "1", "--N", "0"], 1),
        (["sum", "--method", "cesaro", "--series", "grandi", "--n", "1"], 2),
        (["faulhaber", "--s", "1", "--N", "0"], 1),
        (["flat-check", "--beta", "1", "--n", "-1"], 0),
    ])
    def test_integer_flag_below_its_bound_is_usage_error(self, capsys, argv, lo):
        rc, out, err = run_capture(capsys, argv)
        assert rc == 2
        assert out == "" and f"must be >= {lo}, got '{lo - 1}'" in err

    @pytest.mark.parametrize("argv,flag,value", [
        (["delta-seq", "--j", "10", "--tol", "0"], "--tol", "0"),
        (["borel", "--coeffs", "euler", "--x", "0.1", "--tol", "0"], "--tol", "0"),
        (["casimir", "--quad-tol", "0"], "--quad-tol", "0"),
        (["casimir", "--lambda", "-1"], "--lambda", "-1"),
        (["casimir-force", "--d", "-1"], "--d", "-1"),
        (["borel", "--coeffs", "euler", "--x", "-1"], "--x", "-1"),
        (["sum", "--method", "cesaro", "--series", "grandi", "--tol", "-1"], "--tol", "-1"),
    ])
    def test_float_flag_at_or_below_zero_is_usage_error(self, capsys, argv, flag, value):
        rc, out, err = run_capture(capsys, argv)
        assert rc == 2 and out == ""
        assert f"argument {flag}: must be > 0, got '{value}'" in err

    def test_em_tail_has_no_tol_flag(self, capsys):
        rc, out, err = run_capture(capsys, ["em-tail", "--s", "1", "--N", "10", "--tol", "1e-10"])
        assert rc == 2 and out == "" and "unrecognized arguments: --tol" in err

    @pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would be a stderr line
    def test_em_tail_at_high_order_computes(self, capsys):
        # the float integral of x^170 eta(x/5) overflowed; the exact drift does not
        result = run_json(capsys, ["em-tail", "--s", "170", "--N", "5"])["result"]
        assert result["series"] == 0.0  # B_171 = 0
        assert result["lhs"] == result["residual"] and math.isfinite(result["lhs"])

    def test_em_tail_past_float64_N_is_usage_error(self, capsys):
        argv = ["em-tail", "--s", "1", "--cutoff", "poly:4", "--N", str(10**309)]
        rc, out, err = run_capture(capsys, argv)
        assert rc == 2 and out == "" and "at most the largest float64" in err

    def test_every_float_flag_is_checked_finite(self):
        subparsers = next(a for a in build_parser()._actions if a.dest == "subcommand")
        for name, sub in subparsers.choices.items():
            for action in sub._actions:
                assert action.type is not float, (name, action.dest)

    @pytest.mark.parametrize("argv", [
        ["smoothed", "--s", "200", "--N", "1000"],
        ["smoothed", "--s", "400", "--cutoff", "poly:3", "--N", "100"],
        ["sum", "--method", "abel", "--series", "monomial:300"],
        ["sum", "--method", "zeta-eta", "--series", "alt-zeta:-300"],
        ["sum", "--method", "cesaro", "--series", "monomial:200", "--n", "100"],
        ["stirling", "--n", "10", "--terms", "499"],
    ])
    def test_non_finite_result_is_the_same_typed_error_in_both_formats(self, capsys, argv):
        errs = []
        for fmt in ("json", "csv"):
            rc, out, err = run_capture(capsys, ["--format", fmt] + argv)
            assert rc == 1 and out == ""
            assert err.startswith("error: NonFiniteResultError: ") and err.count("\n") == 1
            errs.append(err)
        assert errs[0] == errs[1]

    @pytest.mark.parametrize("name", ["casimir", "casimir-force"])
    def test_cell_count_past_the_cap_is_usage_error(self, capsys, monkeypatch, name):
        def no_sweep(*args, **kwargs):
            raise AssertionError("swept before the cap check")

        monkeypatch.setattr(casimir._kernels, "ut_value", no_sweep)
        rc, out, err = run_capture(capsys, [name, "--lambda", "1e-9", "--N", "20"])
        assert rc == 2 and out == ""
        assert str(casimir.MAX_CELLS) in err
        # exactly at the cap is accepted by the CLI and reaches the sweep
        with pytest.raises(AssertionError, match="before the cap"):
            run([name, "--lambda", "1", "--N", str(casimir.MAX_CELLS)])

    @pytest.mark.parametrize("argv", [
        ["smoothed", "--s", "1", "--N", "1e11"],
        ["grandi", "--N", "1e11"],
        ["scaling-demo", "--N", "1e11"],
    ])
    def test_sum_past_the_term_cap_is_usage_error(self, capsys, argv):
        rc, out, err = run_capture(capsys, argv)
        assert rc == 2 and out == ""
        assert str(smoothed.MAX_TERMS) in err

    @pytest.mark.parametrize("argv,cap", [
        (["bernoulli", "--k", "1001"], cli.MAX_BERNOULLI_INDEX),
        (["faulhaber", "--s", "1001", "--N", "5"], cli.MAX_BERNOULLI_INDEX),
        (["stirling", "--n", "10", "--terms", "500"], cli.MAX_BERNOULLI_INDEX),
        (["em-diverge", "--n", "1", "--max-terms", "501"], cli.MAX_BERNOULLI_INDEX),
        (["em-tail", "--s", "261", "--N", "1"], cli.MAX_EXTRACT_S),
        (["em-tail", "--s", "400", "--N", "10"], cli.MAX_EXTRACT_S),
        (["em-tail", "--s", "999", "--N", "1"], cli.MAX_EXTRACT_S),
        (["em-tail", "--s", "174", "--N", "5"], cli.MAX_BUMP_DIGITS),
        (["em-tail", "--s", "3", "--N", "100000"], cli.MAX_BUMP_WORK),
        (["em-tail", "--s", "1", "--cutoff", "poly:504", "--N", "10"], cli.MAX_FAULHABER_WORK),
        (["em-tail", "--s", "1", "--cutoff", "poly:80", "--N", str(10**300)],
         cli.MAX_FAULHABER_WORK),
        (["faulhaber", "--s", "1000", "--N", str(10**20)], cli.MAX_RESULT_DIGITS),
        (["faulhaber", "--s", "1", "--N", str(10**(cli.MAX_RESULT_DIGITS // 2))],
         cli.MAX_RESULT_DIGITS),
        (["sum", "--method", "cesaro", "--series", "grandi", "--n", "1000001"], cli.MAX_CESARO_N),
        (["truncate", "--alpha", "1/99996"], cli.MAX_TRUNCATE_ROWS),
        (["truncate", "--alpha", "1e-300"], cli.MAX_TRUNCATE_ROWS),
        (["stirling", "--n", "2002", "--table"], cli.MAX_STIRLING_ROWS),
        (["sum", "--method", "ramanujan", "--series", "monomial:501"], cli.MAX_SERIES_EXPONENT),
        (["sum", "--method", "abel", "--series", "alt-zeta:-501"], cli.MAX_SERIES_EXPONENT),
        (["delta-seq", "--j", str(cli.MAX_DELTA_J + 1)], cli.MAX_DELTA_J),
        (["extract", "--s", "261", "--cutoff", "bump"], cli.MAX_EXTRACT_S),
        (["extract", "--s", "800", "--cutoff", "poly:803"], cli.MAX_EXTRACT_S),
        (["extract", "--s", "147", "--cutoff", "poly:151"], cli.MAX_FAULHABER_WORK),
        (["extract", "--s", "0", "--cutoff", "poly:237"], cli.MAX_FAULHABER_WORK),
        (["extract", "--s", "0", "--cutoff", "poly:1200"], cli.MAX_FAULHABER_WORK),
        (["extract", "--s", "147", "--cutoff", "poly:150", "--grid", "100,200,400,800,1000,1600"],
         cli.MAX_FAULHABER_WORK),  # one grid point more than README's grid
        (["extract", "--s", "100", "--cutoff", "poly:103", "--grid", "1e300,2e300,4e300,8e300"],
         cli.MAX_FAULHABER_WORK),  # few sums of many digits
        (["extract", "--s", "0", "--cutoff", "poly:150", "--grid", "1e300,2e300,4e300,8e300"],
         cli.MAX_FAULHABER_WORK),
        (["extract", "--s", "54", "--cutoff", "bump"], cli.MAX_BUMP_DIGITS),
        (["extract", "--s", "200", "--cutoff", "bump"], cli.MAX_BUMP_DIGITS),
        (["extract", "--s", "0", "--cutoff", "bump", "--grid", "62500,125000,250000,500000"],
         cli.MAX_BUMP_WORK),
        (["extract", "--s", "0", "--cutoff", "bump", "--grid", "8000,16000,32000,64001"],
         cli.MAX_BUMP_WORK),
        (["extract", "--s", "40", "--cutoff", "bump", "--grid", "1500,3000,6000,12000"],
         cli.MAX_BUMP_WORK),
    ])
    def test_work_past_a_cap_is_usage_error(self, capsys, monkeypatch, argv, cap):
        def no_compute(*args, **kwargs):
            raise AssertionError("computed before the cap check")

        for owner, name in [(cli, "bernoulli"), (cli, "faulhaber"), (summation, "cesaro_sum"),
                            (euler_maclaurin, "em_tail"), (euler_maclaurin, "stirling_series"),
                            (euler_maclaurin, "em_divergence_demo"), (series, "get_series"),
                            (smoothed, "delta_pairing"), (smoothed, "constant_extraction")]:
            monkeypatch.setattr(owner, name, no_compute)
        for fmt in ("json", "csv"):
            rc, out, err = run_capture(capsys, ["--format", fmt] + argv)
            assert rc == 2 and out == ""
            assert err.startswith("usage error: ") and f"exceeds the cap of {cap}" in err

    @pytest.mark.parametrize("argv", [
        ["sum", "--method", "cesaro", "--series", "grandi", "--n", str(cli.MAX_CESARO_N)],
        ["truncate", "--alpha", f"1/{cli.MAX_TRUNCATE_ROWS - 5}"],
        ["delta-seq", "--j", str(cli.MAX_DELTA_J)],
        ["extract", "--s", "147", "--cutoff", "poly:150"],  # 906 sums x 298 terms x 955 digits
        ["extract", "--s", "53", "--cutoff", "bump"],  # 199 digits
        ["em-tail", "--s", "173", "--N", "5"],  # 199 digits
        ["extract", "--s", "0", "--cutoff", "bump", "--grid", "8000,16000,32000,64000"],
    ])
    def test_work_at_a_cap_runs(self, capsys, argv):
        run_json(capsys, argv)

    @pytest.mark.parametrize("argv,cap", [
        (["--s", "147", "--cutoff", "poly:150"], "MAX_FAULHABER_WORK"),
        (["--s", "53", "--cutoff", "bump"], "MAX_BUMP_DIGITS"),
        (["--s", "0", "--cutoff", "bump", "--grid", "8000,16000,32000,64000"], "MAX_BUMP_WORK"),
    ])
    def test_extract_work_at_a_cap_is_exactly_the_cap(self, capsys, monkeypatch, argv, cap):
        # the rows of test_work_at_a_cap_runs sit on their cap, not below it
        monkeypatch.setattr(smoothed, "constant_extraction", lambda *a: 1 / 0)
        assert run_capture(capsys, ["extract"] + argv)[0] == 1  # past every cap
        monkeypatch.setattr(cli, cap, getattr(cli, cap) - 1)
        rc, out, err = run_capture(capsys, ["extract"] + argv)
        assert rc == 2 and f"exceeds the cap of {getattr(cli, cap)}" in err

    def test_faulhaber_at_the_digit_cap_prints_its_value(self, capsys):
        N = 10 ** (cli.MAX_RESULT_DIGITS - 1)  # N^1 has exactly MAX_RESULT_DIGITS digits
        payload = run_json(capsys, ["faulhaber", "--s", "0", "--N", str(N)])
        assert payload["result"]["value"] == f"{N}/1"

    @pytest.mark.parametrize("method", ["cesaro", "abel", "ramanujan", "zeta-eta"])
    @pytest.mark.parametrize("key", ["monomial:x", "alt-zeta:1.5", "geometric:abc",
                                     "geometric:1/0", "geometric:1e400", "geometric:-1e400",
                                     "monomial:-1", "monomial", "wat:1"])
    def test_malformed_series_key_is_usage_error(self, capsys, method, key):
        errs = []
        for fmt in ("json", "csv"):
            argv = ["--format", fmt, "sum", "--method", method, "--series", key]
            rc, out, err = run_capture(capsys, argv)
            assert rc == 2 and out == "" and err.count("\n") == 1
            assert err.startswith("usage error: unknown series key") and "grammar" in err
            errs.append(err)
        assert errs[0] == errs[1]

    def test_whitespace_around_a_key_is_ignored(self, capsys):
        payload = run_json(capsys, ["sum", "--method", "ramanujan", "--series", " S1"])
        assert (payload["result"]["series"], payload["result"]["value"]) == ("S1", "-1/12")
        payload = run_json(capsys, ["sum", "--method", "zeta-eta", "--series", " alt-zeta:-1 "])
        assert payload["result"]["verdict"] == "finite"
        assert payload["result"]["value"] == pytest.approx(-1.0 / 12.0, abs=1e-9)

    @pytest.mark.parametrize("coeffs", ["geometric:abc", "geometric:1/0", "geometric:"])
    def test_malformed_borel_ratio_is_usage_error(self, capsys, coeffs):
        rc, out, err = run_capture(capsys, ["borel", "--coeffs", coeffs, "--x", "0.1"])
        assert rc == 2 and out == ""
        assert err.startswith("usage error: bad --coeffs")

    @pytest.mark.parametrize("grid,why", [
        ("100,200,400", "at least 4"),
        ("100,400,200,800", "increasing"),
        ("100,100,200,400", "increasing"),
        ("10,20,40,80", ">= 100"),
        ("-5,200,400,800", "> 0"),
        ("0,200,400,800", "> 0"),
    ])
    def test_malformed_extract_grid_is_usage_error(self, capsys, grid, why):
        rc, out, err = run_capture(capsys, ["extract", "--s", "1", f"--grid={grid}"])
        assert rc == 2 and out == ""
        assert err.startswith("usage error: bad --grid") and why in err

    def test_zeta_eta_needs_alt_zeta_series(self, capsys):
        rc, _, err = run_capture(capsys, ["sum", "--method", "zeta-eta", "--series", "S1"])
        assert rc == 2


def readme_examples():
    """Every ``summa ...`` line of README's shell block, once without and once with its [...] flags."""
    text = (DOCS.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    runs = []
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line.startswith("summa "):
            continue
        bare = line.replace("[", "]").split("]")
        runs.append(" ".join("".join(bare[0::2]).split()[1:]))
        if len(bare) > 1:
            runs.append(" ".join("".join(bare).split()[1:]))
    return runs


def csv_layouts():
    """subcommand -> header row, from the table in docs/csv_layouts.md."""
    layouts = {}
    for line in (DOCS / "csv_layouts.md").read_text().splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`"):
            layouts[cells[0].strip("`")] = cells[1].split("`")[1]
    return layouts


class TestReadmeExamples:
    def test_examples_are_found(self):
        runs = readme_examples()
        assert len(runs) >= 20
        assert "stirling --n 10 --terms 2" in runs and "stirling --n 10 --terms 2 --table" in runs

    @pytest.mark.parametrize("example", readme_examples())
    def test_example_runs_in_both_formats(self, capsys, example):
        argv = example.split()
        if argv[:2] in (["--format", "csv"], ["--format", "json"]):
            argv = argv[2:]
        layouts = csv_layouts()
        rc, out, err = run_capture(capsys, ["--format", "json"] + argv)
        assert rc == 0, err
        validate_against_schema(json.loads(out))
        rc, out, err = run_capture(capsys, ["--format", "csv"] + argv)
        assert rc == 0, err
        header = next(line for line in out.splitlines() if not line.startswith("# "))
        assert header == layouts[argv[0]]


class TestOutputFile:
    def test_writes_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        rc = run(["--output", str(target), "bernoulli", "--k", "3"])
        capsys.readouterr()
        assert rc == 0
        payload = json.loads(target.read_text())
        assert payload["result"]["value"] == "0/1"
