import io
import json
import math
import os
import random
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from summa import _kernels, casimir, cli, errors, euler_maclaurin, series, smoothed, summation
from summa.cli import build_parser, run
from summa.errors import NonFiniteResultError

from test_casimir import expansion_ut

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
        assert payload["result"]["value"] == "1/2"
        validate_against_schema(payload)

    def test_casimir_example(self, capsys):
        payload = run_json(capsys, ["casimir", "--d", "1e-6", "--N", "400", "--cutoff", "bump"])
        limit = payload["result"]["limit"]
        assert abs(limit - (-4.3318e-10)) <= 0.02 * 4.3318e-10
        assert payload["result"]["relative_error"] < 0.02
        validate_against_schema(payload)

    def test_casimir_poly_is_exact(self, capsys):
        # the cell sweep read +0.01669 here (relative error 7): its ~eps (N/lam)^3 floor
        payload = run_json(capsys, ["casimir", "--cutoff", "poly:7", "--N", "400000",
                                    "--lambda", "0.5"])
        assert abs(payload["result"]["u_t"] * 360.0 + 1.0) < 1e-9
        assert payload["result"]["relative_error"] < 1e-9

    def test_casimir_force(self, capsys):
        payload = run_json(capsys, ["casimir-force", "--d", "1e-6", "--N", "400"])
        closed = payload["result"]["closed_form"]
        assert closed == pytest.approx(-math.pi**2 * 1.054571817e-34 * 2.99792458e8 / 240.0 * 1e24,
                                       rel=1e-9)
        assert payload["result"]["relative_error"] < 0.01
        cfg = casimir.CasimirConfig(d=1e-6, N=400.0, quad_tol=1e-9)
        assert payload["result"]["force"] == 3.0 * casimir.energy_density(cfg) / 1e-6

    @pytest.mark.parametrize("coeffs,x,r", [("ones", "0.97", 1.0), ("ones", "0.99", 1.0),
                                            ("geometric:1/2", "1.9", 0.5),
                                            ("geometric:1/2", "1.95", 0.5),
                                            ("geometric:1/2", "1.99", 0.5),
                                            ("geometric:-1/2", "1.99", -0.5)])
    def test_borel_partial_sums_past_float_range(self, capsys, coeffs, x, r):
        # near the pole x = 1/r, where partial sums of the transform leave float64 range,
        # and for r < 0, the closed form is within tol of 1/(1 - r x)
        result = run_json(capsys, ["borel", "--coeffs", coeffs, "--x", x])["result"]
        assert abs(result["value"] - 1 / (1 - r * float(x))) <= result["tol"]

    @pytest.mark.parametrize("coeffs,x,want", [
        ("geometric:-1", "2", 0.3333333333333333), ("geometric:-1/2", "3", 0.4),
        ("zero", "7", 0.0), ("geometric:0", "7", 1.0), ("ones", "0.5", 2.0),
        ("geometric:3", "0.25", 4.0),
    ])
    def test_borel_geometric_family_is_its_closed_form(self, capsys, coeffs, x, want):
        # a_0 / (1 - r x), exact in r and x and rounded once; for r < 0 the transform decays,
        # and zero's a_0 is 0 where geometric:0's is 0^0 = 1
        result = run_json(capsys, ["borel", "--coeffs", coeffs, "--x", x])["result"]
        assert result["value"] == want

    @given(r=st.fractions(min_value=-10, max_value=10, max_denominator=1000),
           x=st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_borel_geometric_is_correctly_rounded_or_refused(self, r, x):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = run(["borel", "--coeffs", f"geometric:{r}", "--x", repr(x)])
        if r * Fraction(x) >= 1:
            assert rc == 1 and err.getvalue().startswith("error: BorelSummabilityError")
        else:
            want = float(1 / (1 - r * Fraction(x)))
            assert rc == 0 and json.loads(out.getvalue())["result"]["value"] == want

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

    @pytest.mark.parametrize("argv", [
        ["casimir", "--cutoff", "poly:3"],
        ["casimir-force", "--cutoff", "poly:5"],
        ["casimir-force", "--cutoff", "indicator"],
    ])
    def test_a_rough_plate_cutoff_names_the_cli_choices(self, capsys, argv):
        # u_t needs C^5: the error names the cutoffs that have it and the contrast run, not
        # the library's enforce_smoothness keyword
        rc, out, err = run_capture(capsys, argv)
        assert rc == 1 and out == ""
        assert err.startswith("error: CutoffSmoothnessError: ") and "C^5" in err
        assert "--cutoff bump or poly:p with p >= 6" in err
        assert "casimir --cutoff indicator" in err and "enforce_smoothness" not in err
        assert run_capture(capsys, ["casimir", "--cutoff", "indicator", "--N", "100"])[0] == 0

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
        ["flat-check", "--beta", "0.5", "--grid", "1e-2,inf"],
        ["flat-check", "--beta", "0.5", "--grid", "nan,1e-3"],
    ])
    def test_non_finite_grid_point_is_usage_error(self, capsys, argv):
        rc, out, err = run_capture(capsys, argv)
        assert rc == 2
        assert out == "" and "finite" in err

    @pytest.mark.parametrize("grid", ["-1e-2,1e-3", "0,1e-3"])
    def test_flat_check_grid_point_at_or_below_zero_is_usage_error(self, capsys, grid):
        rc, out, err = run_capture(capsys, ["flat-check", "--beta", "0.5", f"--grid={grid}"])
        assert rc == 2 and out == ""
        assert err.startswith("usage error: bad --grid") and "> 0" in err

    @pytest.mark.parametrize("argv", [
        ["flat-check", "--beta", "0.5", "--n", "3", "--grid", "1e-200"],  # h^3 underflows
        ["flat-check", "--beta", "0.5", "--n", "3", "--grid", "1e300"],  # h^3 overflows
        ["flat-check", "--beta", "0.5", "--n", "2000"],  # C(2000, 1000) is past float64
        ["gyro", "--alpha", "1e300", "--order", "2"],
        ["borel", "--coeffs", "zero", "--x", "1e-320"],  # 1/x overflows
        ["borel", "--coeffs", "geometric:1/2", "--x", "1e-300", "--tol", "1e-300"],  # tol x / 2
        ["casimir", "--d", "1e-300"],
        ["casimir-force", "--d", "1e300"],
        ["smoothed", "--s", str(10**400), "--N", "3.5"],  # eta(2/3.5) 2^s, decided in logs
    ])
    def test_float_range_escape_is_a_typed_error(self, capsys, argv):
        rc, out, err = run_capture(capsys, argv)
        assert rc == 1 and out == ""
        assert err.startswith("error: NonFiniteResultError: ") and err.count("\n") == 1

    @pytest.mark.parametrize("r,x", [("2", 0.48), ("2", 0.485), ("3/2", 0.66)])
    def test_borel_coefficients_past_float64_keep_their_sign(self, capsys, r, x):
        # a(n) = r^n leaves float64 range, but each term's sign and log come from the exact
        # a(n): the sum is 1/(1 - r x) within the default tol
        rc, out, _ = run_capture(capsys, ["borel", "--coeffs", f"geometric:{r}", "--x", str(x)])
        want = 1 / (1 - float(Fraction(r)) * x)
        assert rc == 0 and abs(json.loads(out)["result"]["value"] - want) <= 1e-9 * want

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
        (["flat-check", "--beta", "0.5", "--n", "-1"], 0),
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

    @pytest.mark.parametrize("argv,flag,why", [
        (["grandi", "--N", "0.5"], "--N", "must be >= 1, got '0.5'"),
        (["smoothed", "--s", "1", "--N", "0.5"], "--N", "must be >= 1, got '0.5'"),
        (["scaling-demo", "--N", "1"], "--N", "must be >= 2, got '1'"),
        (["casimir", "--N", "5"], "--N", "must be >= 10, got '5'"),
        (["casimir-force", "--N", "5"], "--N", "must be >= 10, got '5'"),
        (["truncate", "--alpha", "0"], "--alpha", "must be in (0, 1), got '0'"),
        (["truncate", "--alpha", "1"], "--alpha", "must be in (0, 1), got '1'"),
        (["truncate", "--alpha", "1/0"], "--alpha", "invalid rational value: '1/0'"),
        (["flat-check", "--beta", "-1"], "--beta", "must be in (0, 1), got '-1'"),
        (["flat-check", "--beta", "1"], "--beta", "must be in (0, 1), got '1'"),
        (["gyro", "--alpha", "-1", "--order", "1"], "--alpha", "must be >= 0, got '-1'"),
    ])
    def test_float_flag_outside_its_domain_is_usage_error(self, capsys, argv, flag, why):
        rc, out, err = run_capture(capsys, argv)
        assert rc == 2 and out == "" and f"argument {flag}: {why}" in err

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
        ["sum", "--method", "cesaro", "--series", "monomial:200", "--n", "100"],
        ["stirling", "--n", "10", "--terms", "499"],
        ["casimir", "--cutoff", "indicator", "--N", "10", "--lambda", "1e-300"],  # u_t ~ -L^2/12
    ])
    def test_non_finite_result_is_the_same_typed_error_in_both_formats(self, capsys, argv):
        errs = []
        for fmt in ("json", "csv"):
            rc, out, err = run_capture(capsys, ["--format", fmt] + argv)
            assert rc == 1 and out == ""
            assert err.startswith("error: NonFiniteResultError: ") and err.count("\n") == 1
            errs.append(err)
        assert errs[0] == errs[1]

    @pytest.mark.parametrize("s", [10**6, 10**30])
    def test_a_certain_bump_overflow_exits_1_at_once(self, capsys, s):
        # decided in O(1) from a lower bound on the sum, before the O(s) moment or any term
        start = time.perf_counter()
        rc, out, err = run_capture(capsys, ["smoothed", "--s", str(s), "--cutoff", "bump",
                                            "--N", "1e6"])
        assert time.perf_counter() - start < 1.0
        assert rc == 1 and out == "" and err.startswith("error: NonFiniteResultError: ")

    @pytest.mark.parametrize("s,N,value", [
        (10**400, "2", math.exp(-1 / 3)),  # eta(1/2) 1^s: 2^s at n = 2 lies past the support
        (2000, "1.5", math.exp(-0.8)),  # eta(2/3): 2^2000 = inf at n = 2, where eta is 0
    ], ids=["s=10**400,N=2", "s=2000,N=1.5"])
    def test_a_bump_sum_past_float_powers_is_its_one_term(self, capsys, s, N, value):
        # n^s past float64 (or s past its range) at an n past the support is no term at all
        payload = run_json(capsys, ["smoothed", "--s", str(s), "--cutoff", "bump", "--N", N])
        assert abs(payload["result"]["value"] - value) <= 4 * math.ulp(value)

    @pytest.mark.parametrize("argv,value", [
        (["smoothed", "--s", "1", "--N", "1e11"], 2.0182631883840296e+21),
        (["grandi", "--N", "1e11"], 0.5),
        (["scaling-demo", "--N", "1e11"], 4.036526376768059e+21),
        # S_1(10^11) = 10^11 (10^11 + 1) / 2, exact
        (["smoothed", "--s", "1", "--cutoff", "indicator", "--N", "1e11"], (10**22 + 10**11) / 2),
    ])
    def test_sums_past_the_old_term_cap_run(self, capsys, monkeypatch, argv, value):
        # the 10^10-term cap of the streamed float sums is gone: none of these reaches a kernel
        def no_float_sum(*args):
            raise AssertionError("a sum past the bump's threshold reached its eta pass")

        monkeypatch.setattr(_kernels, "smoothed_sum_value", no_float_sum)
        monkeypatch.setattr(_kernels, "alternating_smoothed_value", no_float_sum)
        result = run_json(capsys, argv)["result"]
        assert result.get("value", result.get("rhs")) == value

    @pytest.mark.parametrize("argv,cap", [
        (["smoothed", "--s", "1001", "--cutoff", "indicator", "--N", "2"], cli.MAX_BERNOULLI_INDEX),
        (["smoothed", "--s", "700", "--cutoff", "indicator", "--N", "1e300"],
         cli.MAX_FAULHABER_WORK),
    ])
    def test_indicator_sums_take_the_faulhaber_caps(self, capsys, argv, cap):
        rc, out, err = run_capture(capsys, argv)
        assert rc == 2 and out == "" and str(cap) in err

    @pytest.mark.parametrize("name,cutoff", [("casimir", "poly:6"), ("casimir-force", "poly:6"),
                                             ("casimir", "indicator"), ("casimir", "bump"),
                                             ("casimir-force", "bump")])
    def test_exact_u_t_has_no_cell_cap(self, capsys, monkeypatch, name, cutoff):
        # the bump's u_t past N / lambda ~ 642 is its expansion at 0: the 2 * 10^10
        # cells here, and 10^6 (the old sweep cap) and 10^12, run without a sweep
        def no_sweep(*args, **kwargs):
            raise AssertionError("an exact u_t reached the cell sweep")

        monkeypatch.setattr(_kernels, "ut_value", no_sweep)
        run_json(capsys, [name, "--cutoff", cutoff, "--lambda", "1e-9", "--N", "20"])
        if cutoff != "bump":
            return
        for N in ("1000000", "1e12"):
            result = run_json(capsys, [name, "--N", N])["result"]
            u = expansion_ut(float(N))
            energy = casimir.energy_prefactor(1e-6) * u
            expected = energy if name == "casimir" else 3.0 * energy / 1e-6
            assert result["limit" if name == "casimir" else "force"] == expected

    @pytest.mark.parametrize("argv,value", [
        # sum_{n<N} (1 - n/N) n = (N^2 - 1)/6 at N = 10^11; scaling-demo's rhs is twice that
        (["smoothed", "--s", "1", "--cutoff", "poly:1", "--N", "1e11"], (10**22 - 1) / 6),
        (["scaling-demo", "--cutoff", "poly:1", "--N", "1e11"], 2 * (10**22 - 1) / 6),
    ])
    def test_poly_sums_have_no_term_cap(self, capsys, monkeypatch, argv, value):
        def no_float_sum(*args):
            raise AssertionError("a poly sum reached the float kernel")

        monkeypatch.setattr(_kernels, "smoothed_sum_value", no_float_sum)
        result = run_json(capsys, argv)["result"]
        assert result.get("value", result.get("rhs")) == value

    @pytest.mark.parametrize("argv,cap", [
        (["bernoulli", "--k", "1001"], cli.MAX_BERNOULLI_INDEX),
        (["faulhaber", "--s", "1001", "--N", "5"], cli.MAX_BERNOULLI_INDEX),
        (["stirling", "--n", "10", "--terms", "500"], cli.MAX_BERNOULLI_INDEX),
        (["em-diverge", "--n", "1", "--max-terms", "501"], cli.MAX_BERNOULLI_INDEX),
        (["em-tail", "--s", "261", "--N", "1"], cli.MAX_EXTRACT_S),
        (["em-tail", "--s", "400", "--N", "10"], cli.MAX_EXTRACT_S),
        (["em-tail", "--s", "999", "--N", "1"], cli.MAX_EXTRACT_S),
        (["em-tail", "--s", "91", "--N", "1000"], cli.MAX_BUMP_DIGITS),
        (["em-tail", "--s", "3", "--N", "400000"], cli.MAX_BUMP_WORK),
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
        (["casimir", "--cutoff", "poly:997"], cli.MAX_BERNOULLI_INDEX),
        (["casimir-force", "--cutoff", "poly:997"], cli.MAX_BERNOULLI_INDEX),
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
        (["extract", "--s", "85", "--cutoff", "bump"], cli.MAX_BUMP_DIGITS),
        (["extract", "--s", "200", "--cutoff", "bump"], cli.MAX_BUMP_DIGITS),
        (["extract", "--s", "0", "--cutoff", "bump", "--grid", "62500,125000,250000,500000"],
         cli.MAX_BUMP_WORK),
        (["extract", "--s", "0", "--cutoff", "bump", "--grid", "40000,80000,160000,320001"],
         cli.MAX_BUMP_WORK),
        (["extract", "--s", "40", "--cutoff", "bump", "--grid", "3000,6000,12000,24000"],
         cli.MAX_BUMP_WORK),
        (["smoothed", "--s", str(10**30), "--cutoff", "poly:1", "--N", "2"], cli.MAX_FAULHABER_WORK),
        (["smoothed", "--s", "400", "--cutoff", "poly:102", "--N", "1e5"], cli.MAX_FAULHABER_WORK),
        (["grandi", "--cutoff", "poly:75", "--N", "1e300"], cli.MAX_FAULHABER_WORK),
        (["scaling-demo", "--cutoff", "poly:75", "--N", "1e300"], cli.MAX_FAULHABER_WORK),
        (["smoothed", "--s", "999", "--cutoff", "poly:2", "--N", "2"], cli.MAX_BERNOULLI_INDEX),
        (["stirling", "--n", str(cli.MAX_STIRLING_N + 1)], cli.MAX_STIRLING_N),
        (["stirling", "--n", str(10**30), "--terms", "499"], cli.MAX_STIRLING_N),
        (["casimir-force", "--cutoff", "poly:996", "--N", "1e81"], cli.MAX_UT_DIGITS),
        (["casimir", "--cutoff", "poly:996", "--N", "7.205759403792794e+17", "--lambda", "1",
          "--levels", "58"], cli.MAX_UT_DIGITS),  # root 80,334; one level less runs (~1 s)
        (["casimir", "--cutoff", "poly:996", "--N", "10", "--lambda", "1e300"], cli.MAX_UT_DIGITS),
        (["casimir", "--cutoff", "poly:12", "--N", "1.1235582092889474e+308", "--lambda", "1",
          "--levels", "2000"], cli.MAX_UT_DIGITS),  # 1022 values: root sum of squares 85,417
    ])
    def test_work_past_a_cap_is_usage_error(self, capsys, monkeypatch, argv, cap):
        def no_compute(*args, **kwargs):
            raise AssertionError("computed before the cap check")

        for owner, name in [(cli, "bernoulli"), (cli, "faulhaber"), (summation, "cesaro_sum"),
                            (euler_maclaurin, "em_tail"), (euler_maclaurin, "stirling_series"),
                            (euler_maclaurin, "em_divergence_demo"), (series, "get_series"),
                            (smoothed, "delta_pairing"), (smoothed, "constant_extraction"),
                            (smoothed, "_poly_sum_parts"), (euler_maclaurin, "stirling_g"),
                            (casimir, "_poly_ut"), (_kernels, "ut_value")]:
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
        ["extract", "--s", "84", "--cutoff", "bump"],  # 298 digits
        ["em-tail", "--s", "90", "--N", "1000"],  # 298 digits
        ["extract", "--s", "0", "--cutoff", "bump", "--grid", "8000,16000,32000,64000"],
        ["casimir", "--cutoff", "poly:996", "--N", "1000000", "--lambda", "1"],  # B_1000
        ["casimir", "--cutoff", "poly:996", "--N", "1000000", "--lambda", "0.3"],  # root 35,417
        ["casimir-force", "--cutoff", "poly:996", "--N", "1e80"],  # 79,920 digits
        ["smoothed", "--s", "998", "--cutoff", "poly:2", "--N", "2"],  # B_1000
        ["smoothed", "--s", "100", "--cutoff", "poly:420", "--N", "10"],  # 2.29e8 Faulhaber work
        ["grandi", "--cutoff", "poly:74", "--N", "1e300"],  # 2.53e8 Faulhaber work
        ["stirling", "--n", str(cli.MAX_STIRLING_N), "--terms", "3"],
        ["em-tail", "--s", "174", "--N", "5"],  # 200 digits, under the bump drift caps
        ["extract", "--s", "54", "--cutoff", "bump"],  # 202 digits
        ["casimir", "--cutoff", "poly:996", "--N", "1000000", "--lambda", "0.3", "--levels", "5"],
        ["casimir", "--cutoff", "indicator", "--N", "1e300", "--lambda", "1e298", "--levels",
         "2000"],  # 995 values of ~900 digits: root sum of squares 17,513
        # at MAX_BUMP_WORK: 31 digits, one shared pass of 320,000 terms (~0.5 s)
        ["extract", "--s", "0", "--cutoff", "bump", "--grid", "40000,80000,160000,320000"],
    ])
    def test_work_at_a_cap_runs(self, capsys, argv):
        run_json(capsys, argv)

    def test_faulhaber_work_figure_is_exact(self, capsys):
        # sums x terms x digits = 2 * 2 * (10^30 + 2) * (10^30 + 2) digits (N = 2 counts as 10)
        argv = ["smoothed", "--s", str(10**30), "--cutoff", "poly:1", "--N", "2"]
        rc, out, err = run_capture(capsys, argv)
        assert rc == 2 and f"digits = {4 * (10**30 + 2) ** 2} exceeds" in err

    @pytest.mark.parametrize("argv,cap", [
        (["--s", "147", "--cutoff", "poly:150"], "MAX_FAULHABER_WORK"),
        (["--s", "84", "--cutoff", "bump"], "MAX_BUMP_DIGITS"),
        (["--s", "0", "--cutoff", "bump", "--grid", "40000,80000,160000,320000"], "MAX_BUMP_WORK"),
    ])
    def test_extract_work_at_a_cap_is_exactly_the_cap(self, capsys, monkeypatch, argv, cap):
        # the rows of test_work_at_a_cap_runs sit on their cap, not below it
        def past_every_cap(*args):
            raise NonFiniteResultError("the caps let this run through")

        monkeypatch.setattr(smoothed, "constant_extraction", past_every_cap)
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
        assert payload["result"]["value"] == "-1/12"

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

    @pytest.mark.parametrize("key", ["S1", "grandi", "alt-zeta:1", "alt-zeta:3"])
    def test_zeta_eta_needs_alt_zeta_series(self, capsys, key):
        rc, out, err = run_capture(capsys, ["sum", "--method", "zeta-eta", "--series", key])
        assert rc == 2 and out == ""
        assert err.startswith("usage error: --method zeta-eta needs") and err.count("\n") == 1


# |s| of sum's value test: the cap, the exponents a float-extrapolated Abel sum gets wrong
# (9, 11, 15, 20 and up) or overflows on (42, 219, 300) with neighbours, and a seeded
# log-uniform draw over 0 .. MAX_SERIES_EXPONENT
_DRAW = random.Random(17)
SUM_EXPONENTS = sorted({0, 9, 11, 15, 20, 25, 41, 42, 218, 219, 300, cli.MAX_SERIES_EXPONENT,
                        *(int((cli.MAX_SERIES_EXPONENT + 1) ** _DRAW.random()) - 1
                          for _ in range(16))})


class TestSumValues:
    def _sum(self, capsys, method, key):
        result = run_json(capsys, ["sum", "--method", method, "--series", key])["result"]
        return result["verdict"], result["value"]

    @pytest.mark.parametrize("m", SUM_EXPONENTS)
    def test_methods_agree_exactly_at_every_exponent(self, capsys, m):
        abel, zeta_eta, ramanujan = (self._sum(capsys, method, f"alt-zeta:{-m}")
                                     for method in ("abel", "zeta-eta", "ramanujan"))
        zeta = self._sum(capsys, "ramanujan", f"monomial:{m}")  # -B_{m+1}/(m+1)
        assert abel == ramanujan and zeta_eta == zeta and abel[0] == "finite"
        assert Fraction(abel[1]) == (1 - 2 ** (m + 1)) * Fraction(zeta[1])  # eta = (1 - 2^(m+1)) zeta
        assert self._sum(capsys, "abel", f"monomial:{m}") == ("divergent", None)


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


def _int_edges(cap=None):
    """An integer flag's edge values: 0, -1, 0.5, small, huge, and its cap and cap + 1."""
    return ["0", "-1", "0.5", "1", "2", str(10**30)] + ([] if cap is None else [str(cap), str(cap + 1)])


def _float_edges(cap=None):
    """A float flag's edge values: 0, -1, 0.5, small, huge and tiny, and its cap and cap + 1."""
    return (["0", "-1", "0.5", "1", "2", "10", "1e300", "1e-300", "5e-324"]
            + ([] if cap is None else [str(cap), str(cap + 1)]))


_CUTOFF_EDGES = ["bump", "indicator", "poly:0", "poly:1", "poly:-1", "poly:0.5",
                 f"poly:{cli.MAX_BERNOULLI_INDEX - 4}", f"poly:{cli.MAX_BERNOULLI_INDEX - 3}",
                 f"poly:{10**30}", "gauss"]
_GRID_EDGES = ["100,200,400,800,1600", "1e-2,1e-3", "-1", "0", "0.5", "1e300", "1e-300", "5e-324",
               "", "x"]
_SERIES_EDGES = ["S0", "S1", "grandi", "zero", "monomial:-1",
                 *(f"monomial:{s}" for s in (0, cli.MAX_SERIES_EXPONENT, cli.MAX_SERIES_EXPONENT + 1)),
                 *(f"alt-zeta:{s}" for s in (0, -1, 1, 2, 3, 0.5, cli.MAX_SERIES_EXPONENT,
                                             -cli.MAX_SERIES_EXPONENT, -cli.MAX_SERIES_EXPONENT - 1)),
                 *(f"geometric:{r}" for r in (0, -1, 0.5, 1, 2, "1e300", "1e-300", "1e400"))]
# --N 1e80 and 1e81 straddle MAX_UT_DIGITS for casimir-force on poly:996 at --lambda 1
# --N 641 and 642 straddle the bump's switch from the cell sweep to its expansion at lambda 1
_CASIMIR_FLAGS = {"--d": _float_edges(), "--N": _float_edges() + ["641", "642", "1e80", "1e81"],
                  "--cutoff": _CUTOFF_EDGES, "--lambda": _float_edges(),
                  "--quad-tol": _float_edges()}
# each subcommand's flags and the values the property draws for them (None: a bare switch)
_EDGE_GRAMMAR = {
    "bernoulli": {"--k": _int_edges(cli.MAX_BERNOULLI_INDEX)},
    "faulhaber": {"--s": _int_edges(cli.MAX_BERNOULLI_INDEX),
                  "--N": _int_edges(10 ** (cli.MAX_RESULT_DIGITS - 1))},
    "sum": {"--method": ["cesaro", "abel", "ramanujan", "zeta-eta"], "--series": _SERIES_EDGES,
            "--n": _int_edges(cli.MAX_CESARO_N), "--tol": _float_edges()},
    "ledger": {},
    # --s 999 and 1000 straddle MAX_BERNOULLI_INDEX (B_{s+p}) on poly:1; --N 370 and 371
    # straddle the bump's switch from its eta pass to its expansion at 0 for s = 0, 388
    # and 389 for s = 1, 402 and 403 for s = 2
    "smoothed": {"--s": _int_edges(cli.MAX_BERNOULLI_INDEX - 1), "--cutoff": _CUTOFF_EDGES,
                 "--N": _float_edges() + ["370", "371", "388", "389", "402", "403", "1e12"]},
    # --s 84 and 85 straddle MAX_BUMP_DIGITS on the bump and README's grid
    "extract": {"--s": _int_edges(cli.MAX_EXTRACT_S) + ["84", "85"], "--cutoff": _CUTOFF_EDGES,
                "--grid": _GRID_EDGES},
    # --N 788 and 789 straddle the bump's exact 1/2; for scaling-demo, 775 and 777 put N/2
    # either side of its s = 1 switch
    "grandi": {"--cutoff": _CUTOFF_EDGES, "--N": _float_edges() + ["788", "789", "1e12"]},
    "scaling-demo": {"--cutoff": _CUTOFF_EDGES,
                     "--N": _float_edges() + ["775", "777", "1e12"]},
    "delta-seq": {"--j": _int_edges(cli.MAX_DELTA_J), "--testfn": ["centered", "offset", "wat"],
                  "--tol": _float_edges()},
    # --s 90 and 91 straddle MAX_BUMP_DIGITS on the bump at --N 1000
    "em-tail": {"--s": _int_edges(cli.MAX_EXTRACT_S) + ["90", "91"], "--cutoff": _CUTOFF_EDGES,
                "--N": _int_edges() + ["1000"]},
    "stirling": {"--n": _int_edges(cli.MAX_STIRLING_ROWS + 1)
                 + [str(cli.MAX_STIRLING_N), str(cli.MAX_STIRLING_N + 1)],
                 "--terms": _int_edges(cli.MAX_BERNOULLI_INDEX // 2 - 1), "--table": [None]},
    "em-diverge": {"--n": _int_edges(), "--max-terms": _int_edges(cli.MAX_BERNOULLI_INDEX // 2)},
    "casimir": {**_CASIMIR_FLAGS, "--levels": _int_edges()},
    "casimir-force": _CASIMIR_FLAGS,
    "truncate": {"--alpha": ["0", "-1", "0.5", "1", "1/3", f"1/{cli.MAX_TRUNCATE_ROWS - 5}",
                             f"1/{cli.MAX_TRUNCATE_ROWS - 4}", "1e-300", "x"]},
    "borel": {"--coeffs": ["ones", "euler", "zero", "geometric:1/2", "geometric:2",
                           "geometric:1e300", "geometric:-1e-300", "wat"],
              "--x": _float_edges(), "--tol": _float_edges()},
    "gyro": {"--alpha": _float_edges(), "--order": ["0", "1", "2", "3"]},
    "flat-check": {"--beta": _float_edges(), "--n": _int_edges(), "--grid": _GRID_EDGES},
}
_SUMMA_ERRORS = {cls.__name__ for cls in vars(errors).values()
                 if isinstance(cls, type) and issubclass(cls, errors.SummaError)}


class TestExitContract:
    def test_the_grammar_covers_every_subcommand(self):
        subparsers = next(a for a in build_parser()._actions if a.dest == "subcommand")
        assert set(_EDGE_GRAMMAR) == set(subparsers.choices)
        for name, sub in subparsers.choices.items():
            flags = {a.option_strings[-1] for a in sub._actions if a.dest != "help"}
            assert set(_EDGE_GRAMMAR[name]) == flags, name

    @pytest.mark.parametrize("name", sorted(_EDGE_GRAMMAR))
    @given(data=st.data())
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_every_run_exits_0_2_or_1_with_a_summa_error(self, name, data):
        argv = [name]
        for flag, values in _EDGE_GRAMMAR[name].items():
            value = data.draw(st.sampled_from([*values, "omitted"]), label=flag)
            if value != "omitted":
                argv += [flag] if value is None else [f"{flag}={value}"]
        fmt = data.draw(st.sampled_from(["json", "csv"]), label="--format")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = run(["--format", fmt] + argv)
        out, err = out.getvalue(), err.getvalue()
        if rc == 0:
            assert err == ""
            if fmt == "json":
                validate_against_schema(json.loads(out))
            else:
                header = next(line for line in out.splitlines() if not line.startswith("# "))
                assert header == csv_layouts()[name]
        elif rc == 2:  # ours is one line; argparse's ends its usage block with one error line
            assert out == ""
            lines = err.splitlines()
            assert (len(lines) == 1 and lines[0].startswith("usage error: ")
                    or lines[0].startswith("usage: summa") and f"summa {name}: error: " in lines[-1])
        else:
            assert rc == 1 and out == "" and err.count("\n") == 1
            assert err.startswith("error: ") and err.split(":")[1].strip() in _SUMMA_ERRORS, err
