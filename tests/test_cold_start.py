"""Cold start: the exact subcommands, every subcommand on poly:p, the bump's plate energy past
its cell sweep and its smoothed sums at any N, the alternating Abel sums, Borel's geometric
family and the package surface load neither numpy nor mpmath; no subcommand needs mpmath at
all; the bump's smoothed sums load no casimir; no layer loads dataclasses, and CSV output
loads no json."""

import importlib

import pytest

import summa
from summa import cli
from summa.cli import run

# one argv of each subcommand whose every path is exact, then one of each subcommand with a
# cutoff on poly:p
NUMPY_FREE = [
    ["bernoulli", "--k", "400"],
    ["faulhaber", "--s", "3", "--N", "100"],
    ["sum", "--method", "abel", "--series", "alt-zeta:-2"],
    ["sum", "--method", "ramanujan", "--series", "monomial:7"],
    ["sum", "--method", "zeta-eta", "--series", "alt-zeta:-3"],
    ["--format", "csv", "ledger"],
    ["stirling", "--n", "10", "--terms", "3", "--table"],
    ["--format", "csv", "stirling", "--n", "12", "--terms", "1"],
    ["em-diverge", "--n", "2", "--max-terms", "20"],
    ["truncate", "--alpha", "1/137"],
    ["gyro", "--alpha", "0.0072973525693", "--order", "2"],
    ["flat-check", "--beta", "0.5", "--n", "2"],
    # the exact lane of a polynomial cutoff
    ["smoothed", "--s", "3", "--cutoff", "poly:3", "--N", "1e7"],
    ["grandi", "--cutoff", "poly:8", "--N", "1e7"],
    ["--format", "csv", "scaling-demo", "--cutoff", "poly:2", "--N", "100"],
    ["extract", "--s", "1", "--cutoff", "poly:4"],
    ["em-tail", "--s", "3", "--cutoff", "poly:6", "--N", "100000"],
    ["casimir", "--cutoff", "poly:7", "--N", "400000", "--lambda", "0.5"],
    ["casimir-force", "--cutoff", "poly:6", "--N", "1e12"],
    # the bump's plate energy where every scale is past its sweep: its expansion at 0
    ["casimir-force", "--N", "1e12"],
    ["casimir-force", "--N", "800"],
    ["casimir", "--N", "1e6", "--levels", "1"],
    # the bump's smoothed sums: the expansion at 0 (C_s in integers), and below N_0(s) the
    # eta pass, correctly rounded
    ["smoothed", "--s", "1", "--N", "1e7"],
    ["grandi", "--N", "1e7"],
    ["--format", "csv", "scaling-demo", "--N", "1e7"],
    ["smoothed", "--s", "1", "--N", "100"],
    # the bump's drifts: the eta pass, C_s and the roundings in integers
    ["extract", "--s", "1"],
    ["--format", "csv", "em-tail", "--s", "2", "--N", "60"],
    # the alternating Abel sums in integers, correctly rounded, and Borel's geometric family
    # by its closed form
    ["sum", "--method", "abel", "--series", "alt-zeta:1"],
    ["sum", "--method", "zeta-eta", "--series", "alt-zeta:2"],
    ["borel", "--coeffs", "geometric:-1", "--x", "2"],
]
# the bump's subcommands with its exact paths (the moment C_s, the eta pass, the drifts'
# roundings) past and below N_0(s), then one argv of every other subcommand
WITHOUT_MPMATH = [
    ["smoothed", "--s", "1", "--N", "1e7"],
    ["smoothed", "--s", "3", "--N", "100"],
    ["--format", "csv", "scaling-demo", "--N", "1e7"],
    ["scaling-demo", "--N", "100"],
    ["extract", "--s", "1"],
    ["extract", "--s", "5", "--grid", "100,150,225,300,450"],
    ["em-tail", "--s", "2", "--N", "60"],
    ["em-tail", "--s", "90", "--N", "1000"],
    ["grandi", "--N", "500"],
    ["casimir", "--N", "400", "--levels", "2"],
    ["casimir-force", "--N", "2000"],
    ["delta-seq", "--j", "25"],
    ["borel", "--coeffs", "euler", "--x", "0.1"],
    ["sum", "--method", "cesaro", "--series", "grandi", "--n", "2000"],
    *NUMPY_FREE[:12],
]
# the bump's smoothed sums, Grandi sum and scaling demo, past and below N_0(s)
WITHOUT_CASIMIR = [
    ["smoothed", "--s", "1", "--cutoff", "bump", "--N", "1e7"],
    ["grandi", "--cutoff", "bump", "--N", "1e7"],
    ["scaling-demo", "--cutoff", "bump", "--N", "1e7"],
    ["smoothed", "--s", "3", "--N", "100"],
    ["grandi", "--N", "500"],
    ["scaling-demo", "--N", "100"],
]

# the public names of each submodule, as the package exported them eagerly
EXPORTS = {
    "exact": ["Rational", "bernoulli", "bernoulli_table", "binomial", "faulhaber",
              "genfun_coefficients"],
    "cutoffs": ["Cutoff", "make_cutoff", "parse_cutoff", "sharp_indicator"],
    "series": ["SeriesOracle", "get_series"],
    "summation": ["SummationOutcome", "partial_sum", "cesaro_sum", "abel_sum",
                  "ramanujan_monomial", "zeta_via_eta", "inconsistency_ledger"],
    "smoothed": ["AsymptoticFit", "smoothed_sum", "constant_extraction",
                 "grandi_smoothed", "scaling_counterexample", "delta_pairing", "sine_pairing"],
}


# heavy imports that no exact or poly call needs; dataclasses pulls in inspect, ast and dis
WATCHED = ("numpy", "mpmath", "dataclasses", "inspect", "json")


def cold_run(run_fresh, argv):
    """(stdout, the WATCHED modules loaded) of ``cli.run(argv)`` in a fresh interpreter; asserts exit 0."""
    out = run_fresh("import sys\n"
                    "from summa.cli import run\n"
                    f"rc = run({argv!r})\n"
                    f"print(rc, *sorted(set({WATCHED!r}) & set(sys.modules)))\n")
    text, status = out[:-1].rsplit("\n", 1)
    rc, *loaded = status.split()
    assert rc == "0"
    return text + "\n", set(loaded)


@pytest.mark.parametrize("argv", NUMPY_FREE, ids=" ".join)
def test_exact_subcommand_runs_cold_without_numpy(run_fresh, capsys, argv):
    text, loaded = cold_run(run_fresh, argv)
    assert not loaded & {"numpy", "mpmath", "dataclasses", "inspect"}
    if argv[:2] == ["--format", "csv"]:
        assert "json" not in loaded
    assert run(argv) == 0
    assert text == capsys.readouterr().out


def test_a_float_subcommand_loads_numpy(run_fresh, capsys):
    argv = ["delta-seq", "--j", "25"]  # the Dirichlet pairing: GK15 quadrature on arrays
    text, loaded = cold_run(run_fresh, argv)
    assert "numpy" in loaded
    assert run(argv) == 0
    assert text == capsys.readouterr().out


def test_every_subcommand_runs_with_mpmath_blocked(run_fresh, capsys):
    # import mpmath raises ImportError in the fresh interpreter; its outputs are the same
    assert {a[2] if a[0] == "--format" else a[0] for a in WITHOUT_MPMATH} == set(
        cli._SUBCOMMANDS)
    out = run_fresh("import sys\n"
                    "sys.modules['mpmath'] = None\n"
                    "from summa.cli import run\n"
                    f"for argv in {WITHOUT_MPMATH!r}:\n"
                    "    print(run(argv))\n")
    want = []
    for argv in WITHOUT_MPMATH:
        assert run(argv) == 0
        want.append(capsys.readouterr().out + "0\n")
    assert out == "".join(want)


def test_bump_smoothed_subcommands_do_not_load_casimir(run_fresh):
    out = run_fresh("import contextlib, io, sys\n"
                    "from summa.cli import run\n"
                    "with contextlib.redirect_stdout(io.StringIO()):\n"
                    f"    rcs = [run(argv) for argv in {WITHOUT_CASIMIR!r}]\n"
                    "print(rcs, 'summa.casimir' in sys.modules)\n")
    assert out == f"{[0] * len(WITHOUT_CASIMIR)} False\n"


def test_import_loads_neither_numpy_nor_mpmath(run_fresh):
    out = run_fresh("import sys\n"
                    "import summa, summa.cli\n"
                    "print(sorted({'numpy', 'mpmath', 'json'} & set(sys.modules)))\n")
    assert out == "[]\n"


def test_no_layer_loads_dataclasses(run_fresh):
    out = run_fresh("import sys\n"
                    "import summa.casimir, summa.asymptotics, summa.summation, summa.smoothed\n"
                    "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    assert out == "[]\n"


class TestLazyPackageSurface:
    def test_every_public_name_is_its_submodules_object(self):
        assert summa.__all__ == ["__version__", *(n for names in EXPORTS.values() for n in names)]
        for module, names in EXPORTS.items():
            sub = importlib.import_module(f"summa.{module}")
            for name in names:
                assert getattr(summa, name) is getattr(sub, name), name

    def test_dir_lists_every_public_name(self):
        assert set(summa.__all__) <= set(dir(summa))

    def test_star_import(self):
        namespace = {}
        exec("from summa import *", namespace)
        assert set(summa.__all__) <= set(namespace)
        assert namespace["__version__"] == summa.__version__ == "0.1.0"

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            summa.no_such_name
        assert not hasattr(summa, "no_such_name")
