"""Command-line surface: every operation bound to a reproducible run.

Output is machine-readable: JSON (default) or CSV with a ``# key=value``
config header.  Every run echoes its fully resolved configuration and the
package version, so a result can be reproduced from its own output.
Numeric output is deterministic for a fixed configuration and environment.

Exit codes: 0 success, 1 computational error (an inf or nan result is one,
in either format), 2 usage error (float flags must be finite numbers: nan
and inf are rejected at parse time, and so is a tolerance or a positive
physical flag at or below 0 and an integer flag below its lower bound; so is
work past a declared cap, before any compute).

Importing this module loads only argparse, json, fractions, ``errors`` and
``exact``: each handler imports its own layer when it is dispatched, so the
exact subcommands start without numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import __version__
from .errors import NonFiniteResultError, SummaError
from .exact import bernoulli, faulhaber

if TYPE_CHECKING:
    from . import casimir, summation

SERIES_GRAMMAR = "S0 | S1 | grandi | zero | monomial:s | alt-zeta:s | geometric:r"
CUTOFF_GRAMMAR = "bump | poly:p | indicator"

# Work caps, checked before any compute (exit 2); cold-process costs at the cap
MAX_BERNOULLI_INDEX = 1000  # exact B_k reached by a flag: ~0.14 s at 1000, ~0.6 s in-process at 2000
MAX_CESARO_N = 10**6  # Cesaro window, ~32 B a term: 62 MB at 10^6
MAX_TRUNCATE_ROWS = 10**5  # truncate's table of floor(1/alpha) + 5 rows: ~0.5 s at 10^5
MAX_STIRLING_ROWS = 2000  # stirling --table rows 2..n: ~0.9 s at 2000, ~7 s at 3000
# delta-seq --j: ~0.3 s up to 9*10^4 at the default --tol; at 10^5 the pairing spends its
# 2*10^6-evaluation budget and fails (exit 1)
MAX_DELTA_J = 50_000
# |s| of a monomial:s or alt-zeta:s key, whose exact generating function abel and zeta-eta
# build on first use, in s rounds over s + 2 Fractions: ~1.5 s for either at 500, ~8 s to
# build at 1000; cesaro and ramanujan never build it (~0.15 s at 500)
MAX_SERIES_EXPONENT = 500
# digits of N^(s + 1), above faulhaber's S_s(N): past CPython's default limit the int
# cannot be printed; ~0.3 s at s = 1000, N = 19,000 (4,283 digits)
MAX_RESULT_DIGITS = 4300
# extract and em-tail --s: past 260, zeta(-s) = -B_{s+1}/(s+1) is no longer a float64
MAX_EXTRACT_S = 260
# The drift caps of extract's grid and em-tail's N. poly:p: (p + 1) (points + 1) Faulhaber
# sums (N_max/2 counted) x s + p + 1 terms x ceil((s + p + 1) log10 max(N_max, 10)) digits:
# --s 147 --cutoff poly:150 on README's grid (~2.9 s); --s 0 takes poly:236 there (~1.7 s)
MAX_FAULHABER_WORK = 906 * 298 * 955
# bump: digits 25 + ceil((s + 1) log10 N_max) of the drift (--s 53 on README's grid
# has 199, ~1.5 s), then digits x sum of ceil(N) over the points, a bound on the eta passes'
# cost (--s 0 on a dyadic grid to 64,000, ~0.9 s; ~2.9 s at 199 digits and 3.4 * 10^6)
MAX_BUMP_DIGITS = 199
MAX_BUMP_WORK = 36 * 10**5


class UsageError(Exception):
    pass


def _check_cap(what: str, value: int, cap: int) -> None:
    if value > cap:
        raise UsageError(f"{what} = {value} exceeds the cap of {cap}")


def _check_drift_caps(s: int, cutoff, points) -> None:
    """The caps on --s and on the work of the exact drift D(N) at every N in ``points``."""
    from .smoothed import working_digits

    _check_cap("--s", s, MAX_EXTRACT_S)
    n_max = max(points)
    if n_max > sys.float_info.max:  # em-tail's integer --N; extract's grid is float already
        raise UsageError(f"--N must be at most the largest float64, {sys.float_info.max:.6g}")
    if cutoff.kind == "poly":
        terms = s + cutoff.p + 1
        digits = math.ceil(terms * math.log10(max(n_max, 10)))
        _check_cap("poly drift work, Faulhaber sums x terms x digits",
                   (cutoff.p + 1) * (len(points) + 1) * terms * digits, MAX_FAULHABER_WORK)
    else:
        digits = working_digits(s, n_max)
        _check_cap("bump drift digits", digits, MAX_BUMP_DIGITS)
        _check_cap("bump drift digits x sum of ceil(N)",
                   digits * sum(math.ceil(N) for N in points), MAX_BUMP_WORK)


def _fmt(value):
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return value


def _finite_float(text: str) -> float:
    """argparse type of every float flag: a finite number, else exit 2."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    """argparse type of a tolerance or a positive physical flag: finite and > 0, else exit 2."""
    if _finite_float(text) <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return float(text)


def _int_at_least(lo: int):
    """argparse type of an integer flag with lower bound ``lo``: a smaller value exits 2."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {text!r}")
        return value

    return parse


def _sum_scale(text: str) -> float:
    """argparse type of a smoothed sum's --N: finite, at most MAX_TERMS terms, else exit 2."""
    from .smoothed import MAX_TERMS

    value = _finite_float(text)
    if value > MAX_TERMS:
        raise argparse.ArgumentTypeError(f"{text!r} exceeds the cap of {MAX_TERMS} summed terms")
    return value


def _parse_grid(text: str):
    try:
        grid = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad grid {text!r}: expected comma-separated numbers") from exc
    if not all(math.isfinite(v) for v in grid):
        raise UsageError(f"bad grid {text!r}: every point must be a finite number")
    return grid


def _resolve_series(key: str):
    """(family, parameter, series) of a catalog key; a malformed key is a usage error."""
    from .series import get_series, parse_key

    try:
        family, param = parse_key(key)
    except KeyError as exc:
        raise UsageError(f"unknown series key {key!r}; grammar: {SERIES_GRAMMAR}") from exc
    if family in ("monomial", "alt-zeta"):
        _check_cap("series exponent |s|", abs(param), MAX_SERIES_EXPONENT)
    return family, param, get_series(key)


def _resolve_cutoff(spec: str):
    from .cutoffs import parse_cutoff

    try:
        return parse_cutoff(spec)
    except (ValueError, KeyError) as exc:
        raise UsageError(f"bad cutoff {spec!r}; grammar: {CUTOFF_GRAMMAR}") from exc


def _outcome_payload(out: summation.SummationOutcome) -> dict:
    return {
        "method": out.method,
        "verdict": out.verdict,
        "value": _fmt(out.value) if out.value is not None else None,
        "error_estimate": out.error_estimate,
        "diagnostics": {k: _fmt(v) for k, v in out.diagnostics.items()
                        if isinstance(v, (int, float, str, Fraction))},
    }


# --- subcommand handlers: each returns (result_dict, csv_rows_or_None) --------
# csv rows: (header_tuple, [row_tuple, ...])


def _cmd_bernoulli(args):
    _check_cap("Bernoulli index --k", args.k, MAX_BERNOULLI_INDEX)
    val = bernoulli(args.k)
    return {"k": args.k, "value": _fmt(val)}, (("k", "value"), [(args.k, _fmt(val))])


def _cmd_faulhaber(args):
    _check_cap("Bernoulli index --s", args.s, MAX_BERNOULLI_INDEX)
    digits = math.floor((args.s + 1) * math.log10(args.N)) + 1
    _check_cap("digits of --N^(--s + 1)", digits, MAX_RESULT_DIGITS)
    val = faulhaber(args.s, args.N)
    return ({"s": args.s, "N": args.N, "value": _fmt(val)},
            (("s", "N", "value"), [(args.s, args.N, _fmt(val))]))


def _cmd_sum(args):
    from . import summation

    if args.method == "cesaro":
        _check_cap("Cesaro window --n", args.n, MAX_CESARO_N)
    family, param, series = _resolve_series(args.series)
    if args.method == "cesaro":
        out = summation.cesaro_sum(series, args.n, tol=args.tol)
    elif args.method == "abel":
        out = summation.abel_sum(series)
    elif args.method == "ramanujan":
        out = _ramanujan_outcome(family, param, series.label)
    elif args.method == "zeta-eta":
        if family != "alt-zeta":
            raise UsageError("--method zeta-eta needs --series alt-zeta:s")
        out = summation.zeta_via_eta(param)
    else:  # pragma: no cover - argparse choices guard this
        raise UsageError(f"unknown method {args.method}")
    payload = _outcome_payload(out)
    payload["series"] = series.label
    return payload, ((("series", "method", "verdict", "value", "error_estimate"),
                      [(series.label, out.method, out.verdict,
                        _fmt(out.value) if out.value is not None else "",
                        out.error_estimate if out.error_estimate is not None else "")]))


def _ramanujan_outcome(family: str, param, label: str) -> summation.SummationOutcome:
    """Exact zeta-regularized values for the catalog families that have one."""
    from . import summation

    if family == "monomial":
        val = summation.ramanujan_monomial(param)
    elif family in ("alt-zeta", "grandi"):
        s = param if family == "alt-zeta" else 0  # grandi is alt-zeta:0
        if s > 0:
            raise UsageError("exact zeta-regularized value wired only for alt-zeta:s with s <= 0")
        val = (1 - 2 ** (1 - s)) * summation.ramanujan_monomial(-s)
    else:
        raise UsageError(f"no zeta-regularized closed form for series {label!r}")
    return summation.SummationOutcome("ramanujan", "finite", val, 0.0, {})


def _cmd_ledger(args):
    from . import summation

    report = summation.inconsistency_ledger()
    rows = [(r.identity,
             _fmt(r.rule_a) if r.rule_a is not None else "",
             _fmt(r.rule_b) if r.rule_b is not None else "",
             r.clash) for r in report.rows]
    result = {"rows": [{"identity": r.identity,
                        "rule_a": _fmt(r.rule_a) if r.rule_a is not None else None,
                        "rule_b": _fmt(r.rule_b) if r.rule_b is not None else None,
                        "clash": r.clash} for r in report.rows],
              "clash_count": len(report.clashes)}
    return result, (("identity", "rule_a", "rule_b", "clash"), rows)


def _cmd_smoothed(args):
    from . import smoothed

    cutoff = _resolve_cutoff(args.cutoff)
    val = smoothed.smoothed_sum(args.s, cutoff, args.N)
    return ({"s": args.s, "cutoff": cutoff.label, "N": args.N, "value": val},
            (("s", "cutoff", "N", "value"), [(args.s, cutoff.label, args.N, val)]))


def _cmd_extract(args):
    from . import smoothed

    cutoff = _resolve_cutoff(args.cutoff)
    grid = _parse_grid(args.grid)
    try:
        smoothed.check_grid(grid)
    except ValueError as exc:
        raise UsageError(f"bad --grid {args.grid!r}: {exc}") from exc
    _check_drift_caps(args.s, cutoff, grid)
    fit = smoothed.constant_extraction(args.s, cutoff, grid)
    result = fit.to_json_dict()
    result["error_estimate"] = fit.error_estimate
    rows = [(N, r) for N, r in zip(fit.grid[:-1], fit.residuals)]
    return result, (("N", "residual"), rows)


def _cmd_grandi(args):
    from . import smoothed

    cutoff = _resolve_cutoff(args.cutoff)
    val = smoothed.grandi_smoothed(cutoff, args.N)
    return ({"cutoff": cutoff.label, "N": args.N, "value": val,
             "deviation_from_half": abs(val - 0.5)},
            (("cutoff", "N", "value"), [(cutoff.label, args.N, val)]))


def _cmd_scaling_demo(args):
    from . import smoothed

    cutoff = _resolve_cutoff(args.cutoff)
    lhs, rhs, differ = smoothed.scaling_counterexample(cutoff, args.N)
    return ({"cutoff": cutoff.label, "N": args.N, "lhs": lhs, "rhs": rhs, "differ": differ},
            (("cutoff", "N", "lhs", "rhs", "differ"),
             [(cutoff.label, args.N, lhs, rhs, differ)]))


def _cmd_delta_seq(args):
    from . import smoothed

    testfns = {"centered": smoothed.centered_bump, "offset": smoothed.offset_bump}
    if args.testfn not in testfns:
        raise UsageError(f"unknown test function {args.testfn!r}; choose centered | offset")
    _check_cap("Dirichlet kernel order --j", args.j, MAX_DELTA_J)
    phi = testfns[args.testfn]()
    val = smoothed.delta_pairing(args.j, phi, tol=args.tol)
    at_zero = float(phi(0.0))
    return ({"j": args.j, "testfn": args.testfn, "value": val,
             "phi_at_zero": at_zero, "pairing_error": abs(val - at_zero)},
            (("j", "testfn", "value", "phi_at_zero"),
             [(args.j, args.testfn, val, at_zero)]))


def _cmd_em_tail(args):
    from . import euler_maclaurin as em

    cutoff = _resolve_cutoff(args.cutoff)
    _check_drift_caps(args.s, cutoff, [args.N])
    header = ("s", "cutoff", "N", "lhs", "series", "residual")
    row = (args.s, cutoff.label, args.N, *em.em_tail(args.s, cutoff, args.N))
    return dict(zip(header, row)), (header, [row])


def _cmd_stirling(args):
    from . import euler_maclaurin as em

    _check_cap("Bernoulli index 2 * --terms + 2", 2 * args.terms + 2, MAX_BERNOULLI_INDEX)
    if args.table:
        _check_cap("--table rows --n - 1", args.n - 1, MAX_STIRLING_ROWS)
    ns = range(2, args.n + 1) if args.table else [args.n]
    rows = []
    for n in ns:
        g = em.stirling_g(n)
        val, bound = em.stirling_series(n, args.terms)
        rows.append((n, g, val, bound))
    result = {"terms": args.terms,
              "rows": [{"n": n, "g": g, "value": v, "bound": b} for n, g, v, b in rows]}
    return result, (("n", "g", "value", "bound"), rows)


def _cmd_em_diverge(args):
    from . import euler_maclaurin as em

    _check_cap("Bernoulli index 2 * --max-terms", 2 * args.max_terms, MAX_BERNOULLI_INDEX)
    scan = em.em_divergence_demo(args.n, args.max_terms)
    rows = [(m + 1, _fmt(t), float(abs(t))) for m, t in enumerate(scan.terms)]
    return ({"n": args.n, "m_star": scan.m_star,
             "terms": [_fmt(t) for t in scan.terms]},
            (("m", "term", "magnitude"), rows))


def _make_casimir_config(args) -> casimir.CasimirConfig:
    from . import casimir

    cfg = casimir.CasimirConfig(
        d=args.d, lam=getattr(args, "lam"), N=args.N,
        cutoff=_resolve_cutoff(args.cutoff), quad_tol=args.quad_tol,
    )
    if cfg.support_end > casimir.MAX_CELLS:  # the largest sweep has ceil(N / lambda) cells
        raise UsageError(f"--N / --lambda = {cfg.support_end:.6g} cells exceeds the "
                         f"plate-sweep cap of {casimir.MAX_CELLS}")
    return cfg


def _cmd_casimir(args):
    from . import casimir

    cfg = _make_casimir_config(args)
    enforce = cfg.cutoff.kind != "indicator"
    ladder = casimir.u_t_ladder(cfg, args.levels, enforce_smoothness=enforce)
    rows = [(N, r.value, r.error_estimate) for N, r in ladder]
    value = rows[-1][1]
    energy = casimir.energy_prefactor(cfg.d) * value
    closed = casimir.closed_form_energy_density(cfg.d)
    result = {
        "limit": energy,
        "closed_form": closed,
        "relative_error": abs(energy - closed) / abs(closed),
        "u_t": value,
        "u_t_error_estimate": rows[-1][2],
    }
    return result, (("N", "value", "error_estimate"), rows)


def _cmd_casimir_force(args):
    from . import casimir

    cfg = _make_casimir_config(args)
    force = casimir.casimir_force(args.d, cfg)
    closed = casimir.closed_form_force(args.d)
    result = {"force": force, "closed_form": closed,
              "relative_error": abs(force - closed) / abs(closed)}
    return result, (("d", "force", "closed_form"), [(args.d, force, closed)])


def _cmd_truncate(args):
    from . import asymptotics

    try:
        alpha = Fraction(args.alpha)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad --alpha {args.alpha!r}: expected a rational like 1/137 or 0.5") from exc
    n_star = asymptotics.optimal_truncation(alpha)
    _check_cap("table rows floor(1/alpha) + 5", n_star + 5, MAX_TRUNCATE_ROWS)
    rows = []
    for n in range(1, n_star + 6):
        log10_term = (math.lgamma(n + 1) + n * math.log(float(alpha))) / math.log(10.0)
        rows.append((n, log10_term))
    return ({"alpha": _fmt(alpha), "n_star": n_star}, (("N", "log10_term"), rows))


# the asymptotics.CoefficientOracle arguments of each named oracle
_BOREL_ORACLES = {
    "ones": dict(a=lambda n: 1.0, label="ones", exp_rate=1.0),
    "euler": dict(a=lambda n: (-1.0) ** n * float(math.factorial(n)), label="euler",
                  exp_rate=0.0, borel_transform=lambda z: 1.0 / (1.0 + z)),
    "zero": dict(a=lambda n: 0.0, label="zero"),
}


def _cmd_borel(args):
    from . import asymptotics
    from .series import parse_key

    key = args.coeffs
    if key.startswith("geometric:"):
        try:
            r = float(parse_key(key)[1])
        except KeyError as exc:
            raise UsageError(f"bad --coeffs {key!r}: r must be a rational like 1/2 or 0.5") from exc
        oracle = asymptotics.CoefficientOracle(
            a=lambda n, r=r: r**n, label=key, exp_rate=abs(r))
    elif key in _BOREL_ORACLES:
        oracle = asymptotics.CoefficientOracle(**_BOREL_ORACLES[key])
    else:
        raise UsageError(
            f"unknown coefficient oracle {key!r}; grammar: ones | euler | zero | geometric:r")
    val = asymptotics.borel_sum(oracle, args.x, args.tol)
    return ({"coeffs": key, "x": args.x, "tol": args.tol, "value": val},
            (("coeffs", "x", "value"), [(key, args.x, val)]))


def _cmd_gyro(args):
    from . import asymptotics

    val = asymptotics.gyro_partial(args.alpha, args.order)
    return ({"alpha": args.alpha, "order": args.order, "value": val},
            (("alpha", "order", "value"), [(args.alpha, args.order, val)]))


def _cmd_flat_check(args):
    from . import asymptotics

    grid = _parse_grid(args.grid)
    probes = asymptotics.flat_derivative_probe(args.beta, args.n, grid)
    rows = list(zip(grid, probes))
    return ({"beta": args.beta, "n": args.n, "probes": probes, "grid": grid},
            (("z", "probe"), rows))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="summa",
        description="Summability methods for divergent series, smoothed sums, "
                    "and the parallel-plate Casimir energy.",
    )
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    ap.add_argument("--output", default=None, help="write to file instead of stdout")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("bernoulli", help="exact Bernoulli number B_k")
    p.add_argument("--k", type=_int_at_least(0), required=True)
    p.set_defaults(handler=_cmd_bernoulli)

    p = sub.add_parser("faulhaber", help="exact power sum 1^s + ... + N^s")
    p.add_argument("--s", type=_int_at_least(0), required=True)
    p.add_argument("--N", type=_int_at_least(1), required=True)
    p.set_defaults(handler=_cmd_faulhaber)

    p = sub.add_parser("sum", help="summability methods on a catalog series")
    p.add_argument("--method", choices=("cesaro", "abel", "ramanujan", "zeta-eta"),
                   required=True)
    p.add_argument("--series", required=True, help=SERIES_GRAMMAR)
    p.add_argument("--n", type=_int_at_least(2), default=10000, help="Cesaro window")
    p.add_argument("--tol", type=_positive_float, default=1e-3)
    p.set_defaults(handler=_cmd_sum)

    p = sub.add_parser("ledger", help="two-rule-set divergent series catalog")
    p.set_defaults(handler=_cmd_ledger)

    p = sub.add_parser("smoothed", help="smoothed monomial sum")
    p.add_argument("--s", type=_int_at_least(0), required=True)
    p.add_argument("--cutoff", default="bump", help=CUTOFF_GRAMMAR)
    p.add_argument("--N", type=_sum_scale, required=True)
    p.set_defaults(handler=_cmd_smoothed)

    p = sub.add_parser("extract", help="constant extraction over an N grid")
    p.add_argument("--s", type=_int_at_least(0), required=True)
    p.add_argument("--cutoff", default="bump")
    p.add_argument("--grid", default="100,200,400,800,1600",
                   help="comma-separated N: at least 4, increasing, all > 0, max >= 100 "
                        "(a grid starting with a negative number is written --grid=-5,...)")
    p.set_defaults(handler=_cmd_extract)

    p = sub.add_parser("grandi", help="smoothed Grandi sum")
    p.add_argument("--cutoff", default="bump")
    p.add_argument("--N", type=_sum_scale, default=1e4)
    p.set_defaults(handler=_cmd_grandi)

    p = sub.add_parser("scaling-demo", help="smoothed sums are not scale invariant")
    p.add_argument("--cutoff", default="bump")
    p.add_argument("--N", type=_sum_scale, default=100.0)
    p.set_defaults(handler=_cmd_scaling_demo)

    p = sub.add_parser("delta-seq", help="Dirichlet kernel pairing")
    p.add_argument("--j", type=_int_at_least(1), required=True)
    p.add_argument("--testfn", default="centered", help="centered | offset")
    p.add_argument("--tol", type=_positive_float, default=1e-10)
    p.set_defaults(handler=_cmd_delta_seq)

    p = sub.add_parser("em-tail", help="Euler-Maclaurin tail identity")
    p.add_argument("--s", type=_int_at_least(1), required=True)
    p.add_argument("--cutoff", default="bump")
    p.add_argument("--N", type=_int_at_least(1), required=True)
    p.set_defaults(handler=_cmd_em_tail)

    p = sub.add_parser("stirling", help="Stirling series vs the exact gap")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--terms", type=_int_at_least(1), default=2)
    p.add_argument("--table", action="store_true", help="rows for all 2..n")
    p.set_defaults(handler=_cmd_stirling)

    p = sub.add_parser("em-diverge", help="divergence onset of the Stirling series")
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--max-terms", type=_int_at_least(2), default=60)
    p.set_defaults(handler=_cmd_em_diverge)

    for name in ("casimir", "casimir-force"):
        p = sub.add_parser(name, help="smoothed plate energy" if name == "casimir"
                           else "plate force per unit area, 3 E / d")
        p.add_argument("--d", type=_positive_float, default=1e-6, help="plate separation (m)")
        p.add_argument("--N", type=_finite_float, default=400.0)
        p.add_argument("--cutoff", default="bump")
        p.add_argument("--lambda", dest="lam", type=_positive_float, default=1.0)
        p.add_argument("--quad-tol", type=_positive_float, default=1e-9)
        if name == "casimir":
            p.add_argument("--levels", type=_int_at_least(1), default=4,
                           help="N-halving rows in the convergence table")
            p.set_defaults(handler=_cmd_casimir)
        else:
            p.set_defaults(handler=_cmd_casimir_force)

    p = sub.add_parser("truncate", help="optimal truncation scan of N! alpha^N")
    p.add_argument("--alpha", required=True, help="rational in (0,1), e.g. 1/137")
    p.set_defaults(handler=_cmd_truncate)

    p = sub.add_parser("borel", help="Borel summation")
    p.add_argument("--coeffs", required=True, help="ones | euler | zero | geometric:r")
    p.add_argument("--x", type=_positive_float, required=True)
    p.add_argument("--tol", type=_positive_float, default=1e-9)
    p.set_defaults(handler=_cmd_borel)

    p = sub.add_parser("gyro", help="gyromagnetic anomaly partial sums")
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--order", type=int, choices=(1, 2), required=True)
    p.set_defaults(handler=_cmd_gyro)

    p = sub.add_parser("flat-check", help="right derivatives of exp(-z^-beta) at 0")
    p.add_argument("--beta", type=_finite_float, required=True)
    p.add_argument("--n", type=_int_at_least(0), default=1)
    p.add_argument("--grid", default="1e-2,1e-3,1e-4,1e-5,1e-6")
    p.set_defaults(handler=_cmd_flat_check)

    return ap


def _config_echo(args) -> dict:
    skip = {"handler", "format", "output"}
    cfg = {k: _fmt(v) for k, v in sorted(vars(args).items())
           if k not in skip and v is not None and not callable(v)}
    cfg["version"] = __version__
    return cfg


def _non_finite(value, where):
    """(where, value) of the first inf or nan float inside ``value``, else None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else (where, value)
    if isinstance(value, dict):
        items = ((f"{where}.{k}", v) for k, v in value.items())
    elif isinstance(value, (list, tuple)):
        items = ((f"{where}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    for path, item in items:
        hit = _non_finite(item, path)
        if hit:
            return hit
    return None


def _check_finite(result, csv_block) -> None:
    """Raise NonFiniteResultError on an inf or nan anywhere in the output, whatever the format."""
    hit = _non_finite(result, "result") or _non_finite(csv_block[1], "rows")
    if hit:
        raise NonFiniteResultError(f"{hit[0]} = {hit[1]} is not a finite number "
                                   "(float64 overflow or an invalid operation)")


def _emit(args, result, csv_block) -> str:
    config = _config_echo(args)
    if args.format == "json":
        return json.dumps({"config": config, "result": result},
                          sort_keys=True, allow_nan=False)
    header, rows = csv_block
    lines = [f"# {k}={v}" for k, v in sorted(config.items())]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    return "\n".join(lines)


def run(argv) -> int:
    """Parse argv, run the subcommand, write output; returns the exit code."""
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result, csv_block = args.handler(args)
        _check_finite(result, csv_block)
        text = _emit(args, result, csv_block)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (SummaError, ValueError, KeyError, ZeroDivisionError, OverflowError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
