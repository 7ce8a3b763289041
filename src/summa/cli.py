"""Command-line surface: every operation bound to a reproducible run.

Output is machine-readable: JSON (default) or CSV with a ``# key=value``
config header.  Every run echoes its fully resolved configuration and the
package version, so a result can be reproduced from its own output.
Numeric output is deterministic for a fixed configuration and environment.

Exit codes: 0 success, 1 computational error, always a ``SummaError`` (an
inf or nan result is one, in either format), 2 usage error (float flags must
be finite numbers: nan and inf are rejected at parse time, and so is a
tolerance or a positive physical flag at or below 0, an integer flag below
its lower bound and a float flag outside its domain, such as a smoothing
scale --N below the least its computation accepts or a grid point at or
below 0; so is work past a declared cap, before any compute).

Importing this module loads only argparse, fractions, typing, ``errors`` and
``exact``; json is imported when JSON is emitted, and the parser is built
for the one subcommand that argv names (every subcommand's for --help and
for a missing or unknown one).  Each handler imports its own layer when it
is dispatched, and no layer loads dataclasses (its records are NamedTuples).
No subcommand loads mpmath: the bump's moment C_s, its fixed-point eta pass
and its drifts' roundings run in integers (``_fixed``).  The exact
subcommands start without numpy (``stirling``'s g(n) and abel's alternating
sums of alt-zeta:s, s >= 1, run in integers), as do ``borel`` on the
geometric family (a closed form) and every subcommand on a polynomial
cutoff poly:p (``smoothed``, ``grandi``, ``scaling-demo``, ``extract``,
``em-tail``, ``casimir`` and ``casimir-force``), whose values are exact
rationals from the Faulhaber and Bernoulli sums, each rounded once.  So do
the bump's ``extract`` and ``em-tail``, and a bump ``casimir`` or
``casimir-force`` whose every N / lambda is past ~642, where u_t is its
Euler-Maclaurin expansion at 0, rounded once.  The bump's ``smoothed``,
``grandi`` and ``scaling-demo`` load no numpy at any N: each sum is its
expansion at 0 (``cutoffs.bump_em``, as u_t's) past N_0(s), and the eta pass,
correctly rounded, below it (``_kernels.smoothed_sum_value``).
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from . import __version__
from .errors import BorelSummabilityError, CutoffSmoothnessError, NonFiniteResultError, SummaError
from .exact import bernoulli, faulhaber, to_floats

if TYPE_CHECKING:
    from . import casimir, summation

SERIES_GRAMMAR = "S0 | S1 | grandi | zero | monomial:s | alt-zeta:s | geometric:r"
CUTOFF_GRAMMAR = "bump | poly:p | indicator"

# Work caps, checked before any compute (exit 2); cold-process costs at the cap
# exact B_k reached by a flag: ~0.14 s at 1000, ~0.6 s in-process at 2000; casimir --cutoff
# poly:996 reads B_1000 and takes ~0.5 s for its 5 exact values at N/lambda = 10^6
MAX_BERNOULLI_INDEX = 1000
MAX_CESARO_N = 10**6  # Cesaro window, ~32 B a term: 62 MB at 10^6
MAX_TRUNCATE_ROWS = 10**5  # truncate's table of floor(1/alpha) + 5 rows: ~0.5 s at 10^5
MAX_STIRLING_ROWS = 2000  # stirling --table rows 2..n: ~0.9 s at 2000, ~7 s at 3000
# stirling --n: a work cap, since g(n) is correctly rounded at any n; the exact series of
# --terms 499 has ~16,000-digit integers at the cap (~0.2 s cold)
MAX_STIRLING_N = 10**16
# delta-seq --j: ~0.3 s up to 9*10^4 at the default --tol; at 10^5 the pairing spends its
# 2*10^6-evaluation budget and fails (exit 1)
MAX_DELTA_J = 50_000
# |s| of a monomial:s or alt-zeta:s key; abel and zeta-eta build the Eulerian numbers of
# alt-zeta:-s as ints, O(s^2) work: cold, every sum method takes ~0.06-0.13 s at 500 (that
# build ~0.1 s, cesaro's float means ~0.13 s; abel's integer sum on alt-zeta:500 is ~0.3 ms
# of a ~0.06 s call); the build takes ~0.5 s at 1000
MAX_SERIES_EXPONENT = 500
# digits of N^(s + 1), above faulhaber's S_s(N): past CPython's default limit the int
# cannot be printed; ~0.3 s at s = 1000, N = 19,000 (4,283 digits)
MAX_RESULT_DIGITS = 4300
# extract and em-tail --s: past 260, zeta(-s) = -B_{s+1}/(s+1) is no longer a float64
MAX_EXTRACT_S = 260
# The caps of the exact poly:p sums: the drifts of extract's grid and em-tail's N, and the
# smoothed, grandi and scaling-demo sums at N (and N/2). (p + 1) (points + 1) Faulhaber
# sums (N_max/2 counted) x s + p + 1 terms x ceil((s + p + 1) log10 max(N_max, 10)) digits:
# --s 147 --cutoff poly:150 on README's grid (~0.25 s); --s 0 takes poly:236 there (~0.2 s).
# The sums read B_0 .. B_{s+p}, s + p at most MAX_BERNOULLI_INDEX.
MAX_FAULHABER_WORK = 906 * 298 * 955
# bump: digits d = 25 + ceil((s + 1) log10 N_max) of the drift (--s 84 on README's grid has
# 298, ~0.15 s), then floor(d^1.5) x the sum of ceil(N) over the points whose eta passes run
# (extract's N_max / 2 counted), a bound on the passes' work.  A term of a pass costs ~1.5 us
# at 31 digits, ~10 us at 190 and ~30-37 us at 298 (cold, in-process): ~d^1.5, and most per
# d^1.5 at both ends.  So the slowest calls under both caps sit at the ends, ~0.9 s each:
# --s 0 on the grid 1,2,3,400000 (31 digits, its N_max / 2 = 200,000 counted) and
# --s 84 on a grid of four separate passes near 1,600 (298 digits, ~20,000 terms).  The
# cap is --s 0 on the dyadic grid 40,000 .. 320,000, which shares one pass (~0.5 s).
MAX_BUMP_DIGITS = 298
MAX_BUMP_WORK = 172 * 600_000
# casimir and casimir-force on poly:p or the indicator (p = 0): d = digits of
# max(a, b)^(p + 3), L = N / lambda = a/b, at each exact u_t value (a for L >= 1, b = 2^e
# for L < 1).  A value's integers have about d digits and its cost grows about as d^2, so
# the cap is on the root of the sum of d^2 over the values: one value of 80,000 digits, or
# many smaller ones.  casimir-force --cutoff poly:996 --N 1e80 (79,920 digits in one value)
# takes ~0.5 s cold; casimir --cutoff indicator --N 1e300 --lambda 1e298 --levels 2000 (995
# values, root 17,513) ~0.1 s; the slowest found, casimir --cutoff poly:996 --lambda 1 from
# --N 10 * 2^56 down 57 levels (58 values, root 78,328), ~1.0 s
MAX_UT_DIGITS = 80_000


class UsageError(Exception):
    pass


def _check_cap(what: str, value: int, cap: int) -> None:
    if value > cap:
        raise UsageError(f"{what} = {value} exceeds the cap of {cap}")


def _check_faulhaber_caps(s: int, cutoff, points) -> None:
    """The caps on the exact sums of poly:p, and of the indicator as p = 0, at every N in
    ``points``, N_max / 2 counted."""
    terms = s + cutoff.p + 1
    digits = math.ceil(terms * Fraction(math.log10(max(max(points), 10))))  # exact at any --s
    _check_cap("Faulhaber work, sums x terms x digits",
               (cutoff.p + 1) * (len(points) + 1) * terms * digits, MAX_FAULHABER_WORK)
    _check_cap("Bernoulli index --s + poly order", s + cutoff.p, MAX_BERNOULLI_INDEX)


def _check_sum_caps(s: int, cutoff, N: float) -> None:
    """The caps of a smoothed sum to N (and N/2): those of the exact sums of poly:p and the
    indicator, and the start bits of the bump's eta pass, after its certain overflow (exit 1)."""
    from . import smoothed

    if cutoff.kind != "bump":
        _check_faulhaber_caps(s, cutoff, [N])
    else:
        _check_cap("bump sum fixed-point bits", smoothed._bump_sum_bits(s, N),
                   smoothed.MAX_SUM_BITS)


def _check_drift_caps(s: int, cutoff, points, halved: bool = False) -> None:
    """The caps on --s and on the work of the exact drift D(N) at every N in ``points``;
    ``halved``: the bump's drift also runs at N_max / 2, as ``constant_extraction`` does."""
    from .smoothed import working_digits

    _check_cap("--s", s, MAX_EXTRACT_S)
    n_max = max(points)
    if n_max > sys.float_info.max:  # em-tail's integer --N; extract's grid is float already
        raise UsageError(f"--N must be at most the largest float64, {sys.float_info.max:.6g}")
    if cutoff.kind == "poly":
        _check_faulhaber_caps(s, cutoff, points)
    else:
        digits = working_digits(s, n_max)
        _check_cap("bump drift digits", digits, MAX_BUMP_DIGITS)
        if halved and n_max / 2 not in points:
            points = [*points, n_max / 2]
        _check_cap("bump drift floor(digits^1.5) x sum of ceil(N)",
                   math.isqrt(digits**3) * sum(math.ceil(N) for N in points), MAX_BUMP_WORK)


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


def _float_at_least(lo: float):
    """argparse type of a float flag with lower bound ``lo``: finite and >= lo, else exit 2."""

    def parse(text: str) -> float:
        value = _finite_float(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo:g}, got {text!r}")
        return value

    return parse


def _unit_float(text: str) -> float:
    """argparse type of flat-check's --beta: a finite float in (0, 1), else exit 2."""
    value = _finite_float(text)
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text!r}")
    return value


def _unit_rational(text: str) -> str:
    """argparse type of truncate's --alpha: a rational in (0, 1) like 1/137 or 0.5, else exit 2.

    The text is kept as written for the config echo; the handler reads it as a Fraction.
    """
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"invalid rational value: {text!r}; expected one like 1/137 or 0.5") from None
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text!r}")
    return text


def _parse_grid(text: str):
    """Comma-separated grid points, each finite and > 0, else a usage error."""
    try:
        grid = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --grid {text!r}: expected comma-separated numbers") from exc
    if not all(math.isfinite(v) and v > 0 for v in grid):
        raise UsageError(f"bad --grid {text!r}: every point must be a finite number > 0")
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
        if family != "alt-zeta" or param == 1 or param > 2:
            raise UsageError("--method zeta-eta needs --series alt-zeta:s with s <= 2, s != 1 "
                             "(s = 1 is the pole of zeta)")
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
    _check_sum_caps(args.s, cutoff, args.N)
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
    _check_drift_caps(args.s, cutoff, grid, halved=True)
    fit = smoothed.constant_extraction(args.s, cutoff, grid)
    result = fit.to_json_dict()
    result["error_estimate"] = fit.error_estimate
    rows = [(N, r) for N, r in zip(fit.grid[:-1], fit.residuals)]
    return result, (("N", "residual"), rows)


def _cmd_grandi(args):
    from . import smoothed

    cutoff = _resolve_cutoff(args.cutoff)
    _check_sum_caps(0, cutoff, args.N)
    val, deviation = smoothed.grandi_with_deviation(cutoff, args.N)
    return ({"cutoff": cutoff.label, "N": args.N, "value": val,
             "deviation_from_half": deviation},
            (("cutoff", "N", "value"), [(cutoff.label, args.N, val)]))


def _cmd_scaling_demo(args):
    from . import smoothed

    cutoff = _resolve_cutoff(args.cutoff)
    _check_sum_caps(1, cutoff, args.N)
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
    _check_cap("--n", args.n, MAX_STIRLING_N)
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


def _make_casimir_config(args, scales) -> casimir.CasimirConfig:
    """The config of a plate-energy run whose u_t values are at the smoothing ``scales``.

    N / lambda must be finite at every scale.  The bump's u_t takes its expansion
    at 0 from N / lambda ~ 642 and sweeps fewer cells below, so it has no
    cap; the exact u_t of poly:p and of the indicator (p = 0) reads
    B_0 .. B_{p+4}, and the digits of its integers have a root sum of squares
    over the values of at most MAX_UT_DIGITS.
    """
    from . import casimir

    cutoff = _resolve_cutoff(args.cutoff)
    supports = [N / args.lam for N in scales]
    if math.isinf(max(supports)):
        raise UsageError(f"--N / --lambda = {max(supports)} is past float64 range")
    cfg = casimir.CasimirConfig(d=args.d, lam=args.lam, N=args.N, cutoff=cutoff,
                                quad_tol=args.quad_tol)
    if cutoff.kind == "bump":
        return cfg
    _check_cap("Bernoulli index poly order + 4", cutoff.p + 4, MAX_BERNOULLI_INDEX)
    squares = 0
    for L in supports:
        squares += math.ceil((cutoff.p + 3) * math.log10(max(L.as_integer_ratio()))) ** 2
    root = math.isqrt(squares)
    _check_cap("exact u_t digits (p + 3) log10 max(a, b) at each L = N / lambda = a/b, "
               "root sum of squares", root + (root * root < squares), MAX_UT_DIGITS)
    return cfg


def _plate_run(cutoff, compute):
    """``compute()``, with the library's refusal of a cutoff below C^5 in the CLI's terms."""
    try:
        return compute()
    except CutoffSmoothnessError as exc:
        raise CutoffSmoothnessError(
            f"cutoff {cutoff.label!r} is below C^5, which u_t needs: use --cutoff bump or "
            "poly:p with p >= 6; casimir --cutoff indicator runs the non-stabilizing contrast"
        ) from exc


def _cmd_casimir(args):
    from . import casimir

    cfg = _make_casimir_config(args, casimir.ladder_scales(args.N, args.levels))
    enforce = cfg.cutoff.kind != "indicator"
    ladder = _plate_run(cfg.cutoff, lambda: casimir.u_t_ladder(cfg, args.levels,
                                                               enforce_smoothness=enforce))
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

    cfg = _make_casimir_config(args, [args.N])
    force = _plate_run(cfg.cutoff, lambda: casimir.casimir_force(args.d, cfg))
    closed = casimir.closed_form_force(args.d)
    result = {"force": force, "closed_form": closed,
              "relative_error": abs(force - closed) / abs(closed)}
    return result, (("d", "force", "closed_form"), [(args.d, force, closed)])


def _cmd_truncate(args):
    from . import asymptotics

    alpha = Fraction(args.alpha)
    n_star = asymptotics.optimal_truncation(alpha)
    _check_cap("table rows floor(1/alpha) + 5", n_star + 5, MAX_TRUNCATE_ROWS)
    rows = []
    for n in range(1, n_star + 6):
        log10_term = (math.lgamma(n + 1) + n * math.log(float(alpha))) / math.log(10.0)
        rows.append((n, log10_term))
    return ({"alpha": _fmt(alpha), "n_star": n_star}, (("N", "log10_term"), rows))


def _borel_geometric(key: str, x: float, tol: float) -> float:
    """a_0 / (1 - r x), exact and rounded once, for a_n = a_0 r^n: a_0 is 0 for zero, else 1."""
    a0 = 0 if key == "zero" else 1
    if key in ("ones", "zero"):
        r = Fraction(1 if key == "ones" else 0)
    elif key.startswith("geometric:"):
        from .series import parse_key

        try:
            r = parse_key(key)[1]
        except KeyError as exc:
            raise UsageError(f"bad --coeffs {key!r}: r must be a rational like 1/2 or 0.5") from exc
    else:
        raise UsageError(
            f"unknown coefficient oracle {key!r}; grammar: ones | euler | zero | geometric:r")
    rx = r * Fraction(x)
    if rx >= 1:
        raise BorelSummabilityError(f"the Borel transform exp({float(r)} z) of {key!r} is not "
                                    f"integrable against exp(-z/{x})")
    # as on euler's quadrature path, an x whose 1/x or tol x / 2 leaves float64 range exits 1
    if math.isinf(1 / x) or tol * x / 2 == 0:
        raise NonFiniteResultError(f"borel at x = {x!r}, tol = {tol!r} leaves float64 range: "
                                   "1/x or tol x / 2")
    return to_floats([a0 / (1 - rx)], f"the Borel sum of {key!r} at x = {x!r} is")[0]


def _cmd_borel(args):
    key = args.coeffs
    if key == "euler":
        from . import asymptotics

        oracle = asymptotics.CoefficientOracle(
            a=lambda n: (-1.0) ** n * float(math.factorial(n)), label=key,
            borel_transform=lambda z: 1.0 / (1.0 + z))
        val = asymptotics.borel_sum(oracle, args.x, args.tol)
    else:
        val = _borel_geometric(key, args.x, args.tol)
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


def _flag(name: str, **kwargs):
    return name, kwargs


_GRID_HELP = ("comma-separated N: at least 4, increasing, all > 0, max >= 100 "
              "(a grid starting with a negative number is written --grid=-5,...)")
_PLATE_FLAGS = [
    _flag("--d", type=_positive_float, default=1e-6, help="plate separation (m)"),
    _flag("--N", type=_float_at_least(10), default=400.0),
    _flag("--cutoff", default="bump"),
    _flag("--lambda", dest="lam", type=_positive_float, default=1.0),
    _flag("--quad-tol", type=_positive_float, default=1e-9),
]
# name -> (help, handler, flags), in the order of the parser's choices
_SUBCOMMANDS = {
    "bernoulli": ("exact Bernoulli number B_k", _cmd_bernoulli,
                  [_flag("--k", type=_int_at_least(0), required=True)]),
    "faulhaber": ("exact power sum 1^s + ... + N^s", _cmd_faulhaber,
                  [_flag("--s", type=_int_at_least(0), required=True),
                   _flag("--N", type=_int_at_least(1), required=True)]),
    "sum": ("summability methods on a catalog series", _cmd_sum,
            [_flag("--method", choices=("cesaro", "abel", "ramanujan", "zeta-eta"),
                   required=True),
             _flag("--series", required=True, help=SERIES_GRAMMAR),
             _flag("--n", type=_int_at_least(2), default=10000, help="Cesaro window"),
             _flag("--tol", type=_positive_float, default=1e-3)]),
    "ledger": ("two-rule-set divergent series catalog", _cmd_ledger, []),
    "smoothed": ("smoothed monomial sum", _cmd_smoothed,
                 [_flag("--s", type=_int_at_least(0), required=True),
                  _flag("--cutoff", default="bump", help=CUTOFF_GRAMMAR),
                  _flag("--N", type=_float_at_least(1), required=True)]),
    "extract": ("constant extraction over an N grid", _cmd_extract,
                [_flag("--s", type=_int_at_least(0), required=True),
                 _flag("--cutoff", default="bump"),
                 _flag("--grid", default="100,200,400,800,1600", help=_GRID_HELP)]),
    "grandi": ("smoothed Grandi sum", _cmd_grandi,
               [_flag("--cutoff", default="bump"),
                _flag("--N", type=_float_at_least(1), default=1e4)]),
    "scaling-demo": ("smoothed sums are not scale invariant", _cmd_scaling_demo,
                     [_flag("--cutoff", default="bump"),
                      _flag("--N", type=_float_at_least(2), default=100.0)]),
    "delta-seq": ("Dirichlet kernel pairing", _cmd_delta_seq,
                  [_flag("--j", type=_int_at_least(1), required=True),
                   _flag("--testfn", default="centered", help="centered | offset"),
                   _flag("--tol", type=_positive_float, default=1e-10)]),
    "em-tail": ("Euler-Maclaurin tail identity", _cmd_em_tail,
                [_flag("--s", type=_int_at_least(1), required=True),
                 _flag("--cutoff", default="bump"),
                 _flag("--N", type=_int_at_least(1), required=True)]),
    "stirling": ("Stirling series vs the exact gap", _cmd_stirling,
                 [_flag("--n", type=_int_at_least(1), required=True),
                  _flag("--terms", type=_int_at_least(1), default=2),
                  _flag("--table", action="store_true", help="rows for all 2..n")]),
    "em-diverge": ("divergence onset of the Stirling series", _cmd_em_diverge,
                   [_flag("--n", type=_int_at_least(1), required=True),
                    _flag("--max-terms", type=_int_at_least(2), default=60)]),
    "casimir": ("smoothed plate energy", _cmd_casimir,
                [*_PLATE_FLAGS,
                 _flag("--levels", type=_int_at_least(1), default=4,
                       help="N-halving rows in the convergence table")]),
    "casimir-force": ("plate force per unit area, 3 E / d", _cmd_casimir_force, _PLATE_FLAGS),
    "truncate": ("optimal truncation scan of N! alpha^N", _cmd_truncate,
                 [_flag("--alpha", type=_unit_rational, required=True,
                        help="rational in (0,1), e.g. 1/137")]),
    "borel": ("Borel summation", _cmd_borel,
              [_flag("--coeffs", required=True, help="ones | euler | zero | geometric:r"),
               _flag("--x", type=_positive_float, required=True),
               _flag("--tol", type=_positive_float, default=1e-9)]),
    "gyro": ("gyromagnetic anomaly partial sums", _cmd_gyro,
             [_flag("--alpha", type=_float_at_least(0), required=True),
              _flag("--order", type=int, choices=(1, 2), required=True)]),
    "flat-check": ("right derivatives of exp(-z^-beta) at 0", _cmd_flat_check,
                   [_flag("--beta", type=_unit_float, required=True),
                    _flag("--n", type=_int_at_least(0), default=1),
                    _flag("--grid", default="1e-2,1e-3,1e-4,1e-5,1e-6")]),
}


class _FullParserNeeded(Exception):
    """A top-level parse error of a one-subcommand parser, whose usage lists one choice."""


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser with every subcommand, or with ``only`` that one (``run``).

    A one-subcommand parser raises _FullParserNeeded where the full one would print a
    top-level error, whose usage line lists every subcommand.
    """
    ap = argparse.ArgumentParser(
        prog="summa",
        description="Summability methods for divergent series, smoothed sums, "
                    "and the parallel-plate Casimir energy.",
    )
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    ap.add_argument("--output", default=None, help="write to file instead of stdout")
    sub = ap.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, handler, flags) in _SUBCOMMANDS.items():
        if only is None or name == only:
            p = sub.add_parser(name, help=help_text)
            for flag, kwargs in flags:
                p.add_argument(flag, **kwargs)
            p.set_defaults(handler=handler)
    if only is not None:
        def error(message):
            raise _FullParserNeeded(message)

        ap.error = error
    return ap


def _named_subcommand(argv):
    """The subcommand ``argv`` names after the top-level --format and --output, or None
    where the full parser must read it: a help flag anywhere, another option first, or no
    known subcommand."""
    if any(token.startswith(("-h", "--h")) for token in argv):
        return None
    tokens = iter(argv)
    for token in tokens:
        if token in ("--format", "--output"):
            next(tokens, None)
        elif not token.startswith(("--format=", "--output=")):
            return token if token in _SUBCOMMANDS else None
    return None


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
        import json

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
    argv = list(argv)
    try:
        try:
            args = build_parser(_named_subcommand(argv)).parse_args(argv)
        except _FullParserNeeded:
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result, csv_block = args.handler(args)
        _check_finite(result, csv_block)
        text = _emit(args, result, csv_block)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SummaError as exc:
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
