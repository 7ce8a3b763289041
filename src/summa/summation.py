"""Classical summability methods and the two-rule-set inconsistency ledger.

Methods: exact partial sums, Cesaro averaging of partial sums, Abel limits
lim_{t->1-} sum a_n t^n, and the closed-form zeta-regularized value for
monomial series,

    1^s + 2^s + 3^s + ...  |->  -B_{s+1} / (s + 1).

``inconsistency_ledger`` evaluates the classic catalog of divergent-series
identities under two incompatible rule sets and flags where naive term
algebra contradicts position-aware analytic continuation.

Abel values are exact rationals where the series has a closed form, and the
convergent alternating sums (alt-zeta:s, s >= 1) are correctly rounded, from
an integer Cohen-Rodriguez Villegas-Zagier sum.  numpy is imported in
``cesaro_sum`` only, so every other path runs without it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple, Union

from .errors import NonFiniteResultError
from .exact import bernoulli
from .series import SeriesOracle, get_series

__all__ = [
    "SummationOutcome",
    "partial_sum",
    "cesaro_sum",
    "abel_sum",
    "ramanujan_monomial",
    "zeta_via_eta",
    "LedgerRow",
    "inconsistency_ledger",
]

FINITE = "finite"
DIVERGENT = "divergent"
OSCILLATING = "oscillating-no-limit"


class _OutcomeFields(NamedTuple):
    method: str
    verdict: str
    value: Union[float, Fraction, None]
    error_estimate: Optional[float]
    diagnostics: Optional[dict] = None


class SummationOutcome(_OutcomeFields):
    """One method's verdict on a series; ``diagnostics`` is a fresh dict when not given.

    The checks run in ``__new__``, and ``_make`` (so ``_replace`` too) goes through it.
    """

    __slots__ = ()

    def __new__(cls, method, verdict, value, error_estimate, diagnostics=None):
        if verdict not in (FINITE, DIVERGENT, OSCILLATING):
            raise ValueError(f"unknown verdict {verdict!r}")
        if verdict == FINITE and error_estimate is None:
            raise ValueError("a finite verdict must carry an error estimate")
        return super().__new__(cls, method, verdict, value, error_estimate,
                               {} if diagnostics is None else diagnostics)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def partial_sum(series: SeriesOracle, N: int) -> Fraction:
    """Exact partial sum a_1 + ... + a_N."""
    if N < 1:
        raise ValueError(f"partial_sum requires N >= 1, got {N}")
    acc = Fraction(0)
    for n in range(1, N + 1):
        acc += series.term_exact(n)
    return acc


def cesaro_sum(series: SeriesOracle, n: int, tol: float = 1e-3) -> SummationOutcome:
    """(C, 1) mean of the partial sums P_0 .. P_n, with P_0 := 0.

    The series here start at n = 1, so the zeroth partial sum is defined as 0;
    that keeps the averaging count n + 1 without inventing an a_0 term.
    Stabilization test: the mean over the last quarter of the window must
    agree with the full mean within 10 * tol, else the verdict is
    oscillating-no-limit.  Monotone blow-up of the running means is reported
    as divergent.  Terms or sums past float64 range raise
    :class:`NonFiniteResultError`.
    """
    import numpy as np

    if n < 2:
        raise ValueError(f"cesaro_sum requires n >= 2, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.asarray(series.term_array(np.arange(1, n + 1, dtype=float)), dtype=float)
        partials = np.concatenate([[0.0], np.cumsum(terms)])  # P_0 .. P_n
        means = np.cumsum(partials) / np.arange(1, n + 2, dtype=float)  # running (C,1) means
    full = float(means[-1])
    if not math.isfinite(full):  # a non-finite term or sum carries through both cumsums
        raise NonFiniteResultError(f"the Cesaro means of {series.label} over n = {n} "
                                   "leave float64 range")
    half = float(means[(n + 1) // 2])
    window = means[-max(2, (n + 1) // 4):]
    drift = float(np.max(np.abs(window - full)))
    diag = {"n": n, "half_window_mean": half, "last_quarter_drift": drift}
    if abs(full) > 10.0 and abs(full) >= 1.5 * abs(half) and full * half > 0:
        return SummationOutcome("cesaro", DIVERGENT, None, None, diag)
    if drift <= 10.0 * tol:
        return SummationOutcome("cesaro", FINITE, full, drift, diag)
    return SummationOutcome("cesaro", OSCILLATING, None, None, diag)


def _crvz_ball(term, W: int, n: Optional[int] = None) -> Tuple[int, int]:
    """(T, E) with |S 2^W - T| <= E for the sum S of the exact ``term(k)``, k >= 1, of an
    alternating series whose |term(k)| are the moments of a positive measure on [0, 1]:
    Algorithm 1 of Cohen, Rodriguez Villegas and Zagier (2000).

    With d_n = T_n(3) = 6 d_(n-1) - d_(n-2) and the integers c_k of T_n(1 - 2x),
    sum_{k<n} |c_k| term(k+1) / d_n is within |S| / d_n <= |term(1)| / d_n of S; n is the
    least with d_n >= 2^W unless given.  The n floored terms (|c_k| term 2^W) // den lose
    under n / d_n < 1 unit, and the last floor, by d_n, under one more.
    """
    d_prev, d, m = 3, 1, 0  # T_(m-1)(3), T_m(3)
    while d < 1 << W if n is None else m < n:
        d_prev, d, m = d, 6 * d - d_prev, m + 1
    b, c, total = -1, -d, 0
    for k in range(m):
        c = b - c
        a = term(k + 1)
        total += (abs(c) * a.numerator << W) // a.denominator
        b = 2 * (k + m) * (k - m) * b // ((2 * k + 1) * (k + 1))
    a1 = abs(term(1))
    return total // d, -(-(a1.numerator << W) // (d * a1.denominator)) + 2


def abel_sum(series: SeriesOracle) -> SummationOutcome:
    """Abel sum lim_{t->1-} sum a_n t^n, read at t = 1.

    Every closed form in the catalog is a rational function of t, so the
    limit is its exact value at t = 1 (error 0); a pole there
    (``ZeroDivisionError``) is the divergent verdict, and a power series of
    radius below 1 raises :class:`AbelInnerSeriesError` from the closed
    form.  The series without one, the convergent alt-zeta:s with s >= 1, are
    summed directly (by Abel's theorem their Abel sum is their sum): the
    ``_crvz_ball`` of the exact terms, correctly rounded by rising precision
    from 64 bits, with half an ulp as its error.  A sum that needs more than
    4,096 bits, such as one on a rounding midpoint, raises PrecisionCapError.
    """
    if series.abel_closed_form is None:
        from ._fixed import round_rising

        value, = round_rising(lambda W: [_crvz_ball(series.term_exact, W)], 64,
                              f"the Abel sum of {series.label}", 4096)
        return SummationOutcome("abel", FINITE, value, math.ulp(value) / 2)
    try:
        value = series.abel_closed_form(Fraction(1))
    except ZeroDivisionError:
        return SummationOutcome("abel", DIVERGENT, None, None)
    return SummationOutcome("abel", FINITE, value, 0.0)


def ramanujan_monomial(s: int) -> Fraction:
    """Zeta-regularized value of 1^s + 2^s + ...: exactly -B_{s+1}/(s+1)."""
    if s < 0:
        raise ValueError(f"ramanujan_monomial requires s >= 0, got {s}")
    return -bernoulli(s + 1) / (s + 1)


def zeta_via_eta(s: int) -> SummationOutcome:
    """zeta(s) through the alternating-series identity for integer s <= 2, s != 1.

    zeta(s) = (1 - 2^(1-s))^-1 * eta(s), with eta(s) = sum (-1)^(n-1) n^-s
    the Abel sum of alt-zeta:s: exact for s <= 0, and at s = 2 the correctly
    rounded eta(2) times the factor 2, exact, so pi^2/6 correctly rounded.
    """
    if s == 1:
        raise ValueError("s = 1 is the pole of zeta")
    if s > 2:
        raise ValueError(f"this identity route is wired for integer s <= 2, got {s}")
    factor = 1 / (1 - Fraction(2) ** (1 - s))
    eta = abel_sum(get_series(f"alt-zeta:{s}"))
    return SummationOutcome("zeta-eta", FINITE, factor * eta.value,
                            abs(float(factor)) * eta.error_estimate,
                            {"s": s, "factor": str(factor)})


class LedgerRow(NamedTuple):
    identity: str
    rule_a: Optional[Fraction]
    rule_b: Optional[Fraction]
    clash: bool


class LedgerReport(NamedTuple):
    rows: List[LedgerRow]

    def by_identity(self, name: str) -> LedgerRow:
        for row in self.rows:
            if row.identity == name:
                return row
        raise KeyError(name)

    @property
    def clashes(self) -> List[LedgerRow]:
        return [r for r in self.rows if r.clash]


def inconsistency_ledger() -> LedgerReport:
    """Evaluate the divergent-series catalog under two rule sets, exactly.

    Rule set A applies naive term algebra (scalar multiples, term-by-term
    sums) to the zeta-regularized monomial values.  Rule set B is
    position-aware: the odd/even subseries are read as their zero-interleaved
    forms 1+0+3+0+... and 0+2+0+4+..., whose Dirichlet closed forms at
    s = -1 are (1 - 2^-s) zeta(s) and 2^-s zeta(s).

    Both rule sets then evaluate the same nominal series
    S1' = -(1/3)(1 - 2 + 3 - 4 + ...); A yields -1/6, B yields -1/12, and
    only the latter agrees with the regularized S1.  That single clash is
    flagged.
    """
    s0 = ramanujan_monomial(0)   # -1/2
    s1 = ramanujan_monomial(1)   # -1/12
    zeta_m1 = s1                 # zeta(-1)

    evens_a = 2 * s1                         # 2+4+6+...          (2.16)
    odds_a = 2 * s1 - s0                     # 1+3+5+...          (2.17)
    s1_prime_a = Fraction(-1, 3) * (odds_a - evens_a)   # (2.18)-(2.19)

    odds_b = (1 - Fraction(2) ** 1) * zeta_m1   # 1+0+3+0+... = (1-2^-s) zeta(s), s=-1
    evens_b = Fraction(2) ** 1 * zeta_m1        # 0+2+0+4+... = 2^-s zeta(s), s=-1
    s1_dprime_b = Fraction(-1, 3) * (odds_b - evens_b)

    def row(identity, a, b):
        return LedgerRow(identity, a, b, a is not None and b is not None and a != b)

    return LedgerReport(
        rows=[
            row("S0 = 1+1+1+...", s0, s0),
            row("S1 = 1+2+3+...", s1, s1),
            row("2+4+6+...", evens_a, None),
            row("1+3+5+...", odds_a, None),
            row("0+2+0+4+...", None, evens_b),
            row("1+0+3+0+...", None, odds_b),
            row("S1' = -(1/3)(1-2+3-4+...)", s1_prime_a, s1_dprime_b),
        ]
    )
