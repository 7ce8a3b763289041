"""Classical summability methods and the two-rule-set inconsistency ledger.

Methods: exact partial sums, Cesaro averaging of partial sums, Abel limits
(here also called Euler sums: lim_{t->1-} sum a_n t^n), and the closed-form
zeta-regularized value for monomial series,

    1^s + 2^s + 3^s + ...  |->  -B_{s+1} / (s + 1).

``inconsistency_ledger`` evaluates the classic catalog of divergent-series
identities under two incompatible rule sets and flags where naive term
algebra contradicts position-aware analytic continuation.

numpy is imported in the float paths only (``cesaro_sum``, the direct
power-series sums of ``abel_sum`` and the convergent eta sum), so the exact
paths run without it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Union

from .errors import AbelInnerSeriesError, NonFiniteResultError
from .exact import bernoulli
from .series import SeriesOracle, get_series

__all__ = [
    "SummationOutcome",
    "partial_sum",
    "cesaro_sum",
    "abel_sum",
    "euler_sum",
    "default_abel_schedule",
    "ramanujan_monomial",
    "zeta_via_eta",
    "LedgerRow",
    "inconsistency_ledger",
]

FINITE = "finite"
DIVERGENT = "divergent"
OSCILLATING = "oscillating-no-limit"


@dataclass(frozen=True)
class SummationOutcome:
    method: str
    verdict: str
    value: Union[float, Fraction, None]
    error_estimate: Optional[float]
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in (FINITE, DIVERGENT, OSCILLATING):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == FINITE and self.error_estimate is None:
            raise ValueError("a finite verdict must carry an error estimate")


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


# abel_sum: the magnitude past which values growing along the schedule are divergent,
# and the tail tolerance and term budget of a direct power-series sum
_ABEL_CAP = 1e12
_INNER_TOL = 1e-12
_TERM_BUDGET = 50_000_000


def default_abel_schedule(k_min: int = 3, k_max: int = 20) -> List[Fraction]:
    """t_k = 1 - 2^-k; dyadic rationals, so closed forms evaluate exactly."""
    return [Fraction(1) - Fraction(1, 2**k) for k in range(k_min, k_max + 1)]


def _power_series_value(series: SeriesOracle, t: float) -> float:
    """sum a_n t^n by chunked direct summation with a geometric tail bound."""
    import numpy as np

    chunk = 1 << 16
    total = 0.0
    n0 = 1
    prev_max = math.inf
    below = 0
    threshold = _INNER_TOL * (1.0 - t) / 4.0
    while n0 <= _TERM_BUDGET:
        n = np.arange(n0, n0 + chunk, dtype=float)
        vals = np.asarray(series.term_array(n), dtype=float) * np.power(t, n)
        total += float(vals.sum())
        mx = float(np.max(np.abs(vals)))
        if not math.isfinite(mx) or (mx > 4.0 * prev_max and mx > 1e6):
            raise AbelInnerSeriesError(
                f"power series terms grow at t = {t!r}; series not summable there"
            )
        below = below + 1 if mx < threshold else 0
        if below >= 2:
            return total
        prev_max = max(mx, 1e-300)
        n0 += chunk
    raise AbelInnerSeriesError(
        f"power series at t = {t!r} did not converge within {_TERM_BUDGET} terms"
    )


def _richardson_limit(vals: Sequence[float]):
    """Extrapolate f(1 - 2^-k) in powers of (1-t), two elimination levels."""
    t0 = list(vals)
    levels = [t0]
    for order in (1, 2):
        prev = levels[-1]
        if len(prev) < 2:
            break
        fac = 2.0**order
        levels.append([(fac * prev[i + 1] - prev[i]) / (fac - 1.0) for i in range(len(prev) - 1)])
    top = levels[-1]
    est = top[-1]
    err = abs(top[-1] - top[-2]) if len(top) >= 2 else abs(est)
    return est, err


def abel_sum(series: SeriesOracle, schedule: Optional[Sequence] = None) -> SummationOutcome:
    """Abel (Euler) sum: extrapolate f(t) = sum a_n t^n to t -> 1-.

    The schedule must increase towards 1 from below; the default is
    t_k = 1 - 2^-k for k = 3..20.  Closed-form generating functions are used
    when the oracle carries one (exact at dyadic t); otherwise chunked direct
    summation with a tail bound, whose failure raises
    :class:`AbelInnerSeriesError` rather than producing a divergent verdict.
    Values growing monotonically along the schedule (beyond 1e12, or
    defeating extrapolation) give the divergent verdict.  A closed-form value
    past float64 range raises :class:`NonFiniteResultError` at the first t
    where it rounds to no float.
    """
    if schedule is None:
        schedule = default_abel_schedule()
    schedule = list(schedule)
    if len(schedule) < 3:
        raise ValueError("abel_sum needs a schedule of at least 3 points")
    floats = [float(t) for t in schedule]
    if any(not (0.0 < t < 1.0) for t in floats) or any(
        b <= a for a, b in zip(floats, floats[1:])
    ):
        raise ValueError("schedule must be strictly increasing inside (0, 1)")

    vals: List[float] = []
    for t in schedule:
        if series.abel_closed_form is not None:
            try:
                vals.append(float(series.abel_closed_form(Fraction(t))))
            except ZeroDivisionError as exc:
                raise AbelInnerSeriesError(str(exc)) from exc
            except OverflowError as exc:
                raise NonFiniteResultError(f"the closed form of {series.label} at t = {t} "
                                           "is past float64 range") from exc
        else:
            vals.append(_power_series_value(series, float(t)))

    mags = [abs(v) for v in vals]
    growing = len(vals) >= 5 and all(b > a for a, b in zip(mags[-5:], mags[-4:]))
    diag = {"schedule": floats, "values_tail": vals[-4:]}
    if growing and mags[-1] > _ABEL_CAP:
        return SummationOutcome("abel", DIVERGENT, None, None, diag)
    est, err = _richardson_limit(vals)
    diag["extrapolation_error"] = err
    if err <= max(1e-8, 1e-8 * abs(est)):
        return SummationOutcome("abel", FINITE, est, err, diag)
    if growing:
        return SummationOutcome("abel", DIVERGENT, None, None, diag)
    return SummationOutcome("abel", OSCILLATING, None, None, diag)


# historical alias: this limit construction is often named after Euler when
# applied to divergent series; both names address the same operation
euler_sum = abel_sum


def ramanujan_monomial(s: int) -> Fraction:
    """Zeta-regularized value of 1^s + 2^s + ...: exactly -B_{s+1}/(s+1)."""
    if s < 0:
        raise ValueError(f"ramanujan_monomial requires s >= 0, got {s}")
    return -bernoulli(s + 1) / (s + 1)


_ETA_TERMS = 200_000  # terms of the direct eta(s) sum, s >= 2


def _eta_direct(s: int) -> tuple[float, float]:
    """Convergent alternating sum((-1)^(n-1) n^-s) for s >= 2, accelerated.

    The terms are the alt-zeta:s series' own.  Averaging the last two
    partial sums knocks the error down to the first difference of the term
    magnitudes.
    """
    import numpy as np

    vals = get_series(f"alt-zeta:{s}").term_array(np.arange(1, _ETA_TERMS + 1, dtype=float))
    partial = float(vals.sum())
    prev = partial - float(vals[-1])
    est = 0.5 * (partial + prev)
    err = abs(_ETA_TERMS ** (-float(s)) - (_ETA_TERMS + 1.0) ** (-float(s)))
    return est, err


def zeta_via_eta(s: int) -> SummationOutcome:
    """zeta(s) through the alternating-series identity for integer s <= 2, s != 1.

    zeta(s) = (1 - 2^(1-s))^-1 * sum (-1)^(n-1) n^-s, with the alternating
    series summed directly for s = 2 (convergent) and Abel-extrapolated for
    s <= 0 (divergent alternating monomials with exact closed forms).
    """
    if s == 1:
        raise ValueError("s = 1 is the pole of zeta")
    if s > 2:
        raise ValueError(f"this identity route is wired for integer s <= 2, got {s}")
    factor = Fraction(1) / (1 - Fraction(2) ** (1 - s))
    if s == 2:
        eta_val, eta_err = _eta_direct(s)
        value = float(factor) * eta_val
        return SummationOutcome(
            "zeta-eta", FINITE, value, abs(float(factor)) * eta_err,
            {"s": s, "route": "direct-convergent"},
        )
    inner = abel_sum(get_series(f"alt-zeta:{s}"))
    if inner.verdict != FINITE:
        return SummationOutcome("zeta-eta", inner.verdict, None, None, {"s": s})
    value = float(factor) * inner.value
    err = abs(float(factor)) * (inner.error_estimate or 0.0)
    return SummationOutcome(
        "zeta-eta", FINITE, value, err, {"s": s, "route": "abel", "factor": str(factor)}
    )


@dataclass(frozen=True)
class LedgerRow:
    identity: str
    rule_a: Optional[Fraction]
    rule_b: Optional[Fraction]
    clash: bool


@dataclass(frozen=True)
class LedgerReport:
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
