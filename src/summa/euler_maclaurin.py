"""Euler-Maclaurin machinery: the tail identity, Stirling series, divergence.

The tail identity, for f at least C^(s+2) vanishing with its derivatives up
to order s+1 at the support end N, reads

    integral_0^N f - f(0)/2 - sum_{n=1}^N f(n)
        = sum_{k=2}^{s+1} (B_k / k!) f^(k-1)(0)  +  O(N ||f||_{C^{s+2}}).

``em_tail`` evaluates both sides and their residual for f(x) = x^s eta(x/N),
whose series is the single term B_{s+1}/(s+1) and whose lhs is minus the
exact drift of ``smoothed.drifts``; ``monomial_cutoff_deriv`` gives the
derivatives of that f.  The Stirling instance (f = log x) gives the classic
series

    g(n) := log n! - (n + 1/2) log n + n - (1/2) log 2pi
          = sum_m B_{2m} / (2m (2m-1) n^{2m-1}) + remainder,

with the remainder bounded by the magnitude of the first omitted term
(|B_{2T+2}| / ((2T+1)(2T+2) n^{2T+1})).  For fixed n the terms eventually
grow -- the series diverges -- and ``em_divergence_demo`` locates the first
growth index by exact rational scan.

Note on orientation: one classical presentation writes the sum-minus-integral
combination with the constant +log(2pi)/2 folded in on the other side; here
g(n) is normalized so that it *equals* the Bernoulli series above (g -> 0 is
Stirling's approximation).  One canonical internal form avoids sign bugs.

numpy and ``smoothed`` are imported where they are used
(``monomial_cutoff_deriv``, ``em_tail`` and ``sup_norm_check``), so the
Stirling series and the divergence scan run without them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Tuple

from .errors import GrowthNotFoundError
from .exact import bernoulli, to_floats

if TYPE_CHECKING:
    from .cutoffs import Cutoff

__all__ = [
    "monomial_cutoff_deriv",
    "EmTailResult",
    "em_tail",
    "sup_norm_check",
    "stirling_g",
    "stirling_g_mp",
    "StirlingSeries",
    "stirling_series",
    "stirling_series_exact",
    "stirling_gap",
    "DivergenceScan",
    "em_divergence_demo",
]


def monomial_cutoff_deriv(s: int, cutoff: Cutoff, N: float, m: int, x):
    """m-th derivative of f(x) = x^s * eta(x/N) at the points x, by the Leibniz rule.

    f^(m)(x) = sum_{j<=min(m,s)} C(m,j) s!/(s-j)! x^(s-j) eta^(m-j)(x/N) / N^(m-j).
    """
    import numpy as np

    N = float(N)
    x = np.asarray(x, dtype=float)
    if m == 0:
        return x**s * cutoff.eval(x / N)
    x = np.atleast_1d(x)
    acc = np.zeros_like(x)
    for j in range(0, min(m, s) + 1):
        c = math.comb(m, j) * math.factorial(s) // math.factorial(s - j)
        acc = acc + c * x ** (s - j) * cutoff.deriv(m - j, x / N) / N ** (m - j)
    return acc


class EmTailResult(NamedTuple):
    lhs: float
    series: float
    residual: float


def em_tail(s: int, cutoff: Cutoff, N: int) -> EmTailResult:
    """Both sides of the tail identity for f(x) = x^s eta(x/N), and their residual.

    lhs = integral_0^N f - sum_{n=1}^N f(n) = -D(N), the exact drift of
    ``smoothed.drifts`` (f(0) = f(N) = 0); series = B_{s+1}/(s+1), the one
    k = s + 1 term, since f^(k-1)(0) = 0 for k <= s and f^(s)(0) = s!.  The
    residual -(D(N) + B_{s+1}/(s+1)) = O(N ||f||_{C^{s+2}}) is taken exactly,
    and each value is rounded once (past float64 range: NonFiniteResultError).
    """
    from . import smoothed

    if s < 1 or N < 1 or N != int(N):
        raise ValueError(f"em_tail requires s >= 1 and integer N >= 1, got s = {s}, N = {N}")
    cutoff.require_smoothness(s + 2, "the Euler-Maclaurin tail identity")
    term = bernoulli(s + 1) / (s + 1)
    series, = to_floats([term], f"the series B_{s + 1}/{s + 1} is")  # before the drift's work
    drift, = smoothed.drifts(s, cutoff, [N])
    lhs, residual = to_floats([-drift, -(drift + term)],
                              f"the tail identity at s = {s}, N = {N} is")
    return EmTailResult(lhs, series, residual)


_SUP_NORM_SAMPLES = 4097


def sup_norm_check(s: int, cutoff: Cutoff, N: float) -> float:
    """Grid-sampled sup of |d^(s+2)/dx^(s+2) [x^s eta(x/N)]| over the support.

    Scales as 1/N^2 (doubling N divides it by ~4): every Leibniz term carries
    at least two powers of 1/N once x ~ N is factored out.  At s = 2, with
    the plate support end N/lam as N, this is sup |F^(5)| of ``casimir``.
    """
    import numpy as np

    cutoff.require_smoothness(s + 2, "the sup-norm bound")
    xs = np.linspace(0.0, float(N), _SUP_NORM_SAMPLES)
    return float(np.max(np.abs(monomial_cutoff_deriv(s, cutoff, N, s + 2, xs))))


_DPS = 50  # working digits of the Stirling gap


def stirling_g_mp(n: int):
    """g(n) = log n! - (n + 1/2) log n + n - log(2pi)/2 as a 50-digit mpmath value.

    log n! is mpmath's loggamma(n + 1), O(1) in n; the combination cancels
    ~log10(n^2) digits, which is why a float64 version cannot feed the
    remainder-bound checks.
    """
    import mpmath as mp

    if n < 1:
        raise ValueError(f"stirling_g requires n >= 1, got {n}")
    with mp.workdps(_DPS):
        g = mp.loggamma(n + 1) - (mp.mpf(n) + mp.mpf(1) / 2) * mp.log(n) + n - mp.log(2 * mp.pi) / 2
        return +g


def stirling_g(n: int) -> float:
    """Float value of the Stirling gap g(n); g(n) -> 0 is Stirling's formula."""
    return float(stirling_g_mp(n))


class StirlingSeries(NamedTuple):
    value: float
    bound: float


def stirling_term(n: int, m: int) -> Fraction:
    """Exact m-th Stirling-series term B_{2m} / (2m (2m-1) n^{2m-1})."""
    return bernoulli(2 * m) / (2 * m * (2 * m - 1) * Fraction(n) ** (2 * m - 1))


def stirling_series_exact(n: int, terms: int) -> Tuple[Fraction, Fraction]:
    """Exact partial sum of the Stirling series and the remainder bound.

    value = sum_{m=1}^{terms} B_{2m} / (2m (2m-1) n^{2m-1});
    bound = |B_{2 terms + 2}| / ((2 terms + 1)(2 terms + 2) n^{2 terms + 1}).
    """
    if n < 1:
        raise ValueError(f"stirling_series requires n >= 1, got {n}")
    if terms < 1:
        raise ValueError(f"stirling_series requires terms >= 1, got {terms}")
    value = sum(stirling_term(n, m) for m in range(1, terms + 1))
    return value, abs(stirling_term(n, terms + 1))


def stirling_series(n: int, terms: int) -> StirlingSeries:
    """``stirling_series_exact`` as floats, each rounded once by ``to_floats``."""
    value, bound = stirling_series_exact(n, terms)
    return StirlingSeries(*to_floats([value, bound], f"the Stirling series at n = {n} with "
                                     f"{terms} terms is"))


def stirling_gap(n: int, terms: int) -> float:
    """|stirling_g(n) - series(n, terms)| with the difference taken in mpmath.

    The bounds being checked reach below float64 resolution of g(n) itself
    (e.g. ~4e-19 at n = 50, terms = 4), so the subtraction must happen before
    any rounding to float.
    """
    import mpmath as mp

    value, _ = stirling_series_exact(n, terms)
    with mp.workdps(_DPS):
        gap = abs(stirling_g_mp(n) - mp.mpf(value.numerator) / value.denominator)
        return float(gap)


class DivergenceScan(NamedTuple):
    m_star: int
    terms: Tuple[Fraction, ...]


def em_divergence_demo(n: int, max_terms: int) -> DivergenceScan:
    """Locate the first index where the Stirling terms start growing.

    Returns m_star, the smallest m >= 2 with |term_m| > |term_{m-1}|, plus
    the exact terms scanned -- the concrete witness that the Euler-Maclaurin
    series diverges for fixed n.  Raises ``GrowthNotFoundError`` when no
    growth shows up within ``max_terms`` (increase max_terms).
    """
    if n < 1:
        raise ValueError(f"em_divergence_demo requires n >= 1, got {n}")
    if max_terms < 2:
        raise ValueError(f"max_terms must be >= 2, got {max_terms}")
    terms = [stirling_term(n, 1)]
    for m in range(2, max_terms + 1):
        terms.append(stirling_term(n, m))
        if abs(terms[-1]) > abs(terms[-2]):
            return DivergenceScan(m, tuple(terms))
    raise GrowthNotFoundError(
        f"no term growth within {max_terms} terms at n = {n}; increase max_terms"
    )
