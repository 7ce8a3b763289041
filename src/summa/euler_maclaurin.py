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
growth index by exact rational scan.  g(n) itself is computed on the same
exact backbone, as an integer with an error bound (``stirling_g_fixed``):
``stirling_g`` rounds it correctly and ``stirling_gap`` subtracts the exact
partial sum from it, so no extended-precision library is involved.

Note on orientation: one classical presentation writes the sum-minus-integral
combination with the constant +log(2pi)/2 folded in on the other side; here
g(n) is normalized so that it *equals* the Bernoulli series above (g -> 0 is
Stirling's approximation).  One canonical internal form avoids sign bugs.

numpy and ``smoothed`` are imported where they are used
(``monomial_cutoff_deriv`` and ``em_tail``), so the Stirling functions and
the divergence scan run on ``exact`` alone.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Tuple

from .errors import GrowthNotFoundError
from .exact import bernoulli, bernoulli_integers, to_floats

if TYPE_CHECKING:
    from .cutoffs import Cutoff

__all__ = [
    "monomial_cutoff_deriv",
    "EmTailResult",
    "em_tail",
    "stirling_g_fixed",
    "stirling_g",
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


def stirling_g_fixed(n: int, P: int) -> Tuple[int, int]:
    """g(n) in fixed point: (G, E) with |g(n) - G 2^-P| <= E 2^-P, in integer arithmetic.

    The series is summed at M = max(n, ceil(P ln2 / 2pi)), where its least
    term, ~e^(-2 pi M), is below one unit: each term is one integer division
    by the exact Bernoulli number, the sum stops before the first term below
    one unit, and that term bounds the remainder (DLMF 5.11.ii).  Then
    g(k) = g(k+1) + (2k+1) atanh(1/(2k+1)) - 1 steps down to n, the step
    being the positive series sum_{j>=1} 1/((2j+1)(2k+1)^(2j)), summed in
    floored units until a term floors to 0; the geometric tail is then below
    9/8 unit.  E counts one unit per floored term plus those tail bounds.
    """
    if n < 1:
        raise ValueError(f"stirling_g requires n >= 1, got {n}")
    M = max(n, math.ceil(P * math.log(2) / (2 * math.pi)))
    G = E = 0
    m, power = 1, M  # M^(2m - 1)
    while True:
        b = bernoulli(2 * m)
        den = b.denominator * 2 * m * (2 * m - 1) * power
        if abs(b.numerator) << P < den:
            break
        G += (b.numerator << P) // den
        m, power, E = m + 1, power * M * M, E + 1
    E += 1  # the first omitted term
    one = 1 << P
    for k in range(M - 1, n - 1, -1):
        x2 = (2 * k + 1) ** 2
        j, power = 1, x2
        while t := one // ((2 * j + 1) * power):
            G += t
            j, power, E = j + 1, power * x2, E + 1
        E += 2  # the tail
    return G, E


def stirling_g(n: int) -> float:
    """g(n) rounded once to float64: correctly rounded, at any n >= 1.

    ``stirling_g_fixed`` runs at 10 guard bits past 2^-70 g (g > 1/(12n + 1)),
    and at twice the bits while its interval straddles a rounding boundary
    (``_fixed.round_rising``).
    """
    from ._fixed import round_rising

    return round_rising(lambda P: [stirling_g_fixed(n, P)], 80 + (12 * n + 1).bit_length(),
                        f"g({n}) is")[0]


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
    The value is one integer numerator over D L n^(2 terms - 1), with D the
    Bernoulli denominator of ``bernoulli_integers`` and L = lcm 2m(2m-1),
    built by Horner's rule in n^2 and reduced once.
    """
    if n < 1:
        raise ValueError(f"stirling_series requires n >= 1, got {n}")
    if terms < 1:
        raise ValueError(f"stirling_series requires terms >= 1, got {terms}")
    D, beta = bernoulli_integers(2 * terms + 2)  # one table fill for the value and the bound
    L = math.lcm(*(2 * m * (2 * m - 1) for m in range(1, terms + 1)))
    acc, n2 = 0, n * n
    for m in range(1, terms + 1):
        acc = acc * n2 + beta[2 * m] * (L // (2 * m * (2 * m - 1)))
    value = Fraction(acc, D * L * n ** (2 * terms - 1))
    T = terms + 1
    return value, Fraction(abs(beta[2 * T]), D * 2 * T * (2 * T - 1) * n ** (2 * T - 1))


def stirling_series(n: int, terms: int) -> StirlingSeries:
    """``stirling_series_exact`` as floats, each rounded once by ``to_floats``."""
    value, bound = stirling_series_exact(n, terms)
    return StirlingSeries(*to_floats([value, bound], f"the Stirling series at n = {n} with "
                                     f"{terms} terms is"))


def stirling_gap(n: int, terms: int) -> float:
    """|g(n) - series(n, terms)|, the difference taken exactly and rounded once.

    The bounds being checked reach below float64 resolution of g(n) itself
    (e.g. ~4e-19 at n = 50, terms = 4), so g(n) comes from
    ``stirling_g_fixed`` at 80 bits below the remainder bound: the gap is
    then off by at most E 2^-P, ~2^-70 of that bound.
    """
    value, bound = stirling_series_exact(n, terms)
    P = 80 + (bound.denominator // bound.numerator).bit_length()
    G, _ = stirling_g_fixed(n, P)
    return abs(G * value.denominator - (value.numerator << P)) / (value.denominator << P)


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
