"""Exact rational backbone: Bernoulli numbers, binomials, Faulhaber sums.

All values are ``fractions.Fraction`` instances, i.e. arbitrary-precision
rationals kept in canonical form (reduced, positive denominator).  Arithmetic
is exact throughout; floats appear only when a caller converts at the edge.

Bernoulli convention
--------------------
This package uses B_1 = +1/2 ("second" Bernoulli numbers), the convention
under which the recursion

    sum_{j=0}^{s-1} C(s, j) * B_j = s          for every s >= 1

holds, and under which Faulhaber's closed form carries + N^s / 2.  Readers
used to B_1 = -1/2 ("first" convention): even-index values coincide, odd
indices >= 3 vanish in both, only B_1 flips sign.

The values come from the integer tangent numbers T_j (tan x = sum T_j
x^(2j-1)/(2j-1)!), filled by Brent and Harvey's in-place triangle ("Fast
computation of Bernoulli, Tangent and Secant numbers", 2011) in O(k^2)
small-int by big-int steps, then

    B_{2j} = (-1)^(j-1) * 2j * T_j / (4^j (4^j - 1)),

one Fraction per value.  The recursion above and the coefficients of the
generating function t*exp(t)/(exp(t)-1), obtained by exact power-series
division (``genfun_coefficients``), are independent cross-checks.  The memo
table grows geometrically: a fill reaches at least twice the table's
length, so a rising sequence of indices costs O(log k) fills.
"""

from __future__ import annotations

import functools
import math
import threading
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import NonFiniteResultError

__all__ = [
    "Rational",
    "binomial",
    "bernoulli",
    "bernoulli_table",
    "bernoulli_integers",
    "genfun_coefficients",
    "faulhaber",
    "faulhaber_numerator",
    "to_floats",
    "PI_LOWER",
    "PI_UPPER",
]

# Public alias: the exact rational carrier used across the package.
Rational = Fraction

# Dyadic-free decimal bounds, 3.14159265358979 < pi < 3.14159265358980.
PI_LOWER = Fraction(314159265358979, 10**14)
PI_UPPER = Fraction(314159265358980, 10**14)

_bernoulli_cache: List[Fraction] = [Fraction(1)]
_cache_lock = threading.Lock()


def binomial(n: int, k: int) -> int:
    """Exact binomial coefficient C(n, k); requires 0 <= k <= n."""
    if n < 0 or k < 0:
        raise ValueError(f"binomial requires n, k >= 0, got ({n}, {k})")
    if k > n:
        raise ValueError(f"binomial requires k <= n, got ({n}, {k})")
    return math.comb(n, k)


def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k (B_1 = +1/2 convention), memoized.

    Computed from the tangent numbers (see the module docstring).  The memo
    table only ever grows, to at least twice its length per fill, and its
    entries are immutable, so concurrent fills are idempotent.
    """
    if k < 0:
        raise ValueError(f"bernoulli requires k >= 0, got {k}")
    if k < len(_bernoulli_cache):
        return _bernoulli_cache[k]
    with _cache_lock:
        have = len(_bernoulli_cache)
        if k >= have:
            _bernoulli_cache.extend(_bernoulli_fill(have, max(k + 1, 2 * have)))
    return _bernoulli_cache[k]


def _bernoulli_fill(start: int, stop: int) -> List[Fraction]:
    """B_start .. B_{stop-1} from the tangent numbers T_1 .. T_{(stop-1)//2}.

    The triangle: T_j = (j-1)! to start, then for each k >= 2 the sweep
    T_j <- (j-k) T_{j-1} + (j-k+2) T_j over j = k..n, in place.
    """
    n = (stop - 1) // 2
    t = [0, 1] + [0] * (n - 1)
    for j in range(2, n + 1):
        t[j] = (j - 1) * t[j - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    out = []
    for m in range(start, stop):
        if m < 2:
            out.append(Fraction(1, m + 1))  # B_0 = 1, B_1 = +1/2
        elif m % 2:
            out.append(Fraction(0))
        else:
            j, four = m // 2, 4 ** (m // 2)
            out.append(Fraction((-1) ** (j - 1) * m * t[j], four * (four - 1)))
    return out


def bernoulli_table(K: int) -> Sequence[Fraction]:
    """Immutable table (B_0, ..., B_K)."""
    bernoulli(K)
    return tuple(_bernoulli_cache[: K + 1])


# a process mixing the Faulhaber, drift, u_t and Stirling sums reads about a dozen tables
@functools.lru_cache(maxsize=16)
def bernoulli_integers(K: int) -> Tuple[int, Tuple[int, ...]]:
    """(D, (D B_0, ..., D B_K)): B_0 .. B_K over their least common denominator D.

    A sum of Bernoulli terms then adds integer numerators and is reduced once,
    instead of running a gcd on every Fraction add.  The numerators serve any
    sum over B_0 .. B_k with k <= K, over the same D.
    """
    table = bernoulli_table(K)
    D = math.lcm(*(b.denominator for b in table))
    return D, tuple(b.numerator * (D // b.denominator) for b in table)


def genfun_coefficients(K: int) -> List[Fraction]:
    """First K+1 Taylor coefficients of t*exp(t)/(exp(t)-1), exactly.

    Both numerator and denominator vanish at t = 0, so one power of t is
    stripped before the standard series division: with n_k = 1/k! and
    d_k = 1/(k+1)! the quotient q satisfies q_k = n_k - sum q_j d_{k-j}.
    Coefficient j of the result equals bernoulli(j) / j!.
    """
    if K < 0:
        raise ValueError(f"genfun_coefficients requires K >= 0, got {K}")
    num = [Fraction(1, math.factorial(k)) for k in range(K + 1)]
    den = [Fraction(1, math.factorial(k + 1)) for k in range(K + 1)]
    q: List[Fraction] = []
    for k in range(K + 1):
        acc = num[k]
        for j in range(k):
            acc -= q[j] * den[k - j]
        q.append(acc)
    return q


def faulhaber(s: int, N: int) -> Fraction:
    """Exact power sum 1^s + 2^s + ... + N^s via the Bernoulli closed form.

    Uses  (1/(s+1)) * sum_{j=0}^{s} C(s+1, j) * B_j * N^{s+1-j},
    which under the B_1 = +1/2 convention reproduces the printed
    N^{s+1}/(s+1) + N^s/2 + s N^{s-1}/12 + ... shape directly.  The sum
    runs on integers (``faulhaber_numerator``) and is reduced once.
    """
    if s < 0:
        raise ValueError(f"faulhaber requires s >= 0, got {s}")
    if N < 1:
        raise ValueError(f"faulhaber requires N >= 1, got {N}")
    D, beta = bernoulli_integers(s)
    return Fraction(faulhaber_numerator(s, N, beta), D * (s + 1))


def faulhaber_numerator(s: int, N: int, beta: Sequence[int]) -> int:
    """(s + 1) D S_s(N) for S_s(N) = 1^s + ... + N^s, with (D, beta) = bernoulli_integers(K), K >= s.

    sum_{j=0}^{s} C(s+1, j) beta_j N^{s+1-j} by Horner's rule in N, the
    binomial row built on the way: integer products only, no gcd.
    """
    acc, c = 0, 1
    for j in range(s + 1):
        acc = acc * N + c * beta[j]
        c = c * (s + 1 - j) // (j + 1)
    return acc * N


def to_floats(values: Sequence[Fraction], what: str) -> List[float]:
    """Each value rounded once to float64; past its range, NonFiniteResultError on ``what``."""
    try:
        return [float(v) for v in values]
    except OverflowError as exc:
        raise NonFiniteResultError(f"{what} past float64 range") from exc
