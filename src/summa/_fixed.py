"""Fixed-point integer arithmetic of the bump's exact paths: constants, rounding and exp.

A fixed-point number at P bits is an integer X standing for X 2^-P.  The
constants are within one unit of their value at P bits: ln 2 and e by
series, Euler's gamma by Brent and McMillan's algorithm B1 (1980).  ``exp_pass``
is the exponential of the bump's eta pass (``cutoffs.BumpCutoff.eval_fixed``):
argument reduction by ln 2, then 8-bit table levels and a short Taylor tail,
as in Brent and Zimmermann, *Modern Computer Arithmetic* (2010), section 4.4.
``round_bits`` rounds m 2^e to nearest, ties to even, at a given number of bits,
as mpmath's mpf arithmetic does, so a chain of correctly rounded operations
can be run in integers; ``round_rising`` rounds fixed-point intervals to
float64 correctly, by rising precision.  Nothing here imports mpmath.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Callable, Iterable, List, Tuple

from .errors import PrecisionCapError
from .exact import to_floats


def digits_to_bits(dps: int) -> int:
    """The bits of binary precision that carry ``dps`` decimal digits: mpmath's dps_to_prec."""
    return max(1, round((dps + 1) * 3.3219280948873626))


def round_bits(man: int, exp: int, prec: int) -> Tuple[int, int]:
    """man 2^exp rounded to nearest, ties to even, at ``prec`` significant bits: (man, exp)."""
    shift = abs(man).bit_length() - prec
    if shift <= 0:
        return man, exp
    q, r = divmod(man, 1 << shift)  # floor: q 2^shift <= man, r < 2^shift
    half = 1 << (shift - 1)
    if r > half or (r == half and q & 1):
        q += 1
    return q, exp + shift


def round_rising(balls: Callable[[int], List[Tuple[int, int]]], W: int, what: str,
                 cap: float = math.inf) -> List[float]:
    """Values v correctly rounded by rising precision (Ziv 1991): ``balls(W)`` gives (T, E)
    with |v 2^W - T| <= E for each v, and W doubles until every T - E and T + E round alike.
    A W past ``cap`` raises PrecisionCapError before ``balls`` runs at it, and an end past
    float64 range NonFiniteResultError, each on ``what``."""
    while W <= cap:
        ends = to_floats([Fraction(T + d, 1 << W) for T, E in balls(W) for d in (-E, E)], what)
        if ends[::2] == ends[1::2]:
            return ends[1::2]
        W *= 2
    raise PrecisionCapError(f"{what} not rounded within {cap} fixed-point bits")


def _guard(P: int) -> int:
    """Guard bits of a series at P bits: one unit of truncation a term, ~P terms."""
    return 10 + P.bit_length()


def ln2(P: int) -> int:
    """ln 2 at P bits, within one unit: 2 atanh(1/3) = 2 sum_k 3^-(2k+1) / (2k+1)."""
    g = _guard(P)
    x = (1 << (P + g)) // 3
    total, k = x, 1
    while x:
        x //= 9
        total += x // (2 * k + 1)
        k += 1
    return (2 * total) >> g


def e(P: int) -> int:
    """e at P bits, within one unit: sum_k 1/k!."""
    g = _guard(P)
    t = total = 1 << (P + g)
    k = 0
    while t:
        k += 1
        t //= k
        total += t
    return total >> g


def euler_gamma(P: int) -> int:
    """Euler's gamma at P bits, within one unit, by Brent and McMillan's B1.

    With n = 2^p, B_k = (n^k / k!)^2 and A_k = B_k (H_k - ln n),

        gamma = sum_k A_k / sum_k B_k + O(pi e^(-4n)),

    and B_k = B_(k-1) n^2 / k^2, A_k = (A_(k-1) n^2 / k + B_k) / k.  n is the
    least power of 2 with 4n > (P + g) ln 2 + ln pi.  The sums grow to ~e^(2n)
    2^(P+g), so the units lost to truncation vanish in their quotient.
    """
    g = 32 + P.bit_length()
    Q = P + g
    p = max(1, math.ceil(math.log2((Q * math.log(2) + 1.2) / 4)))
    n2 = 1 << (2 * p)
    A = U = -p * ln2(Q)
    B = V = 1 << Q
    k = 1
    while B:
        B = B * n2 // (k * k)
        A = (A * n2 // k + B) // k
        U += A
        V += B
        k += 1
    return (U << Q) // V >> g


# exp(-r) for 0 <= r < ln 2 at P = W + _EXP_GUARD bits: r = sum_l j_l 2^(-8l) + t over
# _exp_levels(P) levels of 256-entry tables exp(-j 2^(-8l)), and exp(-t), t < 2^(-8L), by a
# Taylor polynomial.  Each table entry, product and Horner step is within a unit at P bits,
# so with at most ~40 such units the exp is within 2^-10 of a unit at W bits before its last
# floor.
_EXP_GUARD = 16
_LEVEL_BITS = 8


def _exp_levels(P: int) -> int:
    """Table levels at P bits: 3 up to P ~ 320, then one more each 80 bits (a level costs
    one product; a Taylor term saved costs one too, and 8 more bits save P/(8L)^2 of them)."""
    return max(3, P // 80)


@functools.lru_cache(maxsize=8)
def exp_tables(W: int) -> tuple:
    """(P, ln 2, tables, Taylor coefficients) of ``exp_pass`` at W bits, built once per W.

    Level l's table holds exp(-j 2^(-8l)) 2^P for j < 256: built by repeated
    products at P + 20 bits from exp(-2^(-8l)) (its Taylor series), the 20 bits
    taking the 255 products' units (a few each), then floored to P.  The coefficients are
    2^P / i!, for i up to the least n with t^(n+1)/(n+1)! < 2^-P at t < 2^(-8L),
    highest first for Horner's rule.  At W ~ 150 the tables hold ~40 KB.
    """
    P = W + _EXP_GUARD
    Q = P + 20
    levels = _exp_levels(P)
    tables = []
    for level in range(1, levels + 1):
        bits = _LEVEL_BITS * level
        t = base = 1 << Q
        i = 0
        while t:
            i += 1
            t = (t >> bits) // i
            base += -t if i % 2 else t
        row = [1 << Q]
        for _ in range((1 << _LEVEL_BITS) - 1):
            row.append(row[-1] * base >> Q)
        tables.append([v >> 20 for v in row])
    tail_bits = _LEVEL_BITS * levels
    n, log2_fact = 1, 1.0  # log2 (n+1)!
    while (n + 1) * tail_bits + log2_fact < P + 1:
        n += 1
        log2_fact += math.log2(n + 1)
    coefficients = [(1 << P) // math.factorial(i) for i in range(n, -1, -1)]
    return P, ln2(P), tables, coefficients


def exp_pass(arguments: Iterable[int], W: int, count: int) -> List[int]:
    """[exp(-B 2^-W) 2^W] for each B >= 0 of ``arguments``, non-decreasing, padded with 0
    to ``count`` values; each is within 1 + 2^-10 units of the exact value (measured: up
    to one unit below it, never above).

    k, R = divmod(B 2^16, ln 2 at P = W + 16 bits) gives exp(-B 2^-W) = 2^-k exp(-R 2^-P),
    up to k units of ln 2's rounding at P bits, which 2^-k scales below a unit; R's
    leading bytes index the tables and the rest is the Taylor tail.  Once k > W the
    value is below one unit: it and, as B does not decrease, every later one is 0.
    """
    P, L, tables, coefficients = exp_tables(W)
    first, *rest = tables
    top = P - _LEVEL_BITS
    levels = [(table, top - _LEVEL_BITS * i) for i, table in enumerate(rest, 1)]
    tail = (1 << (top - _LEVEL_BITS * len(rest))) - 1
    c0, *cs = coefficients
    mask = (1 << _LEVEL_BITS) - 1
    shift = P + _EXP_GUARD
    values = []
    for B in arguments:
        k, R = divmod(B << _EXP_GUARD, L)
        if k > W:
            break
        v = first[R >> top]
        for table, at in levels:
            v = v * table[(R >> at) & mask] >> P
        t = R & tail
        h = c0
        for c in cs:
            h = c - (h * t >> P)
        values.append(v * h >> (shift + k))
    values.extend([0] * (count - len(values)))
    return values
