"""Certified upper bounds on sup_[0, 1] |Q(x) y^(2K) e^(1-y)|, y = 1/(1 - x^2).

Every derivative of the bump has this form: eta^(k) = P_k(x) y^(2k) e^(1-y) with the
integer polynomials P_k of ``cutoffs._bump_numerator``, and so has (x^2 eta)^(K) with Q_K
(``test_casimir._q_poly``).  On each piece of a partition of [0, 1] the Bernstein
coefficients of Q bound |Q| (Cargo and Shisha 1966), in exact integers, and y^(2K) e^(1-y),
which rises up to y = 2K and falls after, is bounded at 2K clamped to the piece's y range,
in interval arithmetic.  The tests that regenerate the shipped bounds share these helpers.
"""

import math
from fractions import Fraction


def bernstein_max(q, p0, p1, E):
    """max |Bernstein coefficient| of q on [p0 / 2^E, p1 / 2^E], exactly: >= sup |q| there."""
    n = len(q) - 1
    # h(u) = 2^(E n) q(u / 2^E), Taylor-shifted to u = p0 + (p1 - p0) t
    g = [c << (E * (n - m)) for m, c in enumerate(q)]
    for k in range(n):
        for j in range(n - 1, k - 1, -1):
            g[j] += p0 * g[j + 1]
    # b_j = sum_{m<=j} C(j, m) g_m w^m / C(n, m): the binomial transform of n! g_m w^m / C(n, m)
    w, f = p1 - p0, math.factorial
    a = [g[m] * w**m * f(m) * f(n - m) for m in range(n + 1)]
    for i in range(n):
        for j in range(n, i, -1):
            a[j] += a[j - 1]
    return Fraction(max(map(abs, a)), f(n) << (E * n))


def sup_bound(q, K, points, E):
    """(lo, hi) around the max over the pieces [p_i / 2^E, p_(i+1) / 2^E] of ``points`` of
    (Bernstein max of |q|) x sup y^(2K) e^(1-y): hi bounds sup_[0, 1] |q y^(2K) e^(1-y)|."""
    from mpmath import iv

    one = 1 << 2 * E
    lo = hi = 0
    for p0, p1 in zip(points, points[1:]):
        y = max(Fraction(2 * K), Fraction(one, one - p0 * p0))
        if p1 < 1 << E:
            y = min(y, Fraction(one, one - p1 * p1))
        b = bernstein_max(q, p0, p1, E)
        y = iv.mpf(y.numerator) / y.denominator  # outward-rounded at iv's working precision
        v = iv.mpf(b.numerator) / b.denominator * y ** (2 * K) * iv.exp(1 - y)
        lo, hi = max(lo, v.a), max(hi, v.b)
    return lo, hi


def geometric_points(K, E=24, ratio=1.1):
    """Dyadic points 0 < ... < 1 (numerators over 2^E) whose y = 1/(1 - x^2) grows by about
    ``ratio`` from piece to piece, up to y ~ 4K + 8, and one last piece to 1: narrow where
    y^(2K) e^(1-y) peaks, so the two factors' bounds stay close to their product's sup."""
    points, y = {0, 1 << E}, 1.0
    while y < 4 * K + 8:
        y *= ratio
        points.add(int(math.sqrt(1 - 1 / y) * 2**E))
    return sorted(points)
