"""Hot numeric kernels: the smoothed sums, moment integrals and plate-energy sweep.

Each kernel takes the ``Cutoff`` itself and evaluates eta through
``cutoff.eval`` on whole arrays, in place into an array it already holds.
Sums are vectorized numpy; integrals run on the one adaptive Gauss-Kronrod
core in ``summa.quadrature``.  The two O(N) sums -- the smoothed and the
alternating sum -- stream their index range in fixed chunks of ``CHUNK``
terms, so their working memory is O(CHUNK) at any N and their time is linear
in N; a sum allocates its chunk arrays once, refills them for every chunk and
joins the chunk sums with ``math.fsum``.  ``smoothed.MAX_TERMS`` bounds their
work.  The plate-energy cell sweep does not stream: ``casimir`` runs it only
below N/lam ~ 1.35 * 10^3, where the bump's Euler-Maclaurin expansion at 0
does not yet meet its 2^-62 bound, so it is one batch of at most 1,354 unit
cells (~20k nodes a level).  The doubled sum sum 2n eta(2n/N) needs no
kernel of its own: it is twice the s = 1 smoothed sum at N/2 (see
``smoothed.scaling_counterexample``).
"""

from __future__ import annotations

import math

import numpy as np

from .cutoffs import Cutoff
from .quadrature import MID_NODE, _adapt, integrate

__all__ = [
    "smoothed_sum_value",
    "alternating_smoothed_value",
    "moment_quad",
    "ut_value",
]

CHUNK = 61440  # terms per streamed chunk; even (see alternating_smoothed_value)
# integrand evaluations of one moment integral, and of a plate sweep beyond each cell's first panel
QUAD_BUDGET = 10**6


def _streamed_sum(terms, count: int) -> float:
    """fsum of the chunk sums of ``terms(n, y)`` over the floats n = 1..count.

    ``n`` holds one chunk's indices and ``y`` is a work array of its length;
    ``terms`` may overwrite both (the indices are refilled for every chunk)
    and returns the array whose sum is the chunk's.  The buffers are
    allocated once per call.  Overflow and invalid operations yield inf/nan
    without warnings; callers report a non-finite result as an error.
    """
    size = min(CHUNK, count)
    base = np.arange(1, size + 1, dtype=float)
    idx, y = np.empty(size), np.empty(size)
    partials = []
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(1, count + 1, CHUNK):
            m = min(CHUNK, count + 1 - start)
            n = np.add(base[:m], start - 1, out=idx[:m])
            partials.append(float(np.sum(terms(n, y[:m]))))
    try:
        return math.fsum(partials)
    except (OverflowError, ValueError):  # an intermediate overflow or inf - inf
        return sum(partials)


def smoothed_sum_value(s: int, cutoff: Cutoff, N: float) -> float:
    """sum_{n=1}^{ceil(N)} eta(n/N) n^s."""
    N = float(N)

    def terms(n, y):
        cutoff.eval(np.divide(n, N, out=y), out=y)
        n **= s  # the in-place power takes the same route as n**s
        y *= n
        return y

    return _streamed_sum(terms, math.ceil(N))


def alternating_smoothed_value(cutoff: Cutoff, N: float) -> float:
    """sum_{n=1}^{ceil(N)} (-1)^(n-1) eta(n/N)."""
    N = float(N)

    def terms(n, y):
        # a chunk starts at an odd n (CHUNK is even), so it pairs +eta(n/N) with
        # the -eta((n+1)/N) after it: neighbours within a factor 2 subtract
        # exactly (Sterbenz) and the chunk sum no longer cancels
        cutoff.eval(np.divide(n, N, out=y), out=y)
        odd, even = y[0::2], y[1::2]
        odd[:even.size] -= even
        return odd

    return _streamed_sum(terms, math.ceil(N))


def moment_quad(cutoff: Cutoff, m: int, c: float, a: float, b: float, tol: float):
    """Integral of x^m * eta(c x) over [a, b]; returns (value, error_estimate)."""
    if b <= a:
        return 0.0, 0.0

    def integrand(x):
        y = c * x
        cutoff.eval(y, out=y)
        y *= x**m
        return y

    res = integrate(integrand, a, b, tol=tol, budget=QUAD_BUDGET)
    return res.value, res.error


def ut_value(cutoff: Cutoff, lam: float, N: float, tol: float):
    """Dimensionless plate-energy combination sum + half-term - integral at scale N.

    This sweep is the path of the bump below N/lam ~ 1.35 * 10^3, where its
    Euler-Maclaurin expansion at 0 does not yet meet its 2^-62 bound;
    ``casimir`` computes a polynomial cutoff's u_t exactly instead, and for
    those, and for the bump at larger N/lam, the sweep is a test oracle.
    Evaluated through the exact regrouping

        sum_{n>=1} F(n) + F(0)/2 - int_0^{N/lam} F(s) ds
            = int_0^{N/lam} v^2 eta(lam v/N) (floor(v) + 1/2 - v) dv,

    with the unit cells as the initial panels of the adaptive quadrature
    (the sawtooth is linear inside a cell, so every cell integrand is
    smooth).  The naive sum-minus-integral form subtracts two O(N^4)
    quantities to produce an O(1) value and loses ~N^3 * eps to correlated
    roundoff; this form never holds a large intermediate.  ``QUAD_BUDGET``
    caps the evaluations spent refining cells beyond the first panel of each.
    All cells enter the quadrature as one batch.  Returns (value,
    error_estimate).
    """
    c = lam / N
    support = N / lam
    ncells = math.ceil(support)
    lo = np.arange(ncells, dtype=float)
    hi = np.minimum(lo + 1.0, support)

    def saw(v):
        # a panel's midpoint lies strictly inside its unit cell, so its floor
        # is the cell index even where an end node rounds onto the boundary
        cell = np.floor(v[:, MID_NODE, None])
        y = c * v
        cutoff.eval(y, out=y)
        y *= v  # in place: fewer node-sized temporaries live at the peak
        y *= v
        y *= cell + 0.5 - v
        return y

    value, error, _, _ = _adapt(saw, lo, hi, support, tol, QUAD_BUDGET + 15 * ncells)
    return value, error
