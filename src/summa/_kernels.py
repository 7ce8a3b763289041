"""Hot numeric kernels: the smoothed sums, moment integrals and plate-energy sweep.

Each kernel takes the ``Cutoff`` itself and evaluates eta through
``cutoff.eval`` on whole arrays, in place into an array it already holds.
Sums are vectorized numpy; integrals run on the one adaptive Gauss-Kronrod
core in ``summa.quadrature``.  The O(N) kernels -- the smoothed and
alternating sums and the plate-energy cell sweep -- stream their index range
in fixed chunks of ``CHUNK`` terms (``CHUNK // 15`` cells, 15 nodes each),
so their working memory is O(CHUNK) at any N and their time is linear in N.
A sum allocates its chunk arrays once and refills them for every chunk.
Chunk sums are joined with ``math.fsum``; the cell sweep's accepted panels
are summed once at the end, exactly as in one sweep over all cells.  The
doubled sum sum 2n eta(2n/N) needs no kernel of its own: it is twice the
s = 1 smoothed sum at N/2 (see ``smoothed.scaling_counterexample``).
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

CHUNK = 15 * 4096  # terms per streamed chunk; CHUNK // 15 cells, a multiple of 4 (see ut_value)
MAX_TERMS = 10**10  # terms in one streamed sum (minutes of work); the sums refuse more
MAX_CELLS = 10**6  # unit cells in one plate sweep; ut_value refuses more
# integrand evaluations of one moment integral, and of a plate sweep beyond each cell's first panel
QUAD_BUDGET = 10**6


def _streamed_sum(terms, count: int) -> float:
    """fsum of the chunk sums of ``terms(n, y)`` over the floats n = 1..count.

    ``n`` holds one chunk's indices and ``y`` is a work array of its length;
    ``terms`` may overwrite both (the indices are refilled for every chunk)
    and returns the array whose sum is the chunk's.  The buffers are
    allocated once per call.  Overflow and invalid operations yield inf/nan
    without warnings; callers report a non-finite result as an error.  More
    than ``MAX_TERMS`` terms raise ``ValueError``.
    """
    if count > MAX_TERMS:
        raise ValueError(f"a sum of {count} terms exceeds MAX_TERMS = {MAX_TERMS}")
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

    Evaluated through the exact regrouping

        sum_{n>=1} F(n) + F(0)/2 - int_0^{N/lam} F(s) ds
            = int_0^{N/lam} v^2 eta(lam v/N) (floor(v) + 1/2 - v) dv,

    with the unit cells as the initial panels of the adaptive quadrature
    (the sawtooth is linear inside a cell, so every cell integrand is
    smooth).  The naive sum-minus-integral form subtracts two O(N^4)
    quantities to produce an O(1) value and loses ~N^3 * eps to correlated
    roundoff; this form never holds a large intermediate.  ``QUAD_BUDGET``
    caps the evaluations spent refining cells beyond the first panel of each.
    The cells enter the quadrature ``CHUNK // 15`` at a time.  BLAS rounds a
    panel's dot products by the row kernel its batch position lands on, and a
    multiple of 4 cells per chunk keeps every cell's first panel on the same
    kernel as in one batch of all cells: a sweep whose cells are accepted at
    their first panel is bit-identical to that single batch.  More than
    ``MAX_CELLS`` cells raise ``ValueError``.  Returns (value, error_estimate).
    """
    c = lam / N
    support = N / lam
    if not support <= MAX_CELLS:
        raise ValueError(f"plate sweep of N/lam = {support:.6g} cells exceeds "
                         f"MAX_CELLS = {MAX_CELLS}")
    ncells = math.ceil(support)

    def cells():
        step = CHUNK // 15
        for start in range(0, ncells, step):
            lo = np.arange(start, min(start + step, ncells), dtype=float)
            yield lo, np.minimum(lo + 1.0, support)

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

    value, error, _, _ = _adapt(saw, cells(), support, tol, QUAD_BUDGET + 15 * ncells)
    return value, error
