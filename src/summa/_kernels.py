"""Hot numeric kernels: the smoothed sums, moment integrals and plate-energy sweep.

Each kernel takes the ``Cutoff`` itself and evaluates eta through
``cutoff.eval`` on whole arrays, in place into an array it already holds.
Sums are vectorized numpy; integrals run on the one adaptive Gauss-Kronrod
core in ``summa.quadrature``.  The two sums -- the smoothed and the
alternating sum -- are one vectorized pass each over n = 1..ceil(N).
``smoothed`` calls them only for the bump below the scale where its
Euler-Maclaurin expansion at 0 meets its bound, so with at most 3,787
terms (``smoothed._bump_sum``; the Grandi sum below N ~ 788).  The
plate-energy cell sweep is one batch too: ``casimir`` runs it only below
N/lam ~ 642, where the bump's expansion of u_t does not yet meet its
2^-62 bound, so it has at most 642 unit cells (~10k nodes a level).  A
moment integral is a batch of intervals: ``casimir.derivative_identities``
sends all its stencil gaps, at most 70, as one.  The
doubled sum sum 2n eta(2n/N) needs no kernel of its own: it is twice the
s = 1 smoothed sum at N/2 (see ``smoothed.scaling_counterexample``).
"""

from __future__ import annotations

import math

import numpy as np

from .cutoffs import Cutoff
from .quadrature import MID_NODE, _adapt, _fsum_arrays

__all__ = [
    "smoothed_sum_value",
    "alternating_smoothed_value",
    "moment_quad",
    "ut_value",
]

# integrand evaluations of a moment batch or a plate sweep beyond each interval's first panel
QUAD_BUDGET = 10**6


def smoothed_sum_value(s: int, cutoff: Cutoff, N: float) -> float:
    """sum_{n=1}^{ceil(N)} eta(n/N) n^s, one vectorized pass.

    The power is n^min(s, 2048): past s = 1023 every n >= 2 overflows to inf
    either way and 1^s = 1, and an s past float64 range stays an int.  Only
    the terms with eta(n/N) != 0 are multiplied, so a term past the support
    is 0 however large n^s is, not 0 * inf = nan; the array keeps its length,
    so np.sum adds in the same pairwise order.  Overflow yields inf without
    warnings; callers report a non-finite result as an error.
    """
    N = float(N)
    n = np.arange(1, math.ceil(N) + 1, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        y = n / N
        cutoff.eval(y, out=y)
        n **= min(s, 2048)  # the in-place power takes the same route as n**s
        np.multiply(y, n, out=y, where=y != 0)
        return float(np.sum(y))


def alternating_smoothed_value(cutoff: Cutoff, N: float) -> float:
    """sum_{n=1}^{ceil(N)} (-1)^(n-1) eta(n/N).

    Each +eta(n/N), n odd, is paired with the -eta((n+1)/N) after it:
    neighbours within a factor 2 subtract exactly (Sterbenz), so the sum of
    the pairs no longer cancels.
    """
    N = float(N)
    y = np.arange(1, math.ceil(N) + 1, dtype=float) / N
    cutoff.eval(y, out=y)
    odd, even = y[0::2], y[1::2]
    odd[:even.size] -= even
    return float(np.sum(odd))


def moment_quad(cutoff: Cutoff, m: int, c: float, lo, hi, tol: float):
    """Integrals of x^m * eta(c x) over each [lo[i], hi[i]], lo[i] < hi[i], in one batch.

    Each interval is an initial panel of one adaptive quadrature with the
    whole ``tol`` as its own absolute tolerance, and its value and error are
    correctly rounded sums of its accepted panels.  Budget: ``QUAD_BUDGET``
    caps the evaluations spent refining the intervals beyond their first
    panel, so a batch of n intervals may spend QUAD_BUDGET + 15 n in all.
    Returns (values, error_estimates), two lists in the order of ``lo``.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)

    def integrand(x):
        y = c * x
        cutoff.eval(y, out=y)
        y *= x**m
        return y

    values, errors, owners, _ = _adapt(integrand, lo, hi, hi - lo, tol,
                                       QUAD_BUDGET + 15 * lo.size)
    panels = [([], []) for _ in range(lo.size)]
    for i, value, error in zip(*(np.concatenate(a).tolist() for a in (owners, values, errors))):
        panels[i][0].append(value)
        panels[i][1].append(error)
    return [math.fsum(v) for v, _ in panels], [math.fsum(e) for _, e in panels]


def ut_value(cutoff: Cutoff, lam: float, N: float, tol: float):
    """Dimensionless plate-energy combination sum + half-term - integral at scale N.

    This sweep is the path of the bump below N/lam ~ 641.80, where its
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

    values, errors, _, _ = _adapt(saw, lo, hi, np.full(ncells, support), tol,
                                  QUAD_BUDGET + 15 * ncells)
    return _fsum_arrays(values), _fsum_arrays(errors)
