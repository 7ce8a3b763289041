"""Hot numeric kernels: the bump's sums, moment integrals and plate-energy sweep.

The sums are the bump's fixed-point eta pass (``smoothed._bump_totals``), correctly
rounded; ``smoothed`` calls them only below the scale where its Euler-Maclaurin expansion
at 0 meets its bound and below a certain overflow, so with at most 3,386 terms (the Grandi
sum below N ~ 788).  The integrals evaluate eta through ``cutoff.eval`` on whole arrays
and run on the adaptive Gauss-Kronrod core of ``summa.quadrature``, which they alone
import, with numpy.  The plate-energy cell sweep is one batch of at most 642 unit cells
(~10k nodes a level): ``casimir`` runs it only below N/lam ~ 642, where the bump's
expansion of u_t does not yet meet its 2^-62 bound.  ``casimir.derivative_identities``
sends all its stencil gaps, at most 70, as one batch of moment integrals.  The doubled sum
sum 2n eta(2n/N) is twice the s = 1 sum at N/2 (``smoothed.scaling_counterexample``).
"""

from __future__ import annotations

import math

from .cutoffs import Cutoff

__all__ = [
    "smoothed_sum_value",
    "alternating_smoothed_value",
    "moment_quad",
    "ut_value",
]

# integrand evaluations of a moment batch or a plate sweep beyond each interval's first panel
QUAD_BUDGET = 10**6


def smoothed_sum_value(s: int, cutoff: Cutoff, N: float) -> float:
    """sum_{1<=n<N} eta(n/N) n^s of the bump, correctly rounded: the eta pass's total at W
    bits is within 2 units a term, 2 L^(s+1) in all (L = ceil(N) - 1), and W doubles from
    ``smoothed._bump_sum_bits`` (a certain overflow refused first) to ``MAX_SUM_BITS``."""
    from ._fixed import round_rising
    from .smoothed import MAX_SUM_BITS, _bump_sum_bits, _bump_totals

    return round_rising(
        lambda W: [(_bump_totals(s, cutoff, [N], W)[0], 2 * (math.ceil(N) - 1) ** (s + 1))],
        _bump_sum_bits(s, N), f"the smoothed sum of s = {s} on {cutoff.label} at N = {N} is",
        MAX_SUM_BITS)[0]


def alternating_smoothed_value(cutoff: Cutoff, N: float):
    """(G, |G - 1/2|), each correctly rounded, for the bump's G = sum_{1<=n<N} (-1)^(n-1)
    eta(n/N) = T(N) - 2 T(N/2): the s = 0 totals of one eta pass, as ``smoothed_sum_value``
    rounds them, within 2 units a term."""
    from ._fixed import round_rising
    from .smoothed import MAX_SUM_BITS, _bump_sum_bits, _bump_totals

    def balls(W):
        T, T_half = _bump_totals(0, cutoff, [N, N / 2], W)
        G, E = T - 2 * T_half, 2 * (math.ceil(N) - 1)
        return [(G, E), (abs(G - (1 << (W - 1))), E)]

    return tuple(round_rising(balls, _bump_sum_bits(0, N), f"the Grandi sum on "
                              f"{cutoff.label} at N = {N} is", MAX_SUM_BITS))


def moment_quad(cutoff: Cutoff, m: int, c: float, lo, hi, tol: float):
    """Integrals of x^m * eta(c x) over each [lo[i], hi[i]], lo[i] < hi[i], in one batch.

    Each interval is an initial panel of one adaptive quadrature with the
    whole ``tol`` as its own absolute tolerance, and its value and error are
    correctly rounded sums of its accepted panels.  Budget: ``QUAD_BUDGET``
    caps the evaluations spent refining the intervals beyond their first
    panel, so a batch of n intervals may spend QUAD_BUDGET + 15 n in all.
    Returns (values, error_estimates), two lists in the order of ``lo``.
    """
    import numpy as np

    from .quadrature import _adapt

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
    import numpy as np

    from .quadrature import MID_NODE, _adapt, _fsum_arrays

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
