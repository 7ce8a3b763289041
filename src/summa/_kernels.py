"""Hot numeric kernels: the smoothed sums, moment integrals and plate-energy sweep.

Cutoff functions are addressed by integer codes:

    KIND_BUMP      exp(1 - 1/(1-x^2)) on [0, 1), 0 beyond
    KIND_POLY      (1 - x)^p on [0, 1], 0 beyond
    KIND_INDICATOR sharp characteristic function of [0, 1]

Sums are vectorized numpy; integrals run on the one adaptive Gauss-Kronrod
core in ``summa.quadrature``.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import MID_NODE, _adapt, integrate

__all__ = [
    "KIND_BUMP",
    "KIND_POLY",
    "KIND_INDICATOR",
    "eta_array",
    "smoothed_sum_value",
    "alternating_smoothed_value",
    "doubled_smoothed_value",
    "moment_quad",
    "ut_value",
]

KIND_BUMP = 0
KIND_POLY = 1
KIND_INDICATOR = 2

# Beyond this point the bump's exp() underflows to 0 long before the rational
# prefactors of its derivatives overflow; treating the tail as exactly 0
# avoids inf * 0 = nan.
BUMP_EDGE = 1.0 - 1e-12


def eta_array(kind: int, p: int, x) -> np.ndarray:
    """Vectorized cutoff evaluation for x >= 0."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if kind == KIND_INDICATOR:
        out = np.where(x <= 1.0, 1.0, 0.0)
    elif kind == KIND_BUMP:
        out = np.zeros_like(x)
        m = x < BUMP_EDGE
        t = 1.0 - x[m] * x[m]
        out[m] = np.exp(1.0 - 1.0 / t)
    else:
        out = np.zeros_like(x)
        m = x < 1.0
        out[m] = (1.0 - x[m]) ** p
    return out[0] if scalar else out


def smoothed_sum_value(s: int, kind: int, p: int, N: float) -> float:
    """sum_{n=1}^{ceil(N)} eta(n/N) n^s."""
    N = float(N)
    n = np.arange(1, math.ceil(N) + 1, dtype=float)
    return float(np.sum(eta_array(kind, p, n / N) * n**s))


def alternating_smoothed_value(kind: int, p: int, N: float) -> float:
    """sum_{n=1}^{ceil(N)} (-1)^(n-1) eta(n/N)."""
    N = float(N)
    M = math.ceil(N)
    n = np.arange(1, M + 1, dtype=float)
    signs = np.where(np.arange(1, M + 1) % 2 == 1, 1.0, -1.0)
    return float(np.sum(signs * eta_array(kind, p, n / N)))


def doubled_smoothed_value(kind: int, p: int, N: float) -> float:
    """sum_n (2n) eta(2n/N); the support ends at 2n >= N."""
    N = float(N)
    n = np.arange(1, math.ceil(N / 2.0) + 1, dtype=float)
    return float(np.sum(2.0 * n * eta_array(kind, p, 2.0 * n / N)))


def moment_quad(kind: int, p: int, m: int, c: float, a: float, b: float,
                tol: float, budget: int = 10**6):
    """Integral of x^m * eta(c x) over [a, b]; returns (value, error_estimate)."""
    if b <= a:
        return 0.0, 0.0
    res = integrate(lambda x: x**m * eta_array(kind, p, c * x), a, b, tol=tol, budget=budget)
    return res.value, res.error


def ut_value(kind: int, p: int, lam: float, N: float, tol: float, budget: int = 10**6):
    """Dimensionless plate-energy combination sum + half-term - integral at scale N.

    Evaluated through the exact regrouping

        sum_{n>=1} F(n) + F(0)/2 - int_0^{N/lam} F(s) ds
            = int_0^{N/lam} v^2 eta(lam v/N) (floor(v) + 1/2 - v) dv,

    with the unit cells as the initial panels of the adaptive quadrature
    (the sawtooth is linear inside a cell, so every cell integrand is
    smooth).  The naive sum-minus-integral form subtracts two O(N^4)
    quantities to produce an O(1) value and loses ~N^3 * eps to correlated
    roundoff; this form never holds a large intermediate.  ``budget`` caps
    the evaluations spent refining cells beyond the first panel of each.
    Returns (value, error_estimate).
    """
    c = lam / N
    support = N / lam
    lo = np.arange(math.ceil(support), dtype=float)
    hi = np.minimum(lo + 1.0, support)

    def saw(v):
        # a panel's midpoint lies strictly inside its unit cell, so its floor
        # is the cell index even where an end node rounds onto the boundary
        cell = np.floor(v[:, MID_NODE, None])
        y = eta_array(kind, p, c * v)
        y *= v  # in place: fewer node-sized temporaries live at the peak
        y *= v
        y *= cell + 0.5 - v
        return y

    value, error, _, _ = _adapt(saw, lo, hi, support, tol, budget + 15 * lo.size)
    return value, error
