"""Adaptive Gauss-Kronrod quadrature with an explicit evaluation budget.

A 7-point Gauss rule embedded in the 15-point Kronrod extension supplies the
per-panel error estimate |K15 - G7| (QUADPACK's qk15).  Panels are refined
by bisection one level at a time: every pending panel of a level is
evaluated in one call to the integrand (the initial panels may be many, such
as the plate sweep's unit cells or the stencil gaps of the derivative
identities).  Each initial panel carries its own tolerance share and
minimum width, inherited by the panels bisected from it: a panel is accepted
once its error is within its width share ``tol * width / span`` of its
tolerance, or within twice its roundoff floor (no amount of subdivision
improves it), or the panel is narrower than ~1e-14 of its span.  The
accepted errors of a tolerance therefore sum to at most ``tol`` plus the
roundoff floors.  The accepted panels come back tagged with their initial
panel, so a caller sums them per initial panel or all at once, correctly
rounded either way.  Exhausting the evaluation budget raises
:class:`QuadratureError` instead of returning a silently degraded value.

Integrands must be elementwise: they receive a numpy array of nodes, one
row of 15 per panel, and return an array of values of the same shape.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import QuadratureError

__all__ = ["QuadResult", "integrate", "GK_NODES", "GK_WEIGHTS", "GAUSS_WEIGHTS"]

# 15-point Kronrod abscissae on [-1, 1] (positive half; symmetric).
_XGK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715526,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
# 7-point Gauss weights, matching XGK indices 1, 3, 5, 7.
_WG = np.array([0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469])

GK_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])  # 15 nodes, ascending
GK_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
GAUSS_WEIGHTS = np.zeros(15)
GAUSS_WEIGHTS[1:14:2] = np.concatenate([_WG[:-1], _WG[::-1]])
MID_NODE = 7  # GK_NODES[7] == 0: column 7 of the node array holds each panel's midpoint

_K_MINUS_G = GK_WEIGHTS - GAUSS_WEIGHTS
_FLOOR_WEIGHTS = 2.0 * np.finfo(float).eps * GK_WEIGHTS  # a few ulps of the absolute integral


class QuadResult(NamedTuple):
    value: float
    error: float
    nevals: int
    nintervals: int


def _gk15(f, lo: np.ndarray, hi: np.ndarray):
    """Kronrod panels on [lo, hi] (arrays): returns (values, errors, roundoff_floors).

    The error estimate follows the classic scaled form: |K15 - G7| sharpened
    by (200 |K-G| / resasc)^1.5 against the oscillation measure resasc, with
    a few-ulp floor from the absolute integral resabs.
    """
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    y = np.asarray(f(mid[:, None] + half[:, None] * GK_NODES), dtype=float) * half[:, None]
    resk = y.dot(GK_WEIGHTS)
    resasc = np.abs(y - 0.5 * resk[:, None]).dot(GK_WEIGHTS)
    floor = np.abs(y).dot(_FLOOR_WEIGHTS)
    err = np.abs(y.dot(_K_MINUS_G))
    # resasc == 0 only on a constant panel, whose error is its floor anyway
    err = resasc * np.minimum(1.0, (200.0 * err / np.maximum(resasc, 1e-300)) ** 1.5)
    return resk, np.maximum(err, floor), floor


def _fsum_arrays(arrays) -> float:
    """Correctly rounded sum of every element of a list of arrays (order-free)."""
    return math.fsum(itertools.chain.from_iterable(a.tolist() for a in arrays))


def _adapt(f, lo: np.ndarray, hi: np.ndarray, span: np.ndarray, tol: float, budget: int):
    """Level-by-level bisection of the initial panels [lo, hi] until each is accepted.

    Returns (values, errors, owners, nevals): the accepted panels' values and
    errors and the index into ``lo`` of the initial panel each was bisected
    from, as lists of arrays, one per level, and the integrand evaluations
    spent.  ``span`` is an array over the initial panels: panel i and its
    descendants share ``tol`` in proportion to their width out of
    ``span[i]``, and stop splitting below 1e-14 ``span[i]``.  Every panel
    given the panels' total width shares one tolerance among them, as the
    plate sweep does; span = hi - lo gives each initial panel the whole
    ``tol``.  ``budget`` caps the integrand evaluations, 15 per panel, first
    level included.
    """
    share = tol / span
    min_width = np.maximum(1e-14 * span, 5e-308)
    owner = np.arange(lo.size)
    values, errors, owners = [], [], []
    pending = np.zeros(0)  # errors of the panels being refined
    nevals = 0
    while True:
        if nevals + 15 * lo.size > budget:
            total = _fsum_arrays(errors + [pending])
            raise QuadratureError(
                f"quadrature budget {budget} exhausted at error {total:.3e} "
                f"on the panels reached (tol {tol:.3e})"
            )
        val, err, floor = _gk15(f, lo, hi)
        nevals += 15 * lo.size
        width = hi - lo
        split = (err > np.maximum(share[owner] * width, 2.0 * floor)) & (width > min_width[owner])
        if not split.any():
            values.append(val)
            errors.append(err)
            owners.append(owner)
            break
        keep = ~split
        values.append(val[keep])
        errors.append(err[keep])
        owners.append(owner[keep])
        pending = err[split]
        lo, hi, owner = lo[split], hi[split], owner[split]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        owner = np.concatenate((owner, owner))
    return values, errors, owners, nevals


def integrate(f, a: float, b: float, tol: float, budget: int = 10**6) -> QuadResult:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    ``budget`` caps the number of integrand evaluations (15 per panel).
    Panels whose error sits at the roundoff floor, or narrower than ~1e-14
    of the span, are accepted rather than split further, so roundoff-limited
    error cannot burn the whole budget.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if a == b:
        return QuadResult(0.0, 0.0, 0, 0)
    sign = 1.0
    if b < a:
        a, b = b, a
        sign = -1.0
    values, errors, _, nevals = _adapt(
        f, np.array([a], dtype=float), np.array([b], dtype=float), np.array([b - a]), tol, budget)
    return QuadResult(sign * _fsum_arrays(values), _fsum_arrays(errors), nevals,
                      sum(v.size for v in values))
