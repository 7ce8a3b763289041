"""Compactly supported cutoff functions with analytic derivatives.

Two families are provided:

* ``bump``    eta(x) = exp(1 - 1/(1 - x^2)) on [0, 1), 0 beyond.  Infinitely
  smooth; every derivative vanishes at the right endpoint.  Its k-th
  derivative is P_k(x) / (1 - x^2)^(2k) * eta(x) where the integer-coefficient
  polynomials P_k satisfy

      P_0 = 1,   P_{k+1} = (1-x^2) [ (1-x^2) P_k' + 4 k x P_k ] - 2 x P_k,

  so derivatives are exact up to floating evaluation of the formula.

* ``poly:p``  eta(x) = (1 - x)^p on [0, 1], 0 beyond, p >= 1.  Smoothness
  order p - 1 at the right endpoint; moments against x^s have the exact
  closed form s! p! / (s + p + 1)!.

Both normalize eta(0) = 1.  The sharp indicator of [0, 1] is deliberately not
constructible through :func:`make_cutoff` (it reproduces the partial-sum
pathology); :func:`sharp_indicator` builds it explicitly for the contrast
demonstrations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Optional

import numpy as np

from .errors import CutoffSmoothnessError

__all__ = ["BUMP_EDGE", "Cutoff", "bump_deriv", "make_cutoff", "parse_cutoff",
           "sharp_indicator"]

# Beyond this point the bump's exp() underflows to 0 long before the rational
# prefactors of its derivatives overflow; treating the tail as exactly 0
# avoids inf * 0 = nan.
BUMP_EDGE = 1.0 - 1e-12

# Cache of the integer-coefficient numerator polynomials P_k (index = power).
_BUMP_P: List[List[int]] = [[1]]


def _poly_deriv(c: List[int]) -> List[int]:
    return [i * c[i] for i in range(1, len(c))] or [0]


def _poly_add(a: List[int], b: List[int]) -> List[int]:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


def _poly_scale_xpow(c: List[int], mult: int, shift: int) -> List[int]:
    """mult * x^shift * c(x)"""
    return [0] * shift + [mult * v for v in c]


def _poly_mul_one_minus_x2(c: List[int]) -> List[int]:
    """(1 - x^2) * c(x)"""
    return _poly_add(c, _poly_scale_xpow(c, -1, 2))


def _bump_numerator(k: int) -> List[int]:
    while len(_BUMP_P) <= k:
        kk = len(_BUMP_P) - 1
        pk = _BUMP_P[-1]
        inner = _poly_add(_poly_mul_one_minus_x2(_poly_deriv(pk)),
                          _poly_scale_xpow(pk, 4 * kk, 1))
        nxt = _poly_add(_poly_mul_one_minus_x2(inner), _poly_scale_xpow(pk, -2, 1))
        _BUMP_P.append(nxt)
    return _BUMP_P[k]


def _horner(c: List[int], x: np.ndarray) -> np.ndarray:
    acc = np.zeros_like(x)
    for v in reversed(c):
        acc = acc * x + v
    return acc


def bump_deriv(k: int, u: np.ndarray) -> np.ndarray:
    """k-th derivative of exp(1 - 1/(1 - u^2)) at every real u; 0 where |u| >= BUMP_EDGE."""
    out = np.zeros_like(u)
    m = np.abs(u) < BUMP_EDGE
    um = u[m]
    t = 1.0 - um * um
    out[m] = _horner(_bump_numerator(k), um) / t ** (2 * k) * np.exp(1.0 - 1.0 / t)
    return out


class Cutoff:
    """A smoothing function on [0, infinity) supported in [0, 1], eta(0+) = 1.

    The kernels take the cutoff itself and evaluate it through ``eval``.
    Each subclass supplies its float formula (``_eval_array``), its analytic
    derivatives (``_deriv_array``) and its mpmath formula (``eval_mp``).
    ``smoothness_order`` is math.inf for the bump, p - 1 for poly:p and -1
    for the sharp indicator.
    """

    def __init__(self, kind: str, label: str, smoothness_order, p: int = 0):
        self.kind = kind
        self.label = label
        self.smoothness_order = smoothness_order
        self.p = p

    def __repr__(self):
        return f"Cutoff({self.label!r})"

    @property
    def smoothness_label(self):
        return "infinite" if self.smoothness_order == math.inf else int(self.smoothness_order)

    def require_smoothness(self, k: int, what: str = "this operation"):
        if self.smoothness_order < k:
            raise CutoffSmoothnessError(
                f"cutoff {self.label!r} has smoothness order {self.smoothness_label}, "
                f"but {what} needs C^{k}"
            )

    # -- evaluation ------------------------------------------------------

    def eval(self, x):
        """eta(x) for scalar or array x >= 0."""
        x = np.asarray(x, dtype=float)
        if x.ndim:
            return self._eval_array(x)
        return float(self._eval_array(x.reshape(1))[0])

    def __call__(self, x):
        return self.eval(x)

    def deriv(self, k: int, x):
        """k-th derivative of eta at x (analytic formula, not differences)."""
        if k < 0:
            raise ValueError(f"derivative order must be >= 0, got {k}")
        if k == 0:
            return self.eval(x)
        self.require_smoothness(k, f"derivative of order {k}")
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = self._deriv_array(k, xs)
        return float(out[0]) if np.ndim(x) == 0 else out

    def _eval_array(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _deriv_array(self, k: int, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval_mp(self, x):
        """eta(x) in mpmath arithmetic (extended-precision summation paths)."""
        raise NotImplementedError

    def mellin_exact(self, s: int) -> Optional[Fraction]:
        """Exact moment integral of x^s * eta(x) over [0, 1] when available."""
        return None


class BumpCutoff(Cutoff):
    def __init__(self):
        super().__init__("bump", "bump", math.inf)

    def _eval_array(self, x):
        out = np.zeros_like(x)
        m = x < BUMP_EDGE
        t = 1.0 - x[m] * x[m]
        out[m] = np.exp(1.0 - 1.0 / t)
        return out

    def _deriv_array(self, k, xs):
        out = bump_deriv(k, xs)
        out[xs < 0.0] = 0.0
        return out

    def eval_mp(self, x):
        import mpmath as mp

        if x >= 1:
            return mp.mpf(0)
        return mp.exp(1 - 1 / (1 - mp.mpf(x) ** 2))


class PolyCutoff(Cutoff):
    def __init__(self, p: int):
        if p < 1:
            raise ValueError(
                "poly cutoff needs order >= 1; order 0 is the discontinuous "
                "indicator, which reproduces the sharp partial-sum pathology"
            )
        super().__init__("poly", f"poly:{p}", p - 1, p=p)

    def _eval_array(self, x):
        out = np.zeros_like(x)
        m = x < 1.0
        out[m] = (1.0 - x[m]) ** self.p
        return out

    def _deriv_array(self, k, xs):
        out = np.zeros_like(xs)
        if k > self.p:
            return out
        m = (xs >= 0.0) & (xs < 1.0)
        coeff = (-1) ** k * math.factorial(self.p) // math.factorial(self.p - k)
        out[m] = coeff * (1.0 - xs[m]) ** (self.p - k)
        return out

    def eval_mp(self, x):
        import mpmath as mp

        if x >= 1:
            return mp.mpf(0)
        return (1 - mp.mpf(x)) ** self.p

    def mellin_exact(self, s: int) -> Fraction:
        return Fraction(math.factorial(s) * math.factorial(self.p),
                        math.factorial(s + self.p + 1))


class IndicatorCutoff(Cutoff):
    def __init__(self):
        super().__init__("indicator", "indicator", -1)

    def _eval_array(self, x):
        return np.where(x <= 1.0, 1.0, 0.0)

    def _deriv_array(self, k, xs):  # pragma: no cover - guarded by require_smoothness
        raise CutoffSmoothnessError("the sharp indicator has no derivatives")

    def eval_mp(self, x):
        import mpmath as mp

        return mp.mpf(1) if x <= 1 else mp.mpf(0)

    def mellin_exact(self, s: int) -> Fraction:
        return Fraction(1, s + 1)


def make_cutoff(kind: str, order: int | None = None) -> Cutoff:
    """Build a cutoff: kind "bump", or "poly" with ``order`` >= 1.

    ``kind`` may also carry the order inline as "poly:p".
    """
    if ":" in kind:
        kind, _, tail = kind.partition(":")
        if order is not None:
            raise ValueError("give the poly order either inline or as argument, not both")
        order = int(tail)
    if kind == "bump":
        if order is not None:
            raise ValueError("bump cutoff takes no order")
        return BumpCutoff()
    if kind == "poly":
        if order is None:
            raise ValueError("poly cutoff needs an order, e.g. make_cutoff('poly', 3)")
        return PolyCutoff(order)
    raise ValueError(f"unknown cutoff kind {kind!r} (expected 'bump' or 'poly[:p]')")


def sharp_indicator() -> Cutoff:
    """The characteristic function of [0, 1]: the pathological reference case."""
    return IndicatorCutoff()


def parse_cutoff(spec: str) -> Cutoff:
    """CLI-facing parser: "bump", "poly:p", or "indicator"."""
    if spec == "indicator":
        return sharp_indicator()
    return make_cutoff(spec)
