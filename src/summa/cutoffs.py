"""Compactly supported cutoff functions with analytic derivatives.

Two families are provided:

* ``bump``    eta(x) = exp(1 - 1/(1 - x^2)) on [0, 1), 0 beyond.  Infinitely
  smooth; every derivative vanishes at the right endpoint.  Its k-th
  derivative is P_k(x) / (1 - x^2)^(2k) * eta(x) where the integer-coefficient
  polynomials P_k satisfy

      P_0 = 1,   P_{k+1} = (1-x^2) [ (1-x^2) P_k' + 4 k x P_k ] - 2 x P_k,

  so derivatives are exact up to floating evaluation of the formula.

* ``poly:p``  eta(x) = (1 - x)^p on [0, 1], 0 beyond.  Smoothness order
  p - 1 at the right endpoint; moments against x^s have the exact closed
  form s! p! / (s + p + 1)!.  At p = 0 it is the sharp indicator of [0, 1],
  endpoint included (0^0 = 1), labelled "indicator": :func:`make_cutoff`
  refuses it (it reproduces the partial-sum pathology), and
  :func:`sharp_indicator` builds it explicitly for the contrast demonstrations.

Both normalize eta(0) = 1.

numpy is imported in the float evaluations only, so the exact paths (the
moments, the mpmath and fixed-point values) run without it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional

from .errors import CutoffSmoothnessError
from .exact import PI_LOWER, bernoulli

if TYPE_CHECKING:
    import numpy as np

__all__ = ["BUMP_EDGE", "Cutoff", "bump_deriv", "bump_em", "bump_taylor0", "make_cutoff",
           "parse_cutoff", "sharp_indicator"]

# Beyond this point the bump's exp() underflows to 0 long before the rational
# prefactors of its derivatives overflow; treating the tail as exactly 0
# avoids inf * 0 = nan.
BUMP_EDGE = 1.0 - 1e-12

# Cache of the integer-coefficient numerator polynomials P_k (index = power).
_BUMP_P: List[List[int]] = [[1]]
# Cache of the bump's Taylor coefficients at 0 (index = power of x^2).
_BUMP_TAYLOR: List[Fraction] = [Fraction(1)]
# The order J of the bump's Euler-Maclaurin expansions at 0 (``bump_em``): its smoothed sums,
# the Grandi test and its plate energy u_t.
_EM_ORDER = 30
# ceil(log2 sup_[0, 1] |eta^(k)|) of the bump for k = 0 .. J, which bound the expansions'
# remainders (``_bump_sup``).  tests/test_smoothed.py regenerates them from Bernstein bounds
# on P_k on pieces of [0, 1] that grow geometrically in y = 1/(1 - x^2); the sups sampled at
# 200 digits lie 0.3 to 0.7 bit below those bounds (2^269.73 at k = 30).
_BUMP_LOG2_SUPS = (0, 2, 5, 10, 15, 22, 29, 36, 44, 52, 60, 69, 78, 88, 97, 107, 117, 127,
                   137, 147, 158, 169, 180, 191, 202, 213, 224, 236, 247, 259, 271)


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


def bump_taylor0(m: int) -> Fraction:
    """c_m, the coefficient of x^(2m) in the bump's Taylor series at 0, exactly.

    With z = x^2, eta = exp(-z / (1 - z)) = exp(-sum_{j>=1} z^j) = sum c_m z^m, and
    eta' = phi' eta gives m c_m = -sum_{j=1}^{m} j c_(m-j), c_0 = 1.
    """
    while len(_BUMP_TAYLOR) <= m:
        k = len(_BUMP_TAYLOR)
        _BUMP_TAYLOR.append(-sum(j * _BUMP_TAYLOR[k - j] for j in range(1, k + 1)) / k)
    return _BUMP_TAYLOR[m]


def _bump_sup(s: int, k: int) -> int:
    """A_k(s) = sum_i C(k, i) s!/(s-i)! 2^_BUMP_LOG2_SUPS[k-i] >= sup_[0, 1] |(x^s eta)^(k)|,
    for k <= J: the Leibniz rule, with |(x^s)^(i)| <= s!/(s-i)! on [0, 1]."""
    return sum(math.comb(k, i) * math.perm(s, i) << _BUMP_LOG2_SUPS[k - i]
               for i in range(min(k, s) + 1))


@functools.lru_cache
def _bump_em_table(s: int, integrated: bool):
    """(D, numerators, bound) of ``bump_em``: term m, c_m zeta(-k) = -c_m B_(k+1)/(k+1) at
    k = s + 2m < J (times -1/k if ``integrated``), is numerators[m] / D x^(-2m), none of them
    0 (no c_m is, and zeta(-k) is 0 at even k > 0 alone); ``bound`` (num, den) is at least
    2 zeta(J) (2 pi)^-J (DLMF 24.9: zeta(J) <= 1 + 2^(1-J), pi > PI_LOWER) times A_J(s), or
    A_(J-1)(s-1) if ``integrated``."""
    J = _EM_ORDER
    terms = [bump_taylor0((k - s) // 2) * bernoulli(k + 1) / (k + 1)
             * (Fraction(1, k) if integrated else -1) for k in range(s, J if s % 2 else 1, 2)]
    D = math.lcm(*(t.denominator for t in terms))
    bound = (Fraction(2**J + 2, 2 ** (J - 1)) * (2 * PI_LOWER) ** -J
             * (_bump_sup(s - 1, J - 1) if integrated else _bump_sup(s, J)))
    return D, tuple(t.numerator * (D // t.denominator) for t in terms), bound.as_integer_ratio()


def bump_em(s: int, x: float, limit, integrated: bool = False):
    """The bump's Euler-Maclaurin expansion at 0 at scale x > 0: its terms' sum, exactly, as
    (num, den), or None where its remainder bound exceeds ``limit(s, x)``, a Fraction.

    f(y) = y^s eta(y/x) has every derivative 0 at y = x, and f = sum_m c_m x^(-2m) y^(s+2m)
    near 0 (``bump_taylor0``), so Euler-Maclaurin at 0 to order J (DLMF 2.10.1, 24.9) gives,
    with zeta(-n) = -B_(n+1)/(n+1) (B_1 = +1/2) and A_J(s) from ``_bump_sup``,

        sum_{n>=1} f(n) = C_s x^(s+1) + sum_{m: s+2m+1 <= J} c_m zeta(-s-2m) x^(-2m) + R,
        |R| <= 2 zeta(J) (2 pi)^-J x^(s+1-J) A_J(s);

    the moment term C_s x^(s+1) is the caller's.  ``integrated`` takes
    F(y) = int_y^x t^(s-1) eta(t/x) dt (s >= 1) instead: sum_{n>=1} F(n) + F(0)/2 - int_0^x F
    is the same terms, each times -1/(s+2m), with no moment term and A_(J-1)(s-1) for A_J(s);
    at s = 3 and x = N/lam it is the plate energy u_t = -1/360 - 1/(1260 x^2) + ....
    With x = a/2^e the terms are one integer over D a^(2M) (Horner's rule in a^2), so
    int / int rounds them once, correctly, and the bound's test is one integer comparison.
    Where x^J < 2^(s+1), by the bit lengths of a and b, None comes first: the bound is
    above 2^180 (x/2)^(s+1) there, above each caller's limit, and no a^(s+1) is formed.
    """
    J = _EM_ORDER
    a, b = x.as_integer_ratio()
    e = b.bit_length() - 1
    if s + 1 >= J * (a.bit_length() - e):
        return None
    D, numerators, (p, q) = _bump_em_table(s, integrated)
    u, v = limit(s, x).as_integer_ratio()
    k = J - s - 1  # bound x^-k <= limit: p v 2^(ek) <= q u a^k
    ak = a ** abs(k)
    if (p * v << e * k) > q * u * ak if k >= 0 else p * v * ak > (q * u << -e * k):
        return None
    a2, num = a * a, 0
    for m, n in enumerate(numerators):  # sum_m n_m a^(2(M-m)) b^(2m)
        num = num * a2 + (n << 2 * m * e)
    return num, D * ak if len(numerators) > 1 else D  # M > 0 at odd s only, and then 2M = k


def _horner(c: List[int], x: np.ndarray) -> np.ndarray:
    import numpy as np

    acc = np.zeros_like(x)
    for v in reversed(c):
        acc = acc * x + v
    return acc


def _bump_eta(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """exp(1 - 1/(1 - x^2)) into ``out``, in place."""
    import numpy as np

    np.multiply(x, x, out=out)
    np.subtract(1.0, out, out=out)
    np.divide(1.0, out, out=out)
    np.subtract(1.0, out, out=out)
    return np.exp(out, out=out)


def _on_support(inside: np.ndarray, x: np.ndarray, out: np.ndarray, formula) -> np.ndarray:
    """``formula(x, out)`` where ``inside`` holds, 0 elsewhere; returns ``out``.

    When every point is inside the formula runs in place on the whole array;
    otherwise only on the points inside, gathered first, so that ``out`` may
    be x itself and no formula sees a point past the support.
    """
    if inside.all():
        return formula(x, out)
    xs = x[inside]
    out.fill(0.0)
    out[inside] = formula(xs, xs)
    return out


def bump_deriv(k: int, u: np.ndarray) -> np.ndarray:
    """k-th derivative of exp(1 - 1/(1 - u^2)) at every real u; 0 where |u| >= BUMP_EDGE."""
    import numpy as np

    out = np.zeros_like(u)
    m = np.abs(u) < BUMP_EDGE
    um = u[m]
    t = 1.0 - um * um
    out[m] = _horner(_bump_numerator(k), um) / t ** (2 * k) * np.exp(1.0 - 1.0 / t)
    return out


class Cutoff:
    """A smoothing function on [0, infinity) supported in [0, 1], eta(0+) = 1.

    The kernels take the cutoff itself and evaluate it through ``eval``.
    Each subclass supplies its float formula (``_eval_array``, which writes
    eta into a given array), its analytic derivatives (``_deriv_array``) and
    its mpmath formula (``eval_mp``, the tests' reference: mpmath is a ``test`` extra);
    the bump also has a fixed-point integer pass (``eval_fixed``) for its exact drift.
    ``smoothness_order`` is math.inf for the bump and p - 1 for poly:p, -1
    for the sharp indicator at p = 0.
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

    def eval(self, x, out=None):
        """eta(x) for scalar or array x >= 0.

        An array result is written into ``out`` (a float array of x's shape,
        which may be x itself) when one is given, else into a new array.
        """
        import numpy as np

        x = np.asarray(x, dtype=float)
        if not x.ndim:
            return float(self._eval_array(x.reshape(1), np.empty(1))[0])
        return self._eval_array(x, np.empty_like(x) if out is None else out)

    def deriv(self, k: int, x):
        """k-th derivative of eta at x (analytic formula, not differences)."""
        import numpy as np

        if k < 0:
            raise ValueError(f"derivative order must be >= 0, got {k}")
        if k == 0:
            return self.eval(x)
        self.require_smoothness(k, f"derivative of order {k}")
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        out = self._deriv_array(k, xs)
        return float(out[0]) if np.ndim(x) == 0 else out

    def _eval_array(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _deriv_array(self, k: int, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval_mp(self, x):
        """eta(x) in mpmath, from the ``test`` extra: the exact paths' tests' reference."""
        raise NotImplementedError

    def mellin_exact(self, s: int) -> Optional[Fraction]:
        """Exact moment integral of x^s * eta(x) over [0, 1] when available."""
        return None


class BumpCutoff(Cutoff):
    def __init__(self):
        super().__init__("bump", "bump", math.inf)

    def _eval_array(self, x, out):
        return _on_support(x < BUMP_EDGE, x, out, _bump_eta)

    def _deriv_array(self, k, xs):
        out = bump_deriv(k, xs)
        out[xs < 0.0] = 0.0
        return out

    def eval_mp(self, x):
        import mpmath as mp

        if x >= 1:
            return mp.mpf(0)
        return mp.exp(1 - 1 / (1 - mp.mpf(x) ** 2))

    def eval_fixed(self, top: float, W: int) -> List[int]:
        """[eta(m / top) * 2^W] as integers, for m = 1..ceil(top).

        With top = P/q exactly, 1 - 1/(1 - x^2) = -b at x = m/top, where
        b = m^2 q^2 / (P^2 - m^2 q^2).  B = floor(b 2^W) is one exact integer
        division and the in-repo fixed-point exp of -B / 2^W gives the value
        (``_fixed.exp_pass``): each integer is within 2 of the exact
        eta(m / top) 2^W (the exp is within 1 + 2^-10 units, and the floor of b
        adds less than one).  A total of these times n^s over n < N is then
        within 2 N^(s+1) 2^-W of its exact value, and ``smoothed._drift_bits``
        takes a W that keeps this under 2^-15 of one rounding at the drifts'
        precision.  eta falls with m, so the pass stops at the first value
        below a unit and the rest are 0.
        """
        from ._fixed import exp_pass

        P, q = float(top).as_integer_ratio()
        P2 = P * P
        squares = ((m * q) ** 2 for m in range(1, math.ceil(top)))  # m = ceil(top) is at x >= 1
        return exp_pass(((a << W) // (P2 - a) for a in squares), W, math.ceil(top))


class PolyCutoff(Cutoff):
    def __init__(self, p: int):
        kind = "poly" if p else "indicator"
        super().__init__(kind, f"poly:{p}" if p else kind, p - 1, p=p)

    def _eval_array(self, x, out):
        import numpy as np

        def formula(xs, ys):
            np.subtract(1.0, xs, out=ys)
            ys **= self.p
            return ys

        return _on_support(x <= 1.0, x, out, formula)

    def _deriv_array(self, k, xs):
        import numpy as np

        out = np.zeros_like(xs)
        if k > self.p:
            return out
        m = (xs >= 0.0) & (xs < 1.0)
        coeff = (-1) ** k * math.factorial(self.p) // math.factorial(self.p - k)
        out[m] = coeff * (1.0 - xs[m]) ** (self.p - k)
        return out

    def eval_mp(self, x):
        import mpmath as mp

        if x > 1:
            return mp.mpf(0)
        return (1 - mp.mpf(x)) ** self.p

    def mellin_exact(self, s: int) -> Fraction:
        return Fraction(math.factorial(s) * math.factorial(self.p),
                        math.factorial(s + self.p + 1))


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
        if order < 1:
            raise ValueError(
                "poly cutoff needs order >= 1; order 0 is the discontinuous "
                "indicator, which reproduces the sharp partial-sum pathology"
            )
        return PolyCutoff(order)
    raise ValueError(f"unknown cutoff kind {kind!r} (expected 'bump' or 'poly[:p]')")


def sharp_indicator() -> Cutoff:
    """The characteristic function of [0, 1], poly:0: the pathological reference case."""
    return PolyCutoff(0)


def parse_cutoff(spec: str) -> Cutoff:
    """CLI-facing parser: "bump", "poly:p", or "indicator"."""
    if spec == "indicator":
        return sharp_indicator()
    return make_cutoff(spec)
