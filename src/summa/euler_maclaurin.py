"""Euler-Maclaurin machinery: the tail identity, Stirling series, divergence.

The tail identity, for f at least C^(s+2) vanishing with its derivatives up
to order s+1 at the support end N, reads

    integral_0^N f - f(0)/2 - sum_{n=1}^N f(n)
        = sum_{k=2}^{s+1} (B_k / k!) f^(k-1)(0)  +  O(N ||f||_{C^{s+2}}).

``em_tail`` evaluates both sides and their residual.  The Stirling instance
(f = log x) gives the classic series

    g(n) := log n! - (n + 1/2) log n + n - (1/2) log 2pi
          = sum_m B_{2m} / (2m (2m-1) n^{2m-1}) + remainder,

with the remainder bounded by the magnitude of the first omitted term
(|B_{2T+2}| / ((2T+1)(2T+2) n^{2T+1})).  For fixed n the terms eventually
grow -- the series diverges -- and ``em_divergence_demo`` locates the first
growth index by exact rational scan.

Note on orientation: one classical presentation writes the sum-minus-integral
combination with the constant +log(2pi)/2 folded in on the other side; here
g(n) is normalized so that it *equals* the Bernoulli series above (g -> 0 is
Stirling's approximation).  One canonical internal form avoids sign bugs.

numpy and the quadrature layer are imported in the float paths only (the
``SmoothFunctionSpec`` functions, ``em_tail`` and ``sup_norm_check``), so the
Stirling series and the divergence scan run without them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple, Tuple

from .errors import GrowthNotFoundError, NonFiniteResultError
from .exact import bernoulli

if TYPE_CHECKING:
    from .cutoffs import Cutoff

__all__ = [
    "SmoothFunctionSpec",
    "monomial_cutoff_spec",
    "polynomial_taper_spec",
    "EmTailResult",
    "em_tail",
    "sup_norm_check",
    "stirling_g",
    "stirling_g_mp",
    "StirlingSeries",
    "stirling_series",
    "stirling_series_exact",
    "stirling_gap",
    "DivergenceScan",
    "em_divergence_demo",
]


class SmoothFunctionSpec:
    """A smooth function with analytic derivatives and declared support end.

    ``regularity`` is the smoothness class on the support; ``vanishing_order``
    is the largest j such that f, f', ..., f^(j) all vanish at
    ``support_end`` (math.inf when everything does).
    """

    def __init__(self, eval_fn: Callable, deriv_fn: Callable, support_end: float,
                 regularity, vanishing_order, label: str = ""):
        self._eval = eval_fn
        self._deriv = deriv_fn
        self.support_end = float(support_end)
        self.regularity = regularity
        self.vanishing_order = vanishing_order
        self.label = label

    def eval(self, x):
        import numpy as np

        return self._eval(np.asarray(x, dtype=float))

    def __call__(self, x):
        return self.eval(x)

    def deriv(self, k: int, x):
        import numpy as np

        if k == 0:
            return self.eval(x)
        return self._deriv(k, np.asarray(x, dtype=float))

    def __repr__(self):
        return f"SmoothFunctionSpec({self.label!r})"


def monomial_cutoff_spec(s: int, cutoff: Cutoff, N: float) -> SmoothFunctionSpec:
    """f(x) = x^s * eta(x/N), derivatives by the Leibniz rule.

    f^(m)(x) = sum_{j<=min(m,s)} C(m,j) s!/(s-j)! x^(s-j) eta^(m-j)(x/N) / N^(m-j).
    """
    import numpy as np

    if s < 0:
        raise ValueError(f"monomial exponent must be >= 0, got {s}")
    N = float(N)

    def ev(x):
        return x**s * cutoff.eval(x / N)

    def dv(m, x):
        x = np.atleast_1d(x)
        acc = np.zeros_like(x)
        for j in range(0, min(m, s) + 1):
            c = math.comb(m, j) * math.factorial(s) // math.factorial(s - j)
            acc = acc + c * x ** (s - j) * cutoff.deriv(m - j, x / N) / N ** (m - j)
        return acc

    return SmoothFunctionSpec(
        ev, dv, support_end=N,
        regularity=cutoff.smoothness_order,
        vanishing_order=cutoff.smoothness_order,
        label=f"x^{s} * {cutoff.label}(x/N), N={N:g}",
    )


def polynomial_taper_spec(N: float, power: int = 3) -> SmoothFunctionSpec:
    """f(x) = (1 - x/N)^power on [0, N], 0 beyond.

    Vanishes at N together with derivatives up to order power - 1; the
    power-th derivative is the nonzero constant (-1/N)^power * power!.
    """
    import numpy as np

    N = float(N)
    if power < 1:
        raise ValueError("power must be >= 1")

    def ev(x):
        x = np.atleast_1d(x)
        out = np.zeros_like(x)
        m = x <= N
        out[m] = (1.0 - x[m] / N) ** power
        return out

    def dv(k, x):
        x = np.atleast_1d(x)
        out = np.zeros_like(x)
        if k > power:
            return out
        m = x <= N
        c = (-1.0 / N) ** k * (math.factorial(power) // math.factorial(power - k))
        out[m] = c * (1.0 - x[m] / N) ** (power - k)
        return out

    return SmoothFunctionSpec(
        ev, dv, support_end=N, regularity=math.inf, vanishing_order=power - 1,
        label=f"(1 - x/{N:g})^{power}",
    )


class EmTailResult(NamedTuple):
    lhs: float
    series: float
    residual: float


def em_tail(f: SmoothFunctionSpec, N: int, s: int, tol: float = 1e-10) -> EmTailResult:
    """Evaluate the tail identity at support end N and Bernoulli order s.

    lhs    = integral_0^N f - f(0)/2 - sum_{n=1}^N f(n)
    series = sum_{k=2}^{s+1} (B_k / k!) f^(k-1)(0)

    The residual lhs - series is O(N ||f||_{C^{s+2}}).  Functions whose
    declared regularity is below C^{s+2}, or whose derivatives fail to vanish
    at N up to order s+1, are rejected.
    """
    import numpy as np

    from .quadrature import integrate

    if s < 1:
        raise ValueError(f"em_tail requires s >= 1, got {s}")
    if N < 1 or N != int(N):
        raise ValueError(f"em_tail requires integer N >= 1, got {N}")
    N = int(N)
    if f.regularity < s + 2:
        raise ValueError(
            f"{f!r} declares C^{f.regularity} regularity; the identity needs C^{s + 2}"
        )
    if f.vanishing_order < s + 1:
        raise ValueError(
            f"{f!r} vanishes at its support end only to order {f.vanishing_order}; "
            f"the identity needs order {s + 1}"
        )
    end = f.support_end
    scale = max(1.0, float(np.max(np.abs(f.eval(np.linspace(0.0, end, 65))))))
    for j in range(0, s + 2):
        v = float(np.atleast_1d(f.deriv(j, np.array([end])))[0])
        if abs(v) > 1e-9 * scale:
            raise ValueError(
                f"{f!r}: derivative of order {j} is {v:.3e} at the support end, "
                "violating the vanishing assumption"
            )

    quad = integrate(f.eval, 0.0, float(N), tol=tol)
    total = math.fsum(np.atleast_1d(f.eval(np.arange(1, N + 1, dtype=float))).tolist())
    f0 = float(np.atleast_1d(f.eval(np.array([0.0])))[0])
    lhs = quad.value - 0.5 * f0 - total

    series = 0.0
    for k in range(2, s + 2):
        dk = float(np.atleast_1d(f.deriv(k - 1, np.array([0.0])))[0])
        series += float(bernoulli(k)) / math.factorial(k) * dk
    return EmTailResult(lhs, series, lhs - series)


_SUP_NORM_SAMPLES = 4097


def sup_norm_check(s: int, cutoff: Cutoff, N: float) -> float:
    """Grid-sampled sup of |d^(s+2)/dx^(s+2) [x^s eta(x/N)]| over the support.

    Scales as 1/N^2 (doubling N divides it by ~4): every Leibniz term carries
    at least two powers of 1/N once x ~ N is factored out.  At s = 2, with
    the plate support end N/lam as N, this is sup |F^(5)| of ``casimir``.
    """
    import numpy as np

    cutoff.require_smoothness(s + 2, "the sup-norm bound")
    spec = monomial_cutoff_spec(s, cutoff, N)
    xs = np.linspace(0.0, float(N), _SUP_NORM_SAMPLES)
    vals = np.abs(np.atleast_1d(spec.deriv(s + 2, xs)))
    return float(np.max(vals))


_DPS = 50  # working digits of the Stirling gap


def stirling_g_mp(n: int):
    """g(n) = log n! - (n + 1/2) log n + n - log(2pi)/2 as a 50-digit mpmath value.

    log n! is mpmath's loggamma(n + 1), O(1) in n; the combination cancels
    ~log10(n^2) digits, which is why a float64 version cannot feed the
    remainder-bound checks.
    """
    import mpmath as mp

    if n < 1:
        raise ValueError(f"stirling_g requires n >= 1, got {n}")
    with mp.workdps(_DPS):
        g = mp.loggamma(n + 1) - (mp.mpf(n) + mp.mpf(1) / 2) * mp.log(n) + n - mp.log(2 * mp.pi) / 2
        return +g


def stirling_g(n: int) -> float:
    """Float value of the Stirling gap g(n); g(n) -> 0 is Stirling's formula."""
    return float(stirling_g_mp(n))


class StirlingSeries(NamedTuple):
    value: float
    bound: float


def stirling_term(n: int, m: int) -> Fraction:
    """Exact m-th Stirling-series term B_{2m} / (2m (2m-1) n^{2m-1})."""
    return bernoulli(2 * m) / (2 * m * (2 * m - 1) * Fraction(n) ** (2 * m - 1))


def stirling_series_exact(n: int, terms: int) -> Tuple[Fraction, Fraction]:
    """Exact partial sum of the Stirling series and the remainder bound.

    value = sum_{m=1}^{terms} B_{2m} / (2m (2m-1) n^{2m-1});
    bound = |B_{2 terms + 2}| / ((2 terms + 1)(2 terms + 2) n^{2 terms + 1}).
    """
    if n < 1:
        raise ValueError(f"stirling_series requires n >= 1, got {n}")
    if terms < 1:
        raise ValueError(f"stirling_series requires terms >= 1, got {terms}")
    value = sum(stirling_term(n, m) for m in range(1, terms + 1))
    return value, abs(stirling_term(n, terms + 1))


def stirling_series(n: int, terms: int) -> StirlingSeries:
    """``stirling_series_exact`` as floats; a value past float64 range raises
    :class:`NonFiniteResultError`."""
    value, bound = stirling_series_exact(n, terms)
    try:
        return StirlingSeries(float(value), float(bound))
    except OverflowError as exc:
        raise NonFiniteResultError(f"the Stirling series at n = {n} with {terms} terms "
                                   "is past float64 range") from exc


def stirling_gap(n: int, terms: int) -> float:
    """|stirling_g(n) - series(n, terms)| with the difference taken in mpmath.

    The bounds being checked reach below float64 resolution of g(n) itself
    (e.g. ~4e-19 at n = 50, terms = 4), so the subtraction must happen before
    any rounding to float.
    """
    import mpmath as mp

    value, _ = stirling_series_exact(n, terms)
    with mp.workdps(_DPS):
        gap = abs(stirling_g_mp(n) - mp.mpf(value.numerator) / value.denominator)
        return float(gap)


class DivergenceScan(NamedTuple):
    m_star: int
    terms: Tuple[Fraction, ...]


def em_divergence_demo(n: int, max_terms: int) -> DivergenceScan:
    """Locate the first index where the Stirling terms start growing.

    Returns m_star, the smallest m >= 2 with |term_m| > |term_{m-1}|, plus
    the exact terms scanned -- the concrete witness that the Euler-Maclaurin
    series diverges for fixed n.  Raises ``GrowthNotFoundError`` when no
    growth shows up within ``max_terms`` (increase max_terms).
    """
    if n < 1:
        raise ValueError(f"em_divergence_demo requires n >= 1, got {n}")
    if max_terms < 2:
        raise ValueError(f"max_terms must be >= 2, got {max_terms}")
    terms = [stirling_term(n, 1)]
    for m in range(2, max_terms + 1):
        terms.append(stirling_term(n, m))
        if abs(terms[-1]) > abs(terms[-2]):
            return DivergenceScan(m, tuple(terms))
    raise GrowthNotFoundError(
        f"no term growth within {max_terms} terms at n = {n}; increase max_terms"
    )
