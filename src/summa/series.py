"""Series catalog: described sequences n -> a_n with exact and float terms.

Catalog keys (used by the CLI and tests; ``parse_key`` owns the grammar):

    "S0"           a_n = 1
    "S1"           a_n = n
    "grandi"       a_n = (-1)^(n-1)
    "monomial:s"   a_n = n^s,               integer s >= 0
    "alt-zeta:s"   a_n = (-1)^(n-1) n^(-s), integer s
    "geometric:r"  a_n = r^n,               rational r ("1/2" or "0.5")
    "zero"         a_n = 0

Whitespace around a key is ignored; S0 and S1 are monomial:0 and monomial:1.

Where the generating function f(t) = sum a_n t^n has a rational closed form
it is attached to the oracle (exact evaluation at rational t, built on its
first use).  The monomial one comes from t/(1-t) by repeated application of
t d/dt,

    sum n^m t^n = Q_m(t) / (1-t)^(m+1),  Q_0 = t,  Q_{m+1} = t [Q'(1-t) + (m+1) Q],

and the others are read off it: sum (-1)^(n-1) n^m t^n = -sum n^m (-t)^n is
-Q_m(-t) / (1+t)^(m+1).  Grandi's series is alt-zeta:0 and the zero series is
geometric:0, each under its own label.

Both closed forms also carry float bounds on log2 |f(t)| that cost no build,
so a caller can tell a value past float64 range before building Q_m (O(m^2)
Fractions).  With a = -ln t, the monomial sum is within the largest term of
its integral m! / a^(m+1), and the alternating one is -Li_{-m}(-t), whose
Jonquiere expansion m! sum_k (a + i pi (2k - 1))^-(m+1) is led by the k = 0, 1
pair 2 m! r^-(m+1) cos((m+1) theta), a + i pi = r e^(i theta).

numpy is imported in the float paths only (``term_array``, ``term_float``),
so building a series and its exact terms does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple, Union

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SeriesOracle", "parse_key", "get_series", "monomial_genfun", "alternating_genfun"]


@dataclass(frozen=True)
class SeriesOracle:
    """A deterministic sequence with exact and floating term evaluation."""

    label: str
    term_exact: Callable[[int], Fraction]
    term_array: Callable[[np.ndarray], np.ndarray]
    abel_closed_form: Optional[Callable[[Fraction], Fraction]] = None
    # t -> (lo, hi) with 2^lo <= |abel_closed_form(t)| <= 2^hi, in floats, no build
    abel_log2_bounds: Optional[Callable[[float], Tuple[float, float]]] = None

    def term_float(self, n: int) -> float:
        import numpy as np

        return float(self.term_array(np.array([n], dtype=float))[0])

    def __repr__(self):
        return f"SeriesOracle({self.label!r})"


def _tddt(coeffs: List[Fraction], m: int) -> List[Fraction]:
    """One step Q -> t [Q' (1 - t) + (m+1) Q]; index = power of t."""
    deriv = [i * coeffs[i] for i in range(1, len(coeffs))] or [Fraction(0)]
    out = [Fraction(0)] * (len(coeffs) + 2)
    for i, c in enumerate(deriv):
        out[i + 1] += c
        out[i + 2] -= c
    for i, c in enumerate(coeffs):
        out[i + 1] += (m + 1) * c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _genfun_numerator(m: int) -> List[Fraction]:
    """Q_m: m rounds of ``_tddt`` from t."""
    coeffs = [Fraction(0), Fraction(1)]
    for k in range(m):
        coeffs = _tddt(coeffs, k)
    return coeffs


def _monomial_ratio(m: int) -> Callable[[Fraction], Fraction]:
    """t -> Q_m(t) / (1-t)^(m+1) at rational t, on any t != 1.

    The O(m^2) numerator is built on the first call and kept; two threads
    making the first call at once may both build it, to equal lists.
    """
    coeffs: Optional[List[Fraction]] = None

    def ratio(t: Fraction) -> Fraction:
        nonlocal coeffs
        if coeffs is None:
            coeffs = _genfun_numerator(m)
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * t + c
        return acc / (1 - t) ** (m + 1)

    return ratio


def monomial_genfun(m: int) -> Callable[[Fraction], Fraction]:
    """Closed form of sum_{n>=1} n^m t^n as an exact rational function of t."""
    ratio = _monomial_ratio(m)

    def f(t: Fraction) -> Fraction:
        t = Fraction(t)
        if abs(t) >= 1:
            raise ZeroDivisionError("generating function pole at |t| >= 1")
        return ratio(t)

    return f


def alternating_genfun(m: int) -> Callable[[Fraction], Fraction]:
    """Closed form of sum_{n>=1} (-1)^(n-1) n^m t^n = -sum n^m (-t)^n, exact in t.

    The monomial closed form at -t, negated, on any t != -1.
    """
    ratio = _monomial_ratio(m)
    return lambda t: -ratio(-Fraction(t))


def _log2_sum(x: float, y: float, sign: int) -> float:
    """log2(2^x + sign 2^y); -inf where the difference is not positive."""
    if sign < 0 and y >= x:
        return -math.inf
    hi, lo = max(x, y), min(x, y)
    return hi + math.log1p(sign * 2.0 ** (lo - hi)) / math.log(2.0)


def _log2_factorial(m: int) -> float:
    return math.lgamma(m + 1) / math.log(2.0)


def _monomial_log2_bounds(m: int) -> Callable[[float], Tuple[float, float]]:
    """Float bounds on log2 of sum n^m t^n, 0 < t < 1, from its integral.

    f(x) = x^m e^(-a x) with a = -ln t rises to its peak (m / (e a))^m (1 at
    m = 0) and then falls, so the sum over n >= 1 is within that peak of the
    integral over x >= 0, m! / a^(m+1).
    """
    def bounds(t: float) -> Tuple[float, float]:
        a = -math.log(t)
        integral = _log2_factorial(m) - (m + 1) * math.log2(a)
        peak = m * (math.log2(m / a) - math.log2(math.e)) if m else 0.0
        return _log2_sum(integral, peak, -1), _log2_sum(integral, peak, 1)

    return bounds


def _alternating_log2_bounds(m: int) -> Callable[[float], Tuple[float, float]]:
    """Float bounds on log2 |sum (-1)^(n-1) n^m t^n|, 0 < t < 1.

    At m = 0 the sum is t / (1 + t) < 1.  For m >= 1 the k = 0, 1 pair of the
    Jonquiere expansion (module docstring) is 2 m! r^-(m+1) cos((m+1) theta),
    and every other term has modulus at least 3 pi, which bounds their sum by
    6 m! (3 pi)^-(m+1).  The cosine gives up (m+1) 1e-14 for the rounding of
    (m+1) theta.
    """
    def bounds(t: float) -> Tuple[float, float]:
        if m == 0:
            return -math.inf, 0.0
        a = -math.log(t)
        fact = _log2_factorial(m)
        pair = 1.0 + fact - (m + 1) * math.log2(math.hypot(a, math.pi))
        rest = math.log2(6.0) + fact - (m + 1) * math.log2(3.0 * math.pi)
        cos = abs(math.cos((m + 1) * math.atan2(math.pi, a))) - (m + 1) * 1e-14
        lo = _log2_sum(pair + math.log2(cos), rest, -1) if cos > 0 else -math.inf
        return lo, _log2_sum(pair, rest, 1)

    return bounds


def _monomial_series(s: int) -> SeriesOracle:
    def term_array(n, s=s):
        import numpy as np

        return np.asarray(n, dtype=float) ** s

    return SeriesOracle(
        label=f"monomial:{s}" if s not in (0, 1) else ("S0" if s == 0 else "S1"),
        term_exact=lambda n, s=s: Fraction(n) ** s,
        term_array=term_array,
        abel_closed_form=monomial_genfun(s),
        abel_log2_bounds=_monomial_log2_bounds(s),
    )


def _alt_zeta_series(s: int) -> SeriesOracle:
    def term_exact(n: int, s=s) -> Fraction:
        return Fraction((-1) ** (n - 1)) * Fraction(1, n**s) if s > 0 else (
            Fraction((-1) ** (n - 1)) * Fraction(n) ** (-s))

    def term_array(n, s=s):
        import numpy as np

        n = np.asarray(n, dtype=float)
        signs = np.where(np.asarray(n, dtype=np.int64) % 2 == 1, 1.0, -1.0)  # (-1)^(n-1)
        return signs * n ** (-float(s))

    return SeriesOracle(
        label=f"alt-zeta:{s}",
        term_exact=term_exact,
        term_array=term_array,
        abel_closed_form=alternating_genfun(-s) if s <= 0 else None,
        abel_log2_bounds=_alternating_log2_bounds(-s) if s <= 0 else None,
    )


def _geometric(r: Fraction) -> SeriesOracle:
    def closed(t: Fraction) -> Fraction:
        t = Fraction(t)
        if abs(r * t) >= 1:
            raise ZeroDivisionError("geometric generating function pole at |r t| >= 1")
        return r * t / (1 - r * t)

    def term_array(n, r=float(r)):
        import numpy as np

        return r ** np.asarray(n, dtype=float)

    return SeriesOracle(
        label=f"geometric:{r}",
        term_exact=lambda n, r=r: r**n,
        term_array=term_array,
        abel_closed_form=closed,
    )


def _geometric_ratio(text: str) -> Fraction:
    """r of geometric:r: a rational whose float terms r^n need float(r) to exist."""
    r = Fraction(text)
    try:
        float(r)
    except OverflowError:
        raise ValueError(f"geometric ratio {text!r} is past float64 range") from None
    return r


_PARAM_PARSERS = {"monomial": int, "alt-zeta": int, "geometric": _geometric_ratio}


def parse_key(key: str) -> Tuple[str, Union[int, Fraction, None]]:
    """(family, parameter) of a catalog key; a malformed key raises KeyError.

    The families are monomial (int s >= 0; S0 and S1 are s = 0 and 1),
    alt-zeta (int s), geometric (rational r within float64 range), grandi
    and zero (no parameter).
    """
    key = key.strip()
    if key in ("S0", "S1"):
        return "monomial", int(key[1])
    if key in ("grandi", "zero"):
        return key, None
    family, colon, text = key.partition(":")
    parse = _PARAM_PARSERS.get(family) if colon else None
    if parse is None:
        raise KeyError(f"unknown series key {key!r}")
    try:
        param = parse(text)
    except (ValueError, ZeroDivisionError):
        raise KeyError(f"malformed parameter in series key {key!r}") from None
    if family == "monomial" and param < 0:
        raise KeyError(f"monomial exponent must be >= 0, got {param}")
    return family, param


_BUILDERS = {
    "monomial": _monomial_series,
    "alt-zeta": _alt_zeta_series,
    "geometric": _geometric,
    "grandi": lambda _: replace(_alt_zeta_series(0), label="grandi"),
    "zero": lambda _: replace(_geometric(Fraction(0)), label="zero"),
}


def get_series(key: str) -> SeriesOracle:
    """Resolve a catalog key; a malformed key raises KeyError before any compute."""
    family, param = parse_key(key)
    return _BUILDERS[family](param)
