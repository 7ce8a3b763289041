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
first use).  The monomial one is Euler's

    sum n^m t^n = t A_m(t) / (1-t)^(m+1),

with A_m the Eulerian polynomial, sum_k A(m, k) t^k over k < m (A_0 = 1), and
the others are read off it: sum (-1)^(n-1) n^m t^n = -sum n^m (-t)^n.  Grandi's
series is alt-zeta:0 and the zero series is geometric:0, each under its own
label.  A closed form raises ZeroDivisionError at a pole, and the geometric
one raises AbelInnerSeriesError past its power series' radius 1/|r|.

The exact terms feed the Abel sums (correctly rounded where no closed form
exists) and the float ``term_array`` the Cesaro means; numpy is imported in
``term_array`` only, so building a series and its exact terms does not load it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Callable, List, NamedTuple, Optional, Tuple, Union

from .errors import AbelInnerSeriesError

if TYPE_CHECKING:
    import numpy as np

__all__ = ["SeriesOracle", "parse_key", "get_series", "monomial_genfun", "alternating_genfun"]


class SeriesOracle(NamedTuple):
    """A deterministic sequence with exact and floating term evaluation."""

    label: str
    term_exact: Callable[[int], Fraction]
    term_array: Callable[[np.ndarray], np.ndarray]
    abel_closed_form: Optional[Callable[[Fraction], Fraction]] = None

    def __repr__(self):
        return f"SeriesOracle({self.label!r})"


def _eulerian(m: int) -> List[int]:
    """Eulerian numbers A(m, 0..m-1); A_0 = [1] is the one-entry special case.

    A(n, k) = (k+1) A(n-1, k) + (n-k) A(n-1, k-1), from A_1 = [1].
    """
    row = [1]
    for n in range(2, m + 1):
        pad = [0, *row, 0]
        row = [(k + 1) * pad[k + 1] + (n - k) * pad[k] for k in range(n)]
    return row


def _monomial_ratio(m: int) -> Callable[[Fraction], Fraction]:
    """t -> t A_m(t) / (1-t)^(m+1) at rational t = P/Q, on any t != 1.

    One integer Horner pass gives the homogeneous sum_k A(m, k) P^k Q^(m-k),
    so the value is P times it over (Q-P)^(m+1), reduced once.  The O(m^2)
    Eulerian row is built on the first call and kept; two threads making the
    first call at once may both build it, to equal lists.
    """
    row: Optional[List[int]] = None

    def ratio(t: Fraction) -> Fraction:
        nonlocal row
        if row is None:
            row = _eulerian(m)
        P, Q = t.numerator, t.denominator
        acc, q = 0, Q ** (m + 1 - len(row))  # Q, or 1 at m = 0
        for c in reversed(row):
            acc = acc * P + c * q
            q *= Q
        return Fraction(P * acc, (Q - P) ** (m + 1))

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


def _monomial_series(s: int) -> SeriesOracle:
    def term_array(n, s=s):
        import numpy as np

        return np.asarray(n, dtype=float) ** s

    return SeriesOracle(
        label=f"monomial:{s}" if s not in (0, 1) else ("S0" if s == 0 else "S1"),
        term_exact=lambda n, s=s: Fraction(n) ** s,
        term_array=term_array,
        abel_closed_form=monomial_genfun(s),
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
    )


def _geometric(r: Fraction) -> SeriesOracle:
    def closed(t: Fraction) -> Fraction:
        rt = r * Fraction(t)
        if abs(rt) > 1:
            raise AbelInnerSeriesError(f"the power series of geometric:{r} diverges at t = {t}: "
                                       "its radius 1/|r| is below 1")
        return rt / (1 - rt)  # the pole at rt = 1 raises ZeroDivisionError

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
    "grandi": lambda _: _alt_zeta_series(0)._replace(label="grandi"),
    "zero": lambda _: _geometric(Fraction(0))._replace(label="zero"),
}


def get_series(key: str) -> SeriesOracle:
    """Resolve a catalog key; a malformed key raises KeyError before any compute."""
    family, param = parse_key(key)
    return _BUILDERS[family](param)
