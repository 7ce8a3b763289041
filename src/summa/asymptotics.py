"""Asymptotic-series utilities: flat functions, optimal truncation, Borel sums.

A series sum a_n (x-a)^n is asymptotic to f at a when the order-N remainder
vanishes faster than (x-a)^N as x -> a+.  The flat function exp(-z^-beta) has
all right-derivatives zero at 0 (``flat_derivative_probe`` shows them
vanish), so adding it to f keeps every such remainder's order: asymptotic
expansions do not pin down the function.

For factorial-type remainders R_N ~ N! alpha^N the best truncation order
sits at N ~ 1/alpha; ``optimal_truncation`` finds the exact discrete argmin.
``borel_sum`` evaluates (1/x) integral_0^inf e^(-z/x) B(z) dz with
B(z) = sum a_n z^n / n!.

numpy and the quadrature layer are imported in ``borel_sum`` only, so the
truncation scan, the flat-function probes and the partial sums run without
them.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Sequence, Union

from .errors import BorelSummabilityError, NonFiniteResultError

__all__ = [
    "CoefficientOracle",
    "flat_function",
    "flat_derivative_probe",
    "optimal_truncation",
    "borel_sum",
    "gyro_partial",
]


class CoefficientOracle(NamedTuple):
    """Coefficients a_n with a declared growth class for tail control.

    ``exp_rate`` is a constant c with |B(z)| <= M e^(c z) for the Borel
    transform B(z) = sum a_n z^n / n! (0 for bounded transforms, r for
    geometric coefficients r^n).  ``borel_transform``, when supplied, is the
    closed form of B and is used instead of partial summation.  ``a`` returns a
    float or an exact rational; ``borel_sum`` takes an exact one's logarithm
    without rounding it, so its terms stay where a(n) is below float64 range.
    """

    a: Callable[[int], Union[float, Fraction]]
    label: str = ""
    exp_rate: float = 0.0
    borel_transform: Optional[Callable[[float], float]] = None


def flat_function(beta: float, z: float) -> float:
    """f0(z) = exp(-z^-beta), 0 < beta < 1: positive, yet flat at 0+."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    if z <= 0.0:
        if z == 0.0:
            return 0.0
        raise ValueError(f"flat_function requires z >= 0, got {z}")
    return math.exp(-(z**-beta))


def flat_derivative_probe(beta: float, n: int, z_grid: Sequence[float]) -> List[float]:
    """Divided-difference estimates of the n-th right derivative of f0 at 0.

    For each scale h in z_grid the forward difference
    sum_j (-1)^(n-j) C(n,j) f0(j h) / h^n is returned; every entry tends to
    0 as h -> 0, witnessing that all right-derivatives vanish.  A difference
    whose binomials or h^n leave float64 range raises
    :class:`NonFiniteResultError`.
    """
    if n < 0:
        raise ValueError(f"derivative order must be >= 0, got {n}")
    out = []
    for h in z_grid:
        h = float(h)
        if h <= 0:
            raise ValueError("z_grid entries must be positive")
        try:
            acc = 0.0
            for j in range(n + 1):
                val = flat_function(beta, j * h) if j > 0 else 0.0
                acc += (-1) ** (n - j) * math.comb(n, j) * val
            out.append(acc / h**n)
        except (OverflowError, ZeroDivisionError) as exc:
            raise NonFiniteResultError(
                f"the order-{n} difference at h = {h!r} leaves float64 range") from exc
    return out


def optimal_truncation(alpha) -> int:
    """Exact argmin over N >= 1 of the remainder model N! alpha^N.

    ``alpha`` in (0, 1) as a float, Fraction, or string like "1/137"; floats
    are dyadic rationals, so the answer is exact either way.  The term ratio
    is (N+1)! alpha^(N+1) / (N! alpha^N) = (N+1) alpha, so the terms fall
    while N alpha <= 1 and rise after: the argmin is floor(1/alpha).  Ties
    (exact when 1/alpha is an integer: the terms at N - 1 and N coincide)
    resolve to the larger index, the plateau end.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    return alpha.denominator // alpha.numerator


_BOREL_TERMS = 100_000  # the partial sums' terms at one evaluation of the Borel integrand


def borel_sum(coeffs: CoefficientOracle, x: float, tol: float) -> float:
    """(1/x) integral_0^inf e^(-z/x) B(z) dz, B the Borel transform of coeffs.

    The integration range truncates at z_max = ln(10 / (tol x decay)) / decay,
    decay = 1/x - c, where the declared growth bound |B(z)| <= M e^(c z)
    makes the neglected tail (1/x) M e^(-decay z_max) / decay = M tol/10.  The
    range is some tens of widths x / (1 - c x) of the e^(-z/x) layer, never a
    fixed length: at x far below 1 a range of fixed length puts the whole
    layer inside one Kronrod panel, whose nodes all miss it.  Its initial
    panels double in width from [0, x], so the layer is never missed either
    where the range is long.  The transform is evaluated from its closed form
    when the oracle carries one, else by adaptive partial sums with a
    ratio-based tail bound, each term weighted by e^(-z/x) and taken from its
    logarithm; partial sums that need more than ``_BOREL_TERMS`` terms are
    refused before any is summed.  A growth rate at or above 1/x means the
    integrand does not decay: reported as ``BorelSummabilityError``.  An x
    whose 1/x, range end, quadrature tolerance tol x / 2 or integrand leaves
    float64 range, or a coefficient outside it (a float below its normal
    range included), raises :class:`NonFiniteResultError`.
    """
    import numpy as np

    from .quadrature import _adapt, _fsum_arrays

    if x <= 0:
        raise ValueError(f"borel_sum requires x > 0, got {x}")
    if tol <= 0:
        raise ValueError(f"borel_sum requires tol > 0, got {tol}")
    decay = 1.0 / x - coeffs.exp_rate
    if decay <= 0:
        raise BorelSummabilityError(
            f"Borel transform of {coeffs.label!r} grows like exp({coeffs.exp_rate} z), "
            f"not integrable against exp(-z/{x})"
        )
    quad_tol = tol * x / 2.0
    try:
        z_max = math.log(10.0 / (tol * x * decay)) / decay
    except (ValueError, ZeroDivisionError):
        z_max = math.inf
    if not math.isfinite(z_max) or quad_tol == 0:
        raise NonFiniteResultError(f"borel_sum at x = {x!r}, tol = {tol!r} leaves float64 "
                                   "range: 1/x, the range end or tol x / 2")
    z_max = max(z_max, x)  # a tol so large that the range end falls below one layer width

    if coeffs.borel_transform is not None:
        transform = np.vectorize(coeffs.borel_transform, otypes=[float])

        def integrand(z):
            return np.exp(-z / x) * transform(z)
    elif 10 + 2.0 * abs(coeffs.exp_rate) * z_max >= _BOREL_TERMS:
        raise BorelSummabilityError(
            f"partial sums of the Borel transform of {coeffs.label!r} need ~2 c z_max terms "
            f"on the range [0, {z_max:.6g}], past the budget of {_BOREL_TERMS}")
    else:
        # (log|a(n)|, log n!, sign of a(n)) for n = 1, 2, ...: each taken once a call, from
        # the exact a(n), as the integrand first reaches n
        terms = []

        def term(n):
            while len(terms) < n:
                k = len(terms) + 1
                a = coeffs.a(k)
                # a subnormal float a(n) has lost its digits
                if isinstance(a, float) and 0 < abs(a) < sys.float_info.min:
                    raise FloatingPointError(f"a({k}) = {a!r} underflows")
                num, den = a.as_integer_ratio()
                log_a = math.log(abs(num)) - math.log(den) if num else -math.inf
                terms.append((log_a, math.lgamma(k + 1), -1.0 if num < 0 else 1.0))
            return terms[n - 1]

        def integrand(z):
            # no term a(n) z^n e^(-z/x) / n! exceeds the integrand's bound M e^(-decay z)
            z = np.atleast_1d(z)
            log_z, log_w = np.log(z), -z / x
            out = float(coeffs.a(0)) * np.exp(log_w)
            # stopping is safe only once the term ratio ~ c z / n is < 1/2,
            # i.e. past n ~ 2 c max(z); then the tail is geometric, and terms
            # below 1e-4 tol x / z_max keep its integral below 2e-4 tol.
            n_safe = 10 + int(2.0 * abs(coeffs.exp_rate) * float(np.max(z)))
            small = 1e-4 * tol * x / z_max
            for n in range(1, _BOREL_TERMS):
                log_a, log_fact, sign = term(n)
                contrib = sign * np.exp(n * log_z + log_w + log_a - log_fact)
                out += contrib
                if n >= n_safe and np.all(np.abs(contrib) <= small):
                    break
            else:
                raise BorelSummabilityError(
                    f"partial sums of the Borel transform of {coeffs.label!r} "
                    "did not converge within the term budget"
                )
            return out

    # panels [0, x], [x, 2x], [2x, 4x], ... sharing quad_tol as one panel over [0, z_max]
    # would; r^n with r < 0 decays at 1/x + |r|, a layer that one long panel misses
    edges, e = [0.0], x
    while e < z_max:
        edges.append(e)
        e *= 2
    lo, hi = np.array(edges), np.array(edges[1:] + [z_max])
    try:
        with np.errstate(over="raise", invalid="raise"):
            values = _adapt(integrand, lo, hi, np.full(lo.size, z_max), quad_tol, 10**6)[0]
    except (FloatingPointError, OverflowError) as exc:
        raise NonFiniteResultError(f"the Borel integrand of {coeffs.label!r} at x = {x!r} "
                                   f"leaves float64 range on [0, {z_max:.6g}]") from exc
    return _fsum_arrays(values) / x


def gyro_partial(alpha: float, order: int) -> float:
    """Leading partial sums of the electron gyromagnetic anomaly series.

    order 1: (1/2)(alpha/pi); order 2 subtracts 0.328 (alpha/pi)^2.  Only
    these two published coefficients are wired; higher orders are rejected.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    if order not in (1, 2):
        raise ValueError(f"only orders 1 and 2 are available, got {order}")
    ratio = alpha / math.pi
    value = 0.5 * ratio
    if order == 2:
        try:
            value -= 0.328 * ratio**2
        except OverflowError as exc:
            raise NonFiniteResultError(f"(alpha/pi)^2 at alpha = {alpha!r} is past float64 "
                                       "range") from exc
    return value
