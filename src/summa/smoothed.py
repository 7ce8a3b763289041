"""Smoothed sums: sum eta(n/N) a_n and their large-N asymptotics.

The headline fact implemented and verified here: for a smooth compactly
supported cutoff eta with eta(0+) = 1,

    sum_{n>=1} eta(n/N) n^s  =  -B_{s+1}/(s+1)  +  C_{eta,s} N^{s+1}  +  O(1/N),

where C_{eta,s} = integral_0^1 x^s eta(x) dx.  The zeta-regularized constant
appears as the finite part once the single explicitly divergent term is
removed; ``constant_extraction`` measures it on an N-grid together with the
empirical decay rate of the residual.

Numerical note: the subtraction sum - C N^{s+1} cancels ~ (s+1) log10(N)
digits, which float64 cannot survive for s >= 3 on the grids used here.  The
drift D(N) is therefore an exact rational (``drifts``, which the constant
extraction and the Euler-Maclaurin tail identity share): a Faulhaber closed
form costing O(p s) whatever N is for poly cutoffs.  For the bump one pass of
fixed-point eta values (integers eta 2^W, one integer division and one
fixed-point exp each, ``_fixed.exp_pass``) serves every grid point N_max / r
with r an integer, each point's sum of eta n^s a stride sum over the pass's
one list of integers.  Each sum is rounded once at prec bits scaled to the
grid before C N^{s+1} is subtracted, every step rounded to nearest in
integers as mpmath's mpf arithmetic would; W = prec + 17 + (s+1) +
bitlen(s+1) keeps its fixed-point error under 2^-15 of that rounding, since
eta >= e^(-1/3) on [0, 1/2] bounds C below (``_drift_bits``).  The bump's C
is a closed form, a fixed-point recurrence in s from three seeds built of
K_0(1/2), K_1(1/2) and E_1(1) (``_bump_moment``); the reported growth
coefficient is that same moment, in float64.  No path here imports mpmath.

The same Faulhaber expansion makes every smoothed sum of poly:p exact: the
sum itself, the Grandi sum and both sides of the scaling counterexample are
rationals, each rounded once, at any N; the sharp indicator's are Faulhaber
sums S_s(floor(N)).  The bump's sum is its Euler-Maclaurin expansion at 0,
C_s N^(s+1) plus at most 15 zeta terms, wherever the remainder bound is at
most 2^-62 of the value (``cutoffs.bump_em``, whose integrated s = 3 case is
the plate energy u_t: from N ~ 370 at s = 0, ~ 388 at s = 1), and its Grandi
sum is exactly 1/2 from N ~ 788.  Below that, the drifts' eta pass
(``_kernels``) sums at most 3,386 terms, correctly rounded: from s = 89 on, a sum
past N_0(s) certainly overflows.
numpy is imported by the pairings and delta sequences only.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, List, NamedTuple, Sequence, Tuple

from .cutoffs import Cutoff, bump_deriv, bump_em, make_cutoff
from .errors import CutoffSmoothnessError, NonFiniteResultError
from .exact import bernoulli_integers, faulhaber, faulhaber_numerator, to_floats

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "AsymptoticFit",
    "smoothed_sum",
    "drifts",
    "constant_extraction",
    "grandi_smoothed",
    "grandi_with_deviation",
    "scaling_counterexample",
    "delta_pairing",
    "sine_pairing",
    "TestBump",
    "centered_bump",
    "offset_bump",
]

_SCALING_TOL = 1e-12  # scaling_counterexample's sides differ past this, relative to max(1, |rhs|)
# the start W past which the bump's eta pass is refused: its exp tables take ~0.3 s there
MAX_SUM_BITS = 4096


def smoothed_sum(s: int, cutoff: Cutoff, N: float) -> float:
    """sum_{n=1}^{ceil(N)} eta(n/N) n^s; terms with n/N >= 1 contribute 0.

    For poly:p and the sharp indicator the exact rational, rounded once (``_exact_sum``).
    For the bump an error where it certainly overflows, before any O(s) or O(N) work
    (``_bump_sum_bits``); past N_0(s) its expansion at 0 (``cutoffs.bump_em`` within
    ``_bump_sum_limit``) plus C_s N^(s+1), C_s ``_bump_moment`` at 30 digits, exact and
    rounded once, so within 2^-62 |V| + half an ulp of the true V; below N_0(s) the eta
    pass, correctly rounded, or PrecisionCapError where it would start past MAX_SUM_BITS.
    """
    if s < 0:
        raise ValueError(f"smoothed_sum requires s >= 0, got {s}")
    if N < 1:
        raise ValueError(f"smoothed_sum requires N >= 1, got {N}")
    if cutoff.kind != "bump":
        exact = _exact_sum(s, cutoff, N)
    else:
        _bump_sum_bits(s, N)  # NonFiniteResultError where the sum certainly overflows
        terms = bump_em(s, N, _bump_sum_limit)
        if terms is None:  # below N_0(s): at most 3,386 terms (at s = 89)
            from . import _kernels

            return _kernels.smoothed_sum_value(s, cutoff, N)
        exact = Fraction(*terms) + _bump_moment(s, 20) * Fraction(N) ** (s + 1)
    value, = to_floats([exact], f"the smoothed sum of s = {s} on {cutoff.label} at N = {N} is")
    return value


def _exact_sum(s: int, cutoff: Cutoff, N) -> Fraction:
    """sum_{n>=1} eta(n/N) n^s exactly, for poly:p and the sharp indicator.

    The indicator is 1 on [0, 1], endpoint included, so its sum is the
    Faulhaber sum S_s(floor(N)).
    """
    if cutoff.kind == "indicator":
        return faulhaber(s, math.floor(N))
    return _poly_sum(s, cutoff.p, N)


def _bump_sum_limit(s: int, x: float) -> Fraction:
    """``bump_em``'s limit for S_s(x), met from N_0(s): 2^-62 of (7/10) (x/2 - 1)^(s+1)/(s+1),
    0 at x <= 2, ``_bump_sum_bits``' lower bound on the sum with floor(x/2) >= x/2 - 1."""
    return Fraction(7, 10 * (s + 1) << (s + 63)) * max(Fraction(x) - 2, 0) ** (s + 1)


# The Grandi test's limit at N/2: 3 bound(N/2) <= 2^-56 (``grandi_with_deviation``).
_GRANDI_LIMIT = Fraction(1, 3 << 56)


def _bump_sum_bits(s: int, N: float) -> int:
    """The bits W at which the bump's eta pass for S_s(N) starts, from logs of s and N alone;
    first NonFiniteResultError where a lower bound on log2 S_s(N), on the exact rationals of
    float logs (so no power n^s is formed at any s), is 1025 or more: 2^1024 rounds to inf,
    and the half bit spare covers the logs' rounding.  Below N = 4 the bound is the largest
    of its at most three terms.  From there the O(1) bound comes first: eta >= e^(-1/3) on
    [0, 1/2], so S_s(N) >= (7/10) M^(s+1)/(s+1), M = floor(N/2), of log2 above
    (s+1) log2 M - log2(s+1) - 0.52; then the largest term eta(n/N) n^s, at an integer either
    side of N x, x^2 = (s + 1 - sqrt(2s + 1)) / s the peak of x^s eta(x) (a term's log is
    concave in n).  The pass's total is within 2 L^(s+1) units, L = ceil(N) - 1 the last n,
    and W puts that 10 bits below the float grain, 2^-53 S or 2^-1075, at the largest term S.
    """
    def exact(c, f, g):  # c f - g on the exact rationals of the floats f and g
        (p, q), (u, v) = f.as_integer_ratio(), g.as_integer_ratio()
        return Fraction(c * p * v - u * q, q * v)

    def log2_term(n):  # log2 eta(n/N) >= -log2(e) n^2 / (N^2 - n^2), 2^-40 spare for floats
        nb2 = (n * b) ** 2
        return exact(s, math.log2(n), 1.4426950408889634 * (nb2 / (a * a - nb2)) * (1 + 2**-40))

    (a, b), M, L = N.as_integer_ratio(), math.floor(N / 2), math.ceil(N) - 1
    if L < 1:
        return 53  # no term: the sum is 0 at any W
    if M < 2:  # N < 4: at most three terms, at any s
        log2_low = max(log2_term(n) for n in range(1, L + 1))
    else:
        log2_low = exact(s + 1, math.log2(M), math.log2(s + 1))
        if log2_low < 1025:  # so s is below ~1,040
            peak = N * math.sqrt((s + 1 - math.sqrt(2 * s + 1)) / s) if s else 1.0
            log2_low = max(log2_term(n) for n in {min(max(k, 1), L)
                                                  for k in (math.floor(peak), math.ceil(peak))})
    if log2_low >= 1025:
        raise NonFiniteResultError(f"the smoothed sum of s = {s} on bump at N = {N} is past "
                                   "float64 range")
    return 10 + math.ceil(1 + (s + 1 if L > 1 else 0) * math.log2(L)
                          + min(53 - float(log2_low), 1075))


class AsymptoticFit(NamedTuple):
    """Result of removing the divergent term from a smoothed sum on a grid."""

    constant: float
    growth_coefficient: float
    rate_exponent: float
    grid: List[float]
    error_estimate: float
    residuals: List[float]

    def to_json_dict(self) -> dict:
        return {
            "constant": self.constant,
            "growth_coefficient": self.growth_coefficient,
            "rate_exponent": self.rate_exponent,
            "grid": list(self.grid),
        }


# The forward recurrence of the bump moments, run in fixed point at F bits, loses at most 63
# bits below the value of C_s up to s = 261, 37 of them C_s's own size at s = 260 (measured
# at F = 150, 1000 and 3000 against runs with 1000 more bits): 80 guard bits cover every s
# up to the CLI's --s cap with 17 to spare.
_MOMENT_GUARD_BITS = 80
_BUMP_SEEDS: dict = {}


def _bump_seeds(F: int) -> tuple:
    """(C_0, C_1, C_2) of the bump as integers C 2^F, each within 1 unit, memoized per F.

    Power series in fixed point at F + 16 bits, z = 1/2 and z^2/4 = 1/16
    (DLMF 10.25.2, 10.31.2, 10.28.2 and 6.6.2):

        I_0 = sum q^k / k!^2,  I_1 = (1/4) sum q^k / (k! (k+1)!),  q = 1/16,
        K_0 = (2 ln 2 - gamma) I_0 + sum H_k q^k / k!^2,
        K_1 = (2 - K_0 I_1) / I_0                        (the Wronskian),
        E_1(1) = -gamma + sum_{k>=1} (-1)^(k+1) / (k k!),

    with K_v = K_v(1/2) and H_k the harmonic numbers; gamma, e and ln 2 are
    ``_fixed``'s, and sqrt(e) is math.isqrt.  The 16 bits beyond F take the
    truncation of each term (a unit each, a few hundred terms) and the
    cancellation in 3 K_1 - 5 K_0 (2 bits).
    """
    hit = _BUMP_SEEDS.get(F)
    if hit is not None:
        return hit
    from . import _fixed

    fp = F + 16
    one, gamma, e = 1 << fp, _fixed.euler_gamma(fp), _fixed.e(fp)
    i0 = i1 = harmonic_sum = h = k = 0
    t, u = one, one >> 2  # q^k / k!^2 and (1/4) q^k / (k! (k+1)!)
    while t:
        i0, i1, harmonic_sum = i0 + t, i1 + u, harmonic_sum + (h * t >> fp)
        k += 1
        t //= 16 * k * k
        u //= 16 * k * (k + 1)
        h += one // k
    k0 = ((2 * _fixed.ln2(fp) - gamma) * i0 >> fp) + harmonic_sum
    k1 = (((2 << fp) - (k0 * i1 >> fp)) << fp) // i0
    e1, f, k = -gamma, one, 0
    while f:
        k += 1
        f //= k
        e1 += f // k if k % 2 else -(f // k)
    rte = math.isqrt(e << fp)
    fixed = (rte * (k1 - k0) >> (fp + 1), (one - (e * e1 >> fp)) >> 1,
             rte * (3 * k1 - 5 * k0) // (6 << fp))
    seeds = _BUMP_SEEDS[F] = tuple(v >> 16 for v in fixed)
    return seeds


def _bump_moment(s: int, dps: int) -> Fraction:
    """C_s = integral_0^1 x^s eta(x) dx of the bump, rounded to the bits of dps + 10 digits.

    With t = x^2 and u = t/(1 - t), C_s = (1/2) Gamma(a) U(a, 0, 1) at
    a = (s+1)/2, U Tricomi's confluent function (DLMF 13.4.4).  The b = 0
    recurrence U(a+1) = ((2a+1) U(a) - U(a-1)) / (a (a+1)) (DLMF 13.3.7),
    times Gamma(a)/2, is the integration by parts of x^(s-1) (1-x^2)^2 eta'
    (eta' = -2x eta / (1-x^2)^2):

        (s+3) C_(s+2) = 2 (s+2) C_s - (s-1) C_(s-2)   for s >= 2,
        C_3 = (6 C_1 - 1) / 4                          (the boundary term at 0).

    Its seeds: x = tanh(t/2) gives eta = sqrt(e) exp(-(cosh t)/2),
    dx = dt / (1 + cosh t) and x^2 = 1 - 2 / (1 + cosh t), so C_0 = sqrt(e) F
    and C_2 = sqrt(e) (F - 2G) at z = 1/2, where

        F(z) = integral_0^inf exp(-z cosh t) / (1 + cosh t) dt,
        G(z) = integral_0^inf exp(-z cosh t) / (1 + cosh t)^2 dt.

    F - F' = K_0 and G - G' = F, and F e^-z, G e^-z vanish at infinity, so
    F = z (K_1 - K_0) and G = (2/3) z^2 (K_0 - K_1) + (1/3) z K_1 (with
    K_0' = -K_1, K_1' = -K_0 - K_1/z).  u = x^2/(1 - x^2) turns C_1 into
    (1/2) integral_0^inf e^-u (1+u)^-2 du = (1 - e E_1(1)) / 2.  Together:

        C_0 = sqrt(e) (K_1 - K_0) / 2,   C_2 = sqrt(e) (3 K_1 - 5 K_0) / 6,
        C_1 = (1 - e E_1(1)) / 2,        K_v = K_v(1/2)   (``_bump_seeds``),

    i.e. U(1/2) = f (K_1 - K_0), U(3/2) = f (6 K_1 - 10 K_0) / 3 with
    f = sqrt(e / pi), and U(1) = 1 - e E_1(1).

    The recurrence runs forward in fixed point, _MOMENT_GUARD_BITS beyond the
    result's precision prec (mpmath's bits of dps + 10 digits); the result is
    rounded once to prec bits, to nearest, and returned as the exact dyadic
    rational it is.
    """
    from ._fixed import digits_to_bits, round_bits

    prec = digits_to_bits(dps + 10)
    F = prec + _MOMENT_GUARD_BITS
    c0, c1, c2 = _bump_seeds(F)
    lo, hi, start = (c1, (6 * c1 - (1 << F)) // 4, 3) if s % 2 else (c0, c2, 2)
    for j in range(start, s - 1, 2):  # (lo, hi) = (C_(j-2), C_j) becomes (C_j, C_(j+2))
        lo, hi = hi, (2 * (j + 2) * hi - (j - 1) * lo) // (j + 3)
    return _dyadic(*round_bits(lo if s < 2 else hi, -F, prec))


def _dyadic(man: int, exp: int) -> Fraction:
    """man 2^exp as a Fraction."""
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def _poly_sum_parts(s: int, p: int, a: int, b: int) -> Tuple[int, int]:
    """(numerator, denominator) of sum_{1<=n<N} (1 - n/N)^p n^s at N = a/b > 0, unreduced.

    O(p s) exact work, whatever N is.  With L = ceil(N) - 1 the last n < N,
    the binomial expansion sum_k C(p,k) (-1/N)^k S_{s+k}(L) turns the sum
    into Faulhaber power sums S_j(L) = 1^j + ... + L^j, all over one
    denominator D W a^p: D that of the Bernoulli integers up to B_{s+p},
    W = lcm(s+1, ..., s+p+1) that of the sums' 1/(j+1).  The numerator is an
    integer sum, Horner's rule in a and -b over k.
    """
    L = -(-a // b) - 1
    D, beta = bernoulli_integers(s + p)
    W = math.lcm(*range(s + 1, s + p + 2))
    total = 0
    if L >= 1:
        c, bk = 1, 1  # C(p, k) and (-b)^k
        for k in range(p + 1):
            total = total * a + c * bk * faulhaber_numerator(s + k, L, beta) * (W // (s + k + 1))
            c = c * (p - k) // (k + 1)
            bk *= -b
    return total, D * W * a**p


def _poly_sum(s: int, p: int, N) -> Fraction:
    """sum_{n>=1} eta(n/N) n^s for poly:p, exact: eta(n/N) = (1 - n/N)^p below n = N, 0 from there."""
    return Fraction(*_poly_sum_parts(s, p, *Fraction(N).as_integer_ratio()))


def _drift_exact_poly(s: int, cutoff: Cutoff, N: float) -> Fraction:
    """D(N) for poly:p: ``_poly_sum_parts`` and C_{eta,s} N^{s+1} over one denominator
    D W a^p Cd b^(s+1), Cd that of C_{eta,s}, reduced once."""
    a, b = Fraction(N).as_integer_ratio()
    total, den = _poly_sum_parts(s, cutoff.p, a, b)
    C = cutoff.mellin_exact(s)
    scale = b ** (s + 1) * C.denominator
    return Fraction(total * scale - C.numerator * a ** (s + 1) * den, den * scale)


def _bump_totals(s: int, cutoff: Cutoff, points: Sequence[float], W: int) -> List[int]:
    """sum_{1<=n<N} [eta(n/N) 2^W] n^s at every N in ``points``, as exact integers.

    [eta(n/N) 2^W] is the bump's ``eval_fixed`` integer.  Each N whose ratio
    r = N_max / N is an exact integer shares one pass over m = 1..ceil(N_max):
    m / N_max and n / N = (m / r) / N are the same rational, so eval_fixed
    gives the same integer, and N's total is the stride sum of the pass's
    values at m = r, 2r, ... against 1^s, 2^s, ...; an integer sum does not
    depend on its order, so every total is bit-identical to a pass over N
    alone.  Any other N makes its own pass.  The ratio is tested on the exact
    rationals: in floats N_max / N can round to an integer that is not the
    ratio.
    """
    n_max = max(points)
    shared = []
    passes = [(n_max, shared)]  # (top, [(index, ratio)]): one eta pass each, N_max's first
    for i, N in enumerate(points):
        r = n_max / N
        if r.is_integer() and Fraction(N) * int(r) == Fraction(n_max):
            shared.append((i, int(r)))
        else:
            passes.append((N, [(i, 1)]))

    totals = [0] * len(points)
    powers = [n**s for n in range(1, math.ceil(n_max))] if s else None  # every n < N_max
    for top, members in passes:
        values = cutoff.eval_fixed(top, W)
        for i, r in members:
            stride = values[r - 1::r]
            totals[i] = sum(map(operator.mul, stride, powers)) if s else sum(stride)
    return totals


def _drift_bits(s: int, prec: int) -> int:
    """The fixed-point bits W of the bump's drift sums for results rounded at ``prec`` bits.

    Each total is within 2 N^(s+1) 2^-W of its exact sum (``eval_fixed``)
    and is rounded at prec on values of size C_s N^(s+1), where C_s is the
    moment.  eta >= e^(-1/3) on [0, 1/2], so C_s >= e^(-1/3) / ((s+1) 2^(s+1)),
    and W = prec + 17 + (s+1) + bitlen(s+1) makes 2 N^(s+1) 2^-W at most
    2^-(prec+15) C_s N^(s+1): 2^-15 of one such rounding, whatever N is.
    """
    return prec + 17 + (s + 1) + (s + 1).bit_length()


def _bump_drifts(s: int, cutoff: Cutoff, points: Sequence[float], dps: int) -> List[Fraction]:
    """D(N) for the bump at every N in ``points``, rounded at the bits prec of ``dps`` digits.

    The sums T are ``_bump_totals`` in fixed point at W = ``_drift_bits(s, prec)``:
    each is within 2^-(prec+15) C_s N^(s+1) of the exact sum, whatever the
    order of its terms.  Then, in integers, each step rounded to nearest at
    prec bits (``_fixed.round_bits``), as mpmath's mpf arithmetic at ``dps``
    digits rounds it: T 2^-W, N^(s+1), C_s N^(s+1) with C_s = ``_bump_moment``,
    and their difference.  Those roundings, each ~2^-prec C_s N^(s+1),
    dominate.  Each D(N) is returned as the exact dyadic rational it is.
    """
    from ._fixed import digits_to_bits, round_bits

    prec = digits_to_bits(dps)
    W = _drift_bits(s, prec)
    totals = _bump_totals(s, cutoff, points, W)
    c_num, c_den = _bump_moment(s, dps).as_integer_ratio()
    c_exp = 1 - c_den.bit_length()  # c_den is a power of 2
    out = []
    for t, N in zip(totals, points):
        t_man, t_exp = round_bits(t, -W, prec)
        n_num, n_den = N.as_integer_ratio()
        p_man, p_exp = round_bits(n_num ** (s + 1), (1 - n_den.bit_length()) * (s + 1), prec)
        q_man, q_exp = round_bits(c_num * p_man, c_exp + p_exp, prec)
        e = min(t_exp, q_exp)
        out.append(_dyadic(*round_bits((t_man << (t_exp - e)) - (q_man << (q_exp - e)), e, prec)))
    return out


def drifts(s: int, cutoff: Cutoff, points: Sequence[float]) -> List[Fraction]:
    """D(N) = sum_{1<=n<N} eta(n/N) n^s - C_{eta,s} N^{s+1} at every N in ``points``, exact
    for poly:p; for the bump, ``_bump_drifts`` at ``working_digits``."""
    if cutoff.kind == "poly":
        return [_drift_exact_poly(s, cutoff, N) for N in points]
    return _bump_drifts(s, cutoff, points, working_digits(s, max(points)))


def working_digits(s: int, n_max: float) -> int:
    """Decimal digits of the bump drifts up to N_max: 25 beyond the (s+1) log10 N_max that cancel."""
    return 25 + int(math.ceil((s + 1) * math.log10(max(n_max, 10.0))))


def check_grid(Ngrid: Sequence[float]) -> List[float]:
    """The grid as floats, or ValueError unless it is usable by constant_extraction.

    At least 4 points, all finite and > 0, strictly increasing, max >= 100.
    """
    grid = [float(N) for N in Ngrid]
    for N in grid:
        if not 0 < N < math.inf:
            raise ValueError(f"Ngrid points must be finite and > 0, got {N!r}")
    if len(grid) < 4:
        raise ValueError("Ngrid needs at least 4 points")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("Ngrid must be strictly increasing")
    if grid[-1] < 100:
        raise ValueError("max(Ngrid) must be >= 100")
    return grid


def constant_extraction(s: int, cutoff: Cutoff, Ngrid: Sequence[float]) -> AsymptoticFit:
    """Extract the finite constant of a smoothed monomial sum over an N-grid.

    Requires cutoff smoothness >= s + 2 (the identity's regularity
    assumption), at least 4 grid points, all finite and > 0, and
    max(grid) >= 100.  The constant is D(N_max) with error estimate
    |D(N_max) - D(N_max / 2)|; the decay exponent comes from a log-log fit
    of |D(N) - constant| on the rest of the grid.  The drifts are exact
    (``drifts``); a constant, error estimate or residual past float64 range
    raises :class:`NonFiniteResultError`.
    """
    if s < 0:
        raise ValueError(f"constant_extraction requires s >= 0, got {s}")
    cutoff.require_smoothness(s + 2, "constant extraction at this exponent")
    grid = check_grid(Ngrid)

    half = grid[-1] / 2.0
    points = grid if half in grid else grid + [half]
    exact = drifts(s, cutoff, points)
    d_max, d_half = exact[len(grid) - 1], exact[points.index(half)]

    # Differences taken before float conversion: for fast-converging cutoffs
    # the residuals live far below float64 resolution of the drift itself.
    constant, error_estimate, *residuals = to_floats(
        [d_max, abs(d_max - d_half)] + [abs(d - d_max) for d in exact[:len(grid) - 1]],
        f"the drifts of s = {s} on {cutoff.label} are")

    xs = [math.log(N) for N in grid[:-1]]
    ys = [math.log(max(r, 1e-300)) for r in residuals]
    slope = _lsq_slope(xs, ys)

    # C_{eta,s}: the moment the drifts subtracted, exact for poly, the closed form for the bump
    growth = float(cutoff.mellin_exact(s) if cutoff.kind == "poly"
                   else _bump_moment(s, working_digits(s, grid[-1])))
    return AsymptoticFit(constant, growth, slope, grid, error_estimate, residuals)


def _lsq_slope(xs: List[float], ys: List[float]) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den


def grandi_smoothed(cutoff: Cutoff, N: float) -> float:
    """sum_{n=1}^{ceil(N)} eta(n/N) (-1)^(n-1): tends to 1/2 at O(1/N)."""
    return grandi_with_deviation(cutoff, N)[0]


def grandi_with_deviation(cutoff: Cutoff, N: float) -> Tuple[float, float]:
    """(G, |G - 1/2|) for the smoothed Grandi sum G of ``grandi_smoothed``.

    G = S_0(N) - 2 S_0(N/2), S_0 the smoothed sum of n^0: the even terms
    eta(2m/N) are eta(m/(N/2)).  For poly:p both are exact, and G and
    |G - 1/2| are each rounded once.  For the bump, the expansion at 0
    (``cutoffs.bump_em``) gives G = 1/2 + R(N) - 2 R(N/2), and its remainder
    bound falls with N, so |G - 1/2| <= 3 bound(N/2).  Where that is at most
    2^-56, below half an ulp of any float near 1/2 (from N ~ 788), G rounds to
    exactly 0.5 and the pair is (0.5, 0.0): the true deviation is below the bound, not 0.
    Below that, G and |G - 1/2| are the eta pass's, each correctly rounded.
    """
    if N < 1:
        raise ValueError(f"grandi_smoothed requires N >= 1, got {N}")
    if cutoff.smoothness_order < 0:
        raise CutoffSmoothnessError(
            "grandi_smoothed needs a cutoff twice continuously differentiable on (0,1); "
            "the sharp indicator does not qualify"
        )
    if cutoff.kind == "poly":
        G = _poly_sum(0, cutoff.p, N) - 2 * _poly_sum(0, cutoff.p, Fraction(N) / 2)
        value, deviation = to_floats([G, abs(G - Fraction(1, 2))],
                                     f"the Grandi sum on {cutoff.label} at N = {N} is")
        return value, deviation
    if bump_em(0, N / 2, lambda s, x: _GRANDI_LIMIT) is not None:
        return 0.5, 0.0
    from . import _kernels

    return _kernels.alternating_smoothed_value(cutoff, N)


def scaling_counterexample(cutoff: Cutoff, N: float):
    """Smoothed sums are not scale-invariant: sum 2n eta(2n/N) != 2 sum n eta(n/N).

    The left side is the same smoothed sum at half the scale,

        sum_n 2n eta(2n/N) = 2 sum_n n eta(n/(N/2)),

    and it is computed that way.  Returns (lhs, rhs, differ) with
    differ = |lhs - rhs| > 1e-12 max(1, |rhs|).  For poly:p and the sharp
    indicator both sides are exact, each rounded once, and differ is decided
    on the rationals.  For the bump each side is ``smoothed_sum`` at N/2 and N
    (N/2 is exact), doubled without rounding.
    """
    if N < 2:
        raise ValueError(f"scaling_counterexample requires N >= 2, got {N}")
    what = f"the scaling sums on {cutoff.label} at N = {N} are"
    if cutoff.kind != "bump":
        lhs = 2 * _exact_sum(1, cutoff, Fraction(N) / 2)
        rhs = 2 * _exact_sum(1, cutoff, N)
        differ = abs(lhs - rhs) > Fraction(_SCALING_TOL) * max(1, abs(rhs))
        lhs, rhs = to_floats([lhs, rhs], what)
        return lhs, rhs, differ
    lhs = 2.0 * smoothed_sum(1, cutoff, N / 2.0)
    rhs = 2.0 * smoothed_sum(1, cutoff, N)
    differ = abs(lhs - rhs) > _SCALING_TOL * max(1.0, abs(rhs))
    return lhs, rhs, differ


# --- delta sequences ----------------------------------------------------------


def _dirichlet_normalized(j: int, x: np.ndarray) -> np.ndarray:
    """(1/2pi) sum_{|k|<=j} e^{ikx} = (1/2pi) sin((j+1/2)x)/sin(x/2).

    The direct quotient is accurate to a few ulps wherever sin(x/2) != 0;
    only there (x == 0, or x/2 underflowing) is the limit 2j + 1 used.
    """
    import numpy as np

    x = np.asarray(x, dtype=float)
    den = np.sin(0.5 * x)
    at_zero = den == 0.0
    out = np.where(at_zero, 2.0 * j + 1.0, np.sin((j + 0.5) * x) / np.where(at_zero, 1.0, den))
    return out / (2.0 * math.pi)


def delta_pairing(j: int, testfn: Callable, tol: float = 1e-10) -> float:
    """Pair the normalized Dirichlet kernel of order j with a test function.

    Computes (1/2pi) integral_{-pi}^{pi} sin((j+1/2)x)/sin(x/2) * phi(x) dx;
    as j grows this converges to phi(0) -- the kernels form a delta sequence.
    ``testfn`` must be elementwise, as ``integrate`` requires of its
    integrands: it maps a numpy array of nodes to an array of the same shape.
    """
    if j < 1:
        raise ValueError(f"delta_pairing requires j >= 1, got {j}")
    from .quadrature import integrate

    res = integrate(lambda x: _dirichlet_normalized(j, x) * testfn(x),
                    -math.pi, math.pi, tol=tol, budget=2 * 10**6)
    return res.value


def sine_pairing(j: int, testfn: Callable, tol: float = 1e-10) -> float:
    """integral_{-pi}^{pi} sin(jx) phi(x) dx; O(1/j) for smooth supported phi.

    ``testfn`` must be elementwise, as in ``delta_pairing``.
    """
    if j < 1:
        raise ValueError(f"sine_pairing requires j >= 1, got {j}")
    import numpy as np

    from .quadrature import integrate

    res = integrate(lambda x: np.sin(j * x) * testfn(x),
                    -math.pi, math.pi, tol=tol, budget=2 * 10**6)
    return res.value


class TestBump:
    """Smooth test function exp(1 - 1/(1 - u^2)), u = (x-center)/halfwidth.

    Supported on |x - center| < halfwidth, equal to 1 at the center: the bump
    cutoff at |u|, with the chain-rule 1/halfwidth^k factor on its analytic
    derivatives.
    """

    _BUMP = make_cutoff("bump")

    def __init__(self, center: float, halfwidth: float):
        if halfwidth <= 0:
            raise ValueError("halfwidth must be positive")
        self.center = center
        self.halfwidth = halfwidth

    def _u(self, x):
        import numpy as np

        return (np.asarray(x, dtype=float) - self.center) / self.halfwidth

    def __call__(self, x):
        return self._BUMP.eval(abs(self._u(x)))

    def deriv(self, k: int, x):
        import numpy as np

        u = self._u(x)
        out = bump_deriv(k, np.atleast_1d(u)) / self.halfwidth**k
        return float(out[0]) if u.ndim == 0 else out


def centered_bump() -> TestBump:
    """Bump centered at 0, supported in (-pi/2, pi/2); value 1 at 0."""
    return TestBump(0.0, math.pi / 2)


def offset_bump() -> TestBump:
    """Bump supported in [pi/4, 3pi/4]; vanishes at 0 with all derivatives."""
    return TestBump(math.pi / 2, math.pi / 4)
