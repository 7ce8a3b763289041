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
fixed-point exp each) serves every grid point N_max / r with r an integer;
the sums of eta n^s are exact integers, each rounded once to mpmath working
precision (scaled to the grid) before C N^{s+1} is subtracted; the reported
growth coefficient is that same moment, in float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Sequence

import numpy as np

from . import _kernels
from .cutoffs import Cutoff, bump_deriv, make_cutoff
from .errors import CutoffSmoothnessError
from .exact import faulhaber, to_floats
from .quadrature import integrate

__all__ = [
    "MAX_TERMS",
    "AsymptoticFit",
    "smoothed_sum",
    "mellin",
    "drifts",
    "constant_extraction",
    "grandi_smoothed",
    "scaling_counterexample",
    "delta_pairing",
    "sine_pairing",
    "TestBump",
    "centered_bump",
    "offset_bump",
]

MAX_TERMS = _kernels.MAX_TERMS  # terms of one float smoothed sum, about N; more raise ValueError


def smoothed_sum(s: int, cutoff: Cutoff, N: float) -> float:
    """sum_{n=1}^{ceil(N)} eta(n/N) n^s; terms with n/N >= 1 contribute 0."""
    if s < 0:
        raise ValueError(f"smoothed_sum requires s >= 0, got {s}")
    if N < 1:
        raise ValueError(f"smoothed_sum requires N >= 1, got {N}")
    return _kernels.smoothed_sum_value(s, cutoff, N)


def mellin(cutoff: Cutoff, s: int, tol: float) -> float:
    """Moment integral_0^1 x^s eta(x) dx by adaptive quadrature to abs tol."""
    if s < 0:
        raise ValueError(f"mellin requires s >= 0, got {s}")
    if tol <= 0:
        raise ValueError(f"mellin requires tol > 0, got {tol}")
    value, _ = _kernels.moment_quad(cutoff, s, 1.0, 0.0, 1.0, tol)
    return value


@dataclass(frozen=True)
class AsymptoticFit:
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


_MELLIN_MP_CACHE: dict = {}


def _mellin_mp(cutoff: Cutoff, s: int, dps: int):
    import mpmath as mp

    key = (cutoff.label, s)
    hit = _MELLIN_MP_CACHE.get(key)
    if hit is not None and hit[0] >= dps:
        return hit[1]
    with mp.workdps(dps + 10):
        val = mp.quad(lambda x: x**s * cutoff.eval_mp(x), [0, 1])
    _MELLIN_MP_CACHE[key] = (dps, val)
    return val


def _drift_exact_poly(s: int, cutoff: Cutoff, N: float) -> Fraction:
    """D(N) for poly:p in O(p s) exact work, whatever N is.

    With L = ceil(N) - 1 the last n < N, the binomial expansion
    sum_{1<=n<N} (1 - n/N)^p n^s = sum_k C(p,k) (-1/N)^k S_{s+k}(L) turns
    the sum into Faulhaber power sums S_j(L) = 1^j + ... + L^j.
    """
    NF = Fraction(N)
    L = math.ceil(N) - 1
    total = Fraction(0)
    if L >= 1:
        step = -1 / NF
        scale = Fraction(1)
        for k in range(cutoff.p + 1):
            total += math.comb(cutoff.p, k) * scale * faulhaber(s + k, L)
            scale *= step
    return total - cutoff.mellin_exact(s) * NF ** (s + 1)


def _bump_totals(s: int, cutoff: Cutoff, points: Sequence[float], W: int) -> List[int]:
    """sum_{1<=n<N} [eta(n/N) 2^W] n^s at every N in ``points``, as exact integers.

    [eta(n/N) 2^W] is the bump's ``eval_fixed`` integer.  Each N whose ratio
    r = N_max / N is an exact integer shares one pass over m = 1..ceil(N_max):
    m / N_max and n / N = (m / r) / N are the same rational, so eval_fixed
    gives the same integer, and an integer sum does not depend on its order:
    every total is bit-identical to a pass over N alone.  Any other N makes
    its own pass.  The ratio is tested on the exact rationals: in floats
    N_max / N can round to an integer that is not the ratio.
    """
    n_max = max(points)
    shared = []
    passes = [(n_max, shared)]  # (top, [(index, ratio)]): one eta pass each
    for i, N in enumerate(points):
        r = n_max / N
        if r.is_integer() and Fraction(N) * int(r) == Fraction(n_max):
            shared.append((i, int(r)))
        else:
            passes.append((N, [(i, 1)]))

    totals = [0] * len(points)
    for top, members in passes:
        for m, v in enumerate(cutoff.eval_fixed(top, W), 1):
            if v:
                for i, r in members:
                    if m % r == 0:
                        totals[i] += v * (m // r) ** s
    return totals


def _drifts_mp(s: int, cutoff: Cutoff, points: Sequence[float], dps: int) -> list:
    """D(N) for the bump at every N in ``points``, as mpf at ``dps`` digits.

    The sums are ``_bump_totals`` in fixed point at W = prec + (s + 1) L + 16
    bits, where prec is the bit precision of ``dps`` and L the bit length of
    ceil(N_max).  Each eta value is within 8 units of 2^-W, so each total is
    within 8 ceil(N_max) N_max^s 2^-W <= 2^-(prec + 13) of the exact sum,
    whatever the order of its terms.  It is rounded once to ``dps`` digits
    (mp.mpf(total) 2^-W), and C_{eta,s} N^(s+1) is subtracted in mpmath at
    ``dps``; those roundings, each ~2^-prec C_{eta,s} N^(s+1), dominate.
    """
    import mpmath as mp

    with mp.workdps(dps):
        W = mp.mp.prec + (s + 1) * math.ceil(max(points)).bit_length() + 16
        totals = _bump_totals(s, cutoff, points, W)
        c = _mellin_mp(cutoff, s, dps)
        return [mp.ldexp(mp.mpf(t), -W) - c * mp.mpf(N) ** (s + 1)
                for t, N in zip(totals, points)]


def drifts(s: int, cutoff: Cutoff, points: Sequence[float]) -> List[Fraction]:
    """D(N) = sum_{1<=n<N} eta(n/N) n^s - C_{eta,s} N^{s+1} at every N in ``points``, exact
    for poly:p; for the bump, the mpf of ``_drifts_mp`` as the rational it is."""
    if cutoff.kind == "poly":
        return [_drift_exact_poly(s, cutoff, N) for N in points]
    from mpmath.libmp import to_rational

    dps = working_digits(s, max(points))
    return [Fraction(*to_rational(d._mpf_)) for d in _drifts_mp(s, cutoff, points, dps)]


def working_digits(s: int, n_max: float) -> int:
    """mpmath digits of the bump drifts up to N_max: 25 beyond the (s+1) log10 N_max that cancel."""
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

    # C_{eta,s}: the moment the drifts subtracted, exact for poly, cached mpf for the bump
    growth = float(cutoff.mellin_exact(s) if cutoff.kind == "poly"
                   else _mellin_mp(cutoff, s, working_digits(s, grid[-1])))
    return AsymptoticFit(constant, growth, slope, grid, error_estimate, residuals)


def _lsq_slope(xs: List[float], ys: List[float]) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den


def grandi_smoothed(cutoff: Cutoff, N: float) -> float:
    """sum_{n=1}^{ceil(N)} eta(n/N) (-1)^(n-1): tends to 1/2 at O(1/N)."""
    if N < 1:
        raise ValueError(f"grandi_smoothed requires N >= 1, got {N}")
    if cutoff.smoothness_order < 0:
        raise CutoffSmoothnessError(
            "grandi_smoothed needs a cutoff twice continuously differentiable on (0,1); "
            "the sharp indicator does not qualify"
        )
    return _kernels.alternating_smoothed_value(cutoff, N)


def scaling_counterexample(cutoff: Cutoff, N: float):
    """Smoothed sums are not scale-invariant: sum 2n eta(2n/N) != 2 sum n eta(n/N).

    The left side is the same smoothed sum at half the scale,

        sum_n 2n eta(2n/N) = 2 sum_n n eta(n/(N/2)),

    and it is computed that way.  The identity holds exactly in float64:
    N/2 is exact, n/(N/2) rounds the same real number as 2n/N, and scaling
    every term and partial sum by 2 rounds nothing.  Returns (lhs, rhs,
    differ) with differ = |lhs - rhs| > 1e-12 max(1, |rhs|).
    """
    if N < 2:
        raise ValueError(f"scaling_counterexample requires N >= 2, got {N}")
    lhs = 2.0 * _kernels.smoothed_sum_value(1, cutoff, N / 2.0)
    rhs = 2.0 * _kernels.smoothed_sum_value(1, cutoff, N)
    differ = abs(lhs - rhs) > 1e-12 * max(1.0, abs(rhs))
    return lhs, rhs, differ


# --- delta sequences ----------------------------------------------------------


def _dirichlet_normalized(j: int, x: np.ndarray) -> np.ndarray:
    """(1/2pi) sum_{|k|<=j} e^{ikx} = (1/2pi) sin((j+1/2)x)/sin(x/2).

    The direct quotient is accurate to a few ulps wherever sin(x/2) != 0;
    only there (x == 0, or x/2 underflowing) is the limit 2j + 1 used.
    """
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
    res = integrate(lambda x: _dirichlet_normalized(j, x) * testfn(x),
                    -math.pi, math.pi, tol=tol, budget=2 * 10**6)
    return res.value


def sine_pairing(j: int, testfn: Callable, tol: float = 1e-10) -> float:
    """integral_{-pi}^{pi} sin(jx) phi(x) dx; O(1/j) for smooth supported phi.

    ``testfn`` must be elementwise, as in ``delta_pairing``.
    """
    if j < 1:
        raise ValueError(f"sine_pairing requires j >= 1, got {j}")
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
        return (np.asarray(x, dtype=float) - self.center) / self.halfwidth

    def __call__(self, x):
        return self._BUMP.eval(np.abs(self._u(x)))

    def deriv(self, k: int, x):
        u = self._u(x)
        out = bump_deriv(k, np.atleast_1d(u)) / self.halfwidth**k
        return float(out[0]) if u.ndim == 0 else out


def centered_bump() -> TestBump:
    """Bump centered at 0, supported in (-pi/2, pi/2); value 1 at 0."""
    return TestBump(0.0, math.pi / 2)


def offset_bump() -> TestBump:
    """Bump supported in [pi/4, 3pi/4]; vanishes at 0 with all derivatives."""
    return TestBump(math.pi / 2, math.pi / 4)
