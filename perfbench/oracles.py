"""Reference values computed without the code under test.

Nothing here imports ``summa``.  Exact values come from mpmath's Bernoulli
fractions and direct integer sums; closed forms come from the physics
(-1/360, -pi^2 hbar c / 720 d^3, -pi^2 hbar c / 240 d^4); float64 sums come
from this module's own chunked numpy loops; integrals of compactly supported
smooth integrands come from a dense trapezoid rule, which converges faster
than any power of the step for such integrands.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp
import numpy as np

HBAR = 1.054571817e-34  # J s, CODATA 2018
C_LIGHT = 299792458.0  # m/s, exact
CASIMIR_LIMIT = -1.0 / 360.0
_CHUNK = 1 << 20


def bernoulli(k: int) -> Fraction:
    """B_k in the B_1 = +1/2 convention (mpmath uses B_1 = -1/2)."""
    p, q = mp.bernfrac(k)
    value = Fraction(int(p), int(q))
    return -value if k == 1 else value


def zeta_constant(s: int) -> Fraction:
    """Zeta-regularized value of 1^s + 2^s + ...: -B_{s+1}/(s+1)."""
    return -bernoulli(s + 1) / (s + 1)


def power_sum(s: int, n: int) -> int:
    return sum(k**s for k in range(1, n + 1))


def zeta(s: int) -> float:
    return float(mp.zeta(s))


def altzeta(s: int) -> float:
    """Dirichlet eta: the Abel value of sum (-1)^(n-1) n^(-s)."""
    return float(mp.altzeta(s))


def cesaro_grandi(n: int) -> float:
    """(C,1) mean of the Grandi partial sums P_0..P_n with P_0 = 0."""
    return math.ceil(n / 2) / (n + 1)


def _stirling_g_mp(n: int):
    return mp.loggamma(n + 1) - (n + mp.mpf(1) / 2) * mp.log(n) + n - mp.log(2 * mp.pi) / 2


def stirling_g(n: int) -> float:
    """g(n) = log n! - (n+1/2) log n + n - log(2 pi)/2."""
    with mp.workdps(60):
        return float(_stirling_g_mp(n))


def stirling_gap(n: int, terms: int) -> float:
    """|g(n) - sum_{m<=terms} B_2m/(2m(2m-1)n^(2m-1))|, in 60-digit arithmetic."""
    series = sum(stirling_terms(n, terms))
    with mp.workdps(60):
        return float(abs(_stirling_g_mp(n) - mp.mpf(series.numerator) / series.denominator))


def stirling_bound(n: int, terms: int) -> Fraction:
    t = terms
    return abs(bernoulli(2 * t + 2)) / ((2 * t + 1) * (2 * t + 2) * Fraction(n) ** (2 * t + 1))


def stirling_terms(n: int, count: int):
    return [bernoulli(2 * m) / (2 * m * (2 * m - 1) * Fraction(n) ** (2 * m - 1))
            for m in range(1, count + 1)]


def divergence_onset(n: int, max_terms: int):
    """(m*, terms): first m >= 2 with |term_m| > |term_{m-1}|, or (None, terms)."""
    terms = stirling_terms(n, max_terms)
    for m in range(2, max_terms + 1):
        if abs(terms[m - 1]) > abs(terms[m - 2]):
            return m, terms[:m]
    return None, terms


def optimal_truncation(alpha: Fraction) -> int:
    """argmin_N N! alpha^N with ties to the larger index: floor(1/alpha)."""
    return int(1 / alpha)


# --- cutoffs and float64 sums ---------------------------------------------------


def eta(kind: str, p: int, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    m = (x >= 0.0) & (x < 1.0)
    if kind == "bump":
        t = 1.0 - x[m] * x[m]
        out[m] = np.exp(1.0 - 1.0 / t)
    elif kind == "poly":
        out[m] = (1.0 - x[m]) ** p
    else:
        raise ValueError(kind)
    return out


def parse_cutoff(spec: str):
    kind, _, p = spec.partition(":")
    return kind, int(p or 0)


def smoothed_sum(s: int, spec: str, N: float, step: int = 1) -> float:
    """sum_{n>=1} (step n)^s eta(step n / N), chunked, each chunk fsum-ed."""
    kind, p = parse_cutoff(spec)
    last = math.ceil(N / step)
    parts = []
    for lo in range(1, last + 1, _CHUNK):
        n = np.arange(lo, min(lo + _CHUNK, last + 1), dtype=float) * step
        parts.append(math.fsum(n**s * eta(kind, p, n / N)))
    return math.fsum(parts)


def grandi_smoothed(spec: str, N: float) -> float:
    kind, p = parse_cutoff(spec)
    last = math.ceil(N)
    parts = []
    for lo in range(1, last + 1, _CHUNK):
        n = np.arange(lo, min(lo + _CHUNK, last + 1), dtype=float)
        sign = np.where(np.arange(lo, lo + n.size) % 2 == 1, 1.0, -1.0)
        parts.append(math.fsum(sign * eta(kind, p, n / N)))
    return math.fsum(parts)


def mellin_mp(spec: str, s: int) -> mp.mpf:
    kind, p = parse_cutoff(spec)
    if kind == "poly":
        return mp.mpf(math.factorial(s) * math.factorial(p)) / math.factorial(s + p + 1)
    return mp.quad(lambda x: x**s * mp.exp(1 - 1 / (1 - x * x)), [0, 0.5, 0.9, 1])


def em_tail_lhs(s: int, spec: str, N: int) -> float:
    """integral_0^N f - f(0)/2 - sum_{n=1}^N f(n) for f(x) = x^s eta(x/N), in mpmath."""
    kind, p = parse_cutoff(spec)
    with mp.workdps(40):
        if kind == "bump":
            e = lambda x: mp.exp(1 - 1 / (1 - x * x)) if x < 1 else mp.mpf(0)
        else:
            e = lambda x: (1 - x) ** p if x < 1 else mp.mpf(0)
        integral = mellin_mp(spec, s) * mp.mpf(N) ** (s + 1)
        f0 = mp.mpf(1) if s == 0 else mp.mpf(0)
        total = mp.fsum(mp.mpf(n) ** s * e(mp.mpf(n) / N) for n in range(1, N + 1))
        return float(integral - f0 / 2 - total)


# --- pairings -------------------------------------------------------------------


def _test_bump(center: float, halfwidth: float, x: np.ndarray) -> np.ndarray:
    u = (x - center) / halfwidth
    out = np.zeros_like(u)
    m = np.abs(u) < 1.0
    out[m] = np.exp(1.0 - 1.0 / (1.0 - u[m] * u[m]))
    return out


TEST_FUNCTIONS = {"centered": (0.0, math.pi / 2), "offset": (math.pi / 2, math.pi / 4)}


def _trapezoid_on_support(testfn: str, kernel, j: int) -> float:
    """Trapezoid rule with 64 j panels, in chunks so the arrays stay small.

    The endpoint values are exactly 0, so only interior nodes are summed.
    Small chunks keep this reference's memory well below the program's, so
    the benchmark's peak resident memory is the program's.
    """
    center, halfwidth = TEST_FUNCTIONS[testfn]
    panels = 2 * max(4096, 64 * j)
    h = 2.0 * halfwidth / panels
    parts = []
    for lo in range(1, panels, _CHUNK >> 4):
        x = center - halfwidth + h * np.arange(lo, min(lo + (_CHUNK >> 4), panels), dtype=float)
        parts.append(math.fsum(kernel(x) * _test_bump(center, halfwidth, x)))
    return h * math.fsum(parts)


def delta_pairing(j: int, testfn: str) -> float:
    """(1/2pi) integral sin((j+1/2)x)/sin(x/2) phi(x) dx over the support of phi."""

    def dirichlet(x):
        out = np.full_like(x, 2.0 * j + 1.0)
        nz = x != 0.0
        out[nz] = np.sin((j + 0.5) * x[nz]) / np.sin(0.5 * x[nz])
        return out

    return _trapezoid_on_support(testfn, dirichlet, j) / (2.0 * math.pi)


def sine_pairing(j: int, testfn: str) -> float:
    return _trapezoid_on_support(testfn, lambda x: np.sin(j * x), j)


# --- physics closed forms -------------------------------------------------------


def energy_density(d: float) -> float:
    return -math.pi**2 * HBAR * C_LIGHT / (720.0 * d**3)


def casimir_force(d: float) -> float:
    return -math.pi**2 * HBAR * C_LIGHT / (240.0 * d**4)


def casimir_tolerance(N: float) -> float:
    """Acceptance-gate tolerance on -1/360: 2% at N = 400, 1% from N = 800."""
    return 0.01 if N >= 800 else 0.02


def sharp_indicator_ut(S: int) -> float:
    """u_t of the sharp indicator at integer support S = N/lambda: -S^2/12."""
    return -S * S / 12.0


# --- asymptotics ----------------------------------------------------------------


def borel_euler(x: float) -> float:
    """(1/x) integral_0^inf e^(-z/x)/(1+z) dz = e^(1/x) E_1(1/x) / x."""
    with mp.workdps(30):
        return float(mp.exp(1 / mp.mpf(x)) * mp.e1(1 / mp.mpf(x)) / x)


def gyro(alpha: float, order: int) -> float:
    r = alpha / math.pi
    return 0.5 * r - (0.328 * r * r if order == 2 else 0.0)


def flat_probe(beta: float, n: int, h: float):
    """(value, scale): forward difference of exp(-z^-beta) at 0 and sum of |terms|."""
    with mp.workdps(50):
        terms = [(-1) ** (n - j) * math.comb(n, j) * (mp.exp(-(mp.mpf(j) * h) ** -beta) if j else 0)
                 for j in range(n + 1)]
        hn = mp.mpf(h) ** n
        return float(mp.fsum(terms) / hn), float(mp.fsum(abs(t) for t in terms) / hn)
