"""Casimir energy of perfectly conducting parallel plates via smoothed sums.

The mode sum over the discrete transverse index n is organized around

    F(n) = integral_n^{N/lam} v^2 eta(lam v / N) dv,

whose combination

    u_N = sum_{n>=1} F(n) + F(0)/2 - integral_0^inf F(s) ds

is exactly the smoothed-sum tail object.  For a polynomial eta, (1 - x)^p
on [0, 1] (poly:p, and the sharp indicator as p = 0), u_N is an exact
rational in O(p) Bernoulli terms, computed in integers and rounded once
(``_poly_ut``).  The bump has no closed form, but all its derivatives vanish
at 1, so u_N is its Euler-Maclaurin expansion at 0 up to a remainder bounded
from the bump's sup table: ``cutoffs.bump_em``'s integrated s = 3 case, the
smoothed sum's terms each times -1/(2m+3).  It is one rational in 14 terms,
rounded once, wherever that bound is at most 2^-62 -- at N/lam from ~642 --
and the cell sweep ``_kernels.ut_value`` over fewer cells below.  Which path
runs is decided per scale by that bound's exact test on N/lam; nothing else
selects it.  As the smoothing scale N grows, u_N -> B_4/12 = -1/360 (with
B_4 = -1/30), independent of the cutoff shape and of lam -- the dimensionless
content of the plate-energy theorem.  The physical energy per unit area
follows by the prefactor pi^2 hbar c / (2 d^3), giving -pi^2 hbar c / (720 d^3),
and the force -d/dd of it, 3 E / d.

Derivatives of F have closed forms: with L = N / lam,

    F^(k)(s) = -(d/ds)^(k-1) [ s^2 eta(s / L) ],

which is the x^s eta(x/N) object of the Euler-Maclaurin tail identity at
s = 2 and support end L, so ``capital_F_deriv`` reads it from the Leibniz
rule of ``euler_maclaurin.monomial_cutoff_deriv``.  In
particular F^(3)(0) = -2 eta(0+), the only number the limit depends on.
``derivative_identities`` verifies these forms against finite differences of
the computed F, orders 1 through 5.  Its stencils difference F only through
the integrals over the gaps between their points, each point taken once and
nothing integrated out to the support end.

``_kernels``, and with it numpy, is imported in the quadrature paths only,
so the exact u_t of a polynomial eta, and the bump's expansion, run without
numpy.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple

from .cutoffs import Cutoff, bump_em, make_cutoff
from .errors import CutoffSmoothnessError, NonFiniteResultError
from .exact import bernoulli_integers

__all__ = [
    "HBAR",
    "C_LIGHT",
    "CasimirConfig",
    "capital_F_deriv",
    "derivative_identities",
    "UtResult",
    "u_t_dimensionless",
    "ladder_scales",
    "u_t_ladder",
    "energy_prefactor",
    "energy_density",
    "casimir_force",
    "closed_form_energy_density",
    "closed_form_force",
]

# CODATA values, named once rather than scattered through formulas.
HBAR = 1.054571817e-34  # J s
C_LIGHT = 2.99792458e8  # m / s

class _CasimirFields(NamedTuple):
    d: float = 1e-6
    lam: float = 1.0
    N: float = 200.0
    cutoff: Cutoff = make_cutoff("bump")  # cutoffs are never mutated, so one is shared
    quad_tol: float = 1e-8


class CasimirConfig(_CasimirFields):
    """Parameters of one smoothed plate-energy computation.

    ``lam`` is the dimensionless ratio pi c / (d omega_a) tying the mode
    index to the physical frequency cutoff; ``N`` is the smoothing scale.
    The checks run in ``__new__``, and ``_make`` (so ``_replace`` too) goes
    through it.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        cfg = super().__new__(cls, *args, **kwargs)
        if cfg.d <= 0:
            raise ValueError(f"plate separation must be positive, got {cfg.d}")
        if cfg.lam <= 0:
            raise ValueError(f"lam must be positive, got {cfg.lam}")
        if cfg.N < 10:
            raise ValueError(f"smoothing scale N must be >= 10, got {cfg.N}")
        if math.isinf(cfg.N / cfg.lam):
            raise ValueError(f"N / lam = {cfg.N / cfg.lam} is past float64 range")
        if cfg.quad_tol <= 0:
            raise ValueError(f"quad_tol must be positive, got {cfg.quad_tol}")
        return cfg

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def support_end(self) -> float:
        """The mode value beyond which F vanishes: N / lam."""
        return self.N / self.lam


def capital_F_deriv(k: int, s, cfg: CasimirConfig):
    """Closed-form k-th derivative of F at s (k = 1..5): -(d/ds)^(k-1) [s^2 eta(s/L)].

    ``s`` is a point, giving a float, or a sequence of points, giving an array;
    from the support end on the derivative is 0.
    """
    import numpy as np

    from .euler_maclaurin import monomial_cutoff_deriv

    if not 1 <= k <= 5:
        raise ValueError(f"derivative order must be in 1..5, got {k}")
    points = np.atleast_1d(np.asarray(s, dtype=float))
    inside = points < cfg.support_end
    d = -monomial_cutoff_deriv(2, cfg.cutoff, cfg.support_end, k - 1,
                               np.where(inside, points, 0.0))
    d = np.where(inside, d, 0.0)
    return d if np.ndim(s) else float(d[0])


_STENCILS = {
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
    5: ((-3, -2, -1, 1, 2, 3), (-0.5, 2.0, -2.5, 2.5, -2.0, 0.5)),
}


def derivative_identities(cfg: CasimirConfig, order: int) -> float:
    """Worst deviation of the order-k closed form from finite differences of F.

    Central second-order stencils with two Richardson steps; the deviation is
    the largest |fd - closed| over probes at 0.15, 0.3, 0.5, 0.7 and 0.85 of
    the support, normalized by the largest closed-form magnitude there
    (robust at interior zeros of the derivative).

    The stencil weights sum to 0, so differencing G(x) = F(x) - F(top), with
    top the probe's highest stencil point, gives the same fd as F.  G needs
    only the integrals of v^2 eta(lam v/N) over the gaps between the probe's
    sorted stencil points (at most 14 over the steps h, h/2 and h/4), summed
    from the top down: each point is integrated once and nothing reaches the
    support end.  The gaps of all five probes, at most 70, go to the
    quadrature as one batch (``_kernels.moment_quad``), each gap with its own
    tolerance.  A gap is O(h s^2), not the O(L^3) of F itself, so the inner
    tolerance needs no floor relative to |F|; where min(quad_tol, 1e-11) sits
    below a gap's roundoff floor, the quadrature's floor acceptance ends it.
    """
    from . import _kernels

    if not 1 <= order <= 5:
        raise ValueError(f"order must be in 1..5, got {order}")
    cfg.cutoff.require_smoothness(order, f"derivative identity of order {order}")
    end = cfg.support_end
    probes = [f * end for f in (0.15, 0.3, 0.5, 0.7, 0.85)]
    # high orders divide the quadrature noise by h^order: the step must stay
    # macroscopic and the inner tolerance near the roundoff floor of a gap
    h = max(0.5, 0.01 * end)
    offsets, coeffs = _STENCILS[order]
    steps = (h, h / 2.0, h / 4.0)
    stencils = []
    for s in probes:
        if s - 3.0 * h < 0.0:
            raise ValueError(f"probe {s} too close to 0 for step {h}")
        # 2 * (h/2) rounds onto h exactly, so shared points collapse here
        stencils.append(sorted({s + o * step for step in steps for o in offsets}))
    lo = [a for points in stencils for a in points[:-1]]
    hi = [b for points in stencils for b in points[1:]]
    gaps = iter(_kernels.moment_quad(cfg.cutoff, 2, cfg.lam / cfg.N, lo, hi,
                                     min(cfg.quad_tol, 1e-11))[0])
    closed_forms = capital_F_deriv(order, probes, cfg)

    worst = 0.0
    scale = 0.0
    for s, points, closed in zip(probes, stencils, closed_forms.tolist()):
        G = {points[-1]: 0.0}
        for a, b, gap in reversed([(a, b, next(gaps)) for a, b in zip(points, points[1:])]):
            G[a] = G[b] + gap

        def fd(step):
            return math.fsum(w * G[s + o * step] for o, w in zip(offsets, coeffs)) / step**order

        # two Richardson levels on the order-2 stencil: truncation O(h^6)
        d1, d2, d4 = (fd(step) for step in steps)
        r1a = (4.0 * d2 - d1) / 3.0
        r1b = (4.0 * d4 - d2) / 3.0
        rich = (16.0 * r1b - r1a) / 15.0
        worst = max(worst, abs(rich - closed))
        scale = max(scale, abs(closed))
    return worst / max(scale, 1e-300)


class UtResult(NamedTuple):
    value: float
    error_estimate: float


@functools.lru_cache(maxsize=8)
def _poly_ut_rows(p: int):
    """Per-order constants of ``_poly_ut``: (D, K, rows), one row (q, e_q, coefficients) per q.

    D is the common denominator of B_0 .. B_{p+4} and K = (p+1)(p+2)(p+3)(p+4);
    e_q = K c_q / (q + 1) and coefficient k of row q is C(q+1, k) D B_k, in
    the B_1 = -1/2 convention of the Bernoulli polynomials.
    """
    D, beta = bernoulli_integers(p + 4)
    beta = (beta[0], -beta[1]) + beta[2:]
    K = (p + 1) * (p + 2) * (p + 3) * (p + 4)
    e = ((p + 3) * (p + 4), -2 * (p + 1) * (p + 4), (p + 1) * (p + 2))
    rows = tuple((q, e_q, tuple(math.comb(q + 1, k) * beta[k] for k in range(q + 2)))
                 for q, e_q in zip(range(p + 1, p + 4), e))
    return D, K, rows


def _poly_ut(p: int, support: float) -> float:
    """u_t for eta = (1 - x)^p on [0, 1] (poly:p, and the indicator at p = 0), rounded once.

    With L = ``support`` and x = 1 - n/L, F(n) = L^3 sum_q c_q x^q over
    q = p+1, p+2, p+3 with c = (1/(p+1), -2/(p+2), 1/(p+3)).  The n < L are
    n = 1..M, M = ceil(L) - 1, and with theta = L - M in (0, 1] the Bernoulli
    polynomials give sum_{n=1}^{M} (L - n)^q = (B_{q+1}(L) - B_{q+1}(theta)) / (q+1).
    So, with sum_q c_q = 2 / ((p+1)(p+2)(p+3)) and sum_q c_q/(q+1) = 6/K,

        u_t = (L^3 / K) [sum_q e_q L^-q (B_{q+1}(L) - B_{q+1}(theta)) + p + 4 - 6 L].

    L = a/b exactly, b = 2^e, theta = t/b; D b^{q+1} B_{q+1}(x/b) is the
    integer sum_k C(q+1,k) D B_k x^{q+1-k} b^k.  The whole value is one
    integer over K D b^4 a^p, and int / int rounds it once, correctly.  A
    value past float64 range (the indicator's ~ -L^2/12 from L ~ 10^154)
    raises NonFiniteResultError.
    """
    a, b = support.as_integer_ratio()
    t = a - (math.ceil(support) - 1) * b
    e = b.bit_length() - 1

    def scaled_bernoulli(coefs, x):  # sum_k coefs[k] x^(n-k) b^k by Horner's rule
        acc = 0
        for k, c in enumerate(coefs):
            acc = acc * x + (c << (k * e))
        return acc

    D, K, rows = _poly_ut_rows(p)
    num = ((p + 4) * b - 6 * a) * D * a ** (p + 3)
    for q, e_q, coefs in rows:
        num += e_q * (scaled_bernoulli(coefs, a) - scaled_bernoulli(coefs, t)) * a ** (p + 3 - q)
    try:
        return num / (K * D * b**4 * a**p)
    except OverflowError as exc:
        raise NonFiniteResultError(f"u_t at N/lam = {support!r} is past float64 range") from exc


_UT_LIMIT = Fraction(1, 1 << 62)


def _ut_values(cfg: CasimirConfig, scales: Sequence[float], enforce_smoothness: bool):
    """u_t at each smoothing scale in ``scales``.

    Exact for a polynomial eta.  The bump takes its Euler-Maclaurin expansion wherever the
    remainder bound is at most ``_UT_LIMIT`` = 2^-62, half an ulp of any value in [2^-9, 2^-8)
    (|u_t| is there, from N/lam = 641.80...), and the cell sweep below, at most 642 cells.
    """
    if enforce_smoothness and cfg.cutoff.smoothness_order < 5:
        raise CutoffSmoothnessError(
            f"cutoff {cfg.cutoff.label!r} is below C^5; pass enforce_smoothness=False "
            "to run the non-stabilizing demonstration anyway"
        )
    if cfg.cutoff.kind != "bump":
        return [_poly_ut(cfg.cutoff.p, N / cfg.lam) for N in scales]
    values = []
    for N in scales:
        terms = bump_em(3, N / cfg.lam, lambda s, L: _UT_LIMIT, integrated=True)
        if terms is None:
            from . import _kernels

            values.append(_kernels.ut_value(cfg.cutoff, cfg.lam, N, cfg.quad_tol)[0])
        else:
            values.append(terms[0] / terms[1])
    return values


def ladder_scales(N: float, levels: int) -> List[float]:
    """The smoothing scales of ``u_t_ladder``: N / 2^k for its rows, descending, then half the
    last."""
    scales = [N]  # halving is exact, so each scale is N / 2^k to the bit
    while len(scales) < levels and scales[-1] / 2.0 >= 10:
        scales.append(scales[-1] / 2.0)
    return scales + [scales[-1] / 2.0]


def u_t_ladder(cfg: CasimirConfig, levels: int, *,
               enforce_smoothness: bool = True) -> List[Tuple[float, UtResult]]:
    """u_t at N / 2^k for k = levels-1 .. 0 (scales below 10 dropped), ascending N.

    Each row's error estimate is its N-halving difference.  Neighbouring rows
    share their values, so ``levels`` rows cost levels + 1 of them.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    scales = ladder_scales(cfg.N, levels)
    values = _ut_values(cfg, scales, enforce_smoothness)
    rows = [(N, UtResult(v, abs(v - half))) for N, v, half in zip(scales, values, values[1:])]
    return rows[::-1]


def u_t_dimensionless(cfg: CasimirConfig, *, enforce_smoothness: bool = True) -> UtResult:
    """sum_{n>=1} F(n) + F(0)/2 - integral_0^{N/lam} F(s) ds, plus N-halving error.

    Converges to -1/360 as N grows.  For poly:p and the indicator the value
    is the exact rational rounded once (``_poly_ut``), so its only error is
    that rounding.  For the bump at N/lam from ~642 it is the
    Euler-Maclaurin expansion at 0, rounded once, within 2^-62 + half an ulp
    of the true value (``cutoffs.bump_em``); below that the combination is
    evaluated through an exact cell-by-cell regrouping that never forms the
    two large canceling pieces (see ``_kernels.ut_value``).  On every path the
    error estimate stays the N-halving difference, the distance of the value
    from the limit's next term, not a bound on its own error.  Below
    N/lam ~ 642 it stayed above the swept value's error at 48 sampled scales
    from 10 to 641 (closest at N = 641: 5.2e-9 against an error of 5.6e-10,
    measured on a 30-digit per-cell reference), but nothing bounds it there.
    The argument runs through the C^5 norm of F, so cutoffs below C^5 are
    rejected unless ``enforce_smoothness=False`` (the sharp-indicator contrast
    runs need the escape hatch; their values never stabilize).
    """
    return u_t_ladder(cfg, 1, enforce_smoothness=enforce_smoothness)[0][1]


def _over_d_power(scale: float, d: float, k: int) -> float:
    """pi^2 hbar c / (scale d^k); NonFiniteResultError where it leaves float64 range.

    A d^k or a quotient that overflows, or a quotient that underflows to 0,
    leaves the range.
    """
    try:
        value = math.pi**2 * HBAR * C_LIGHT / (scale * d**k)
    except (OverflowError, ZeroDivisionError):
        value = 0.0
    if value == 0.0 or math.isinf(value):
        raise NonFiniteResultError(f"pi^2 hbar c / ({scale:g} d^{k}) at d = {d!r} is past "
                                   "float64 range")
    return value


def energy_prefactor(d: float) -> float:
    """pi^2 hbar c / (2 d^3), J/m^2: the energy per unit plate area is this times u_t."""
    return _over_d_power(2.0, d, 3)


def energy_density(cfg: CasimirConfig, *, enforce_smoothness: bool = True) -> float:
    """Total zero-point energy per unit plate area, J/m^2.

    energy_prefactor(d) * u_t; converges to -pi^2 hbar c / (720 d^3).
    """
    (u,) = _ut_values(cfg, [cfg.N], enforce_smoothness)
    return energy_prefactor(cfg.d) * u


def casimir_force(d: float, cfg: CasimirConfig) -> float:
    """Force per unit area at separation ``d``: -d/dd of the energy density.

    u_t does not depend on d, so the derivative of C u_t / d^3 is exactly
    3 E / d.  Negative values mean attraction; the closed-form comparison
    point is -pi^2 hbar c / (240 d^4).
    """
    return 3.0 * energy_density(cfg._replace(d=d)) / d  # _replace checks d > 0


def closed_form_energy_density(d: float) -> float:
    return -_over_d_power(720.0, d, 3)


def closed_form_force(d: float) -> float:
    return -_over_d_power(240.0, d, 4)

