"""Casimir energy of perfectly conducting parallel plates via smoothed sums.

The mode sum over the discrete transverse index n is organized around

    F(n) = integral_n^{N/lam} v^2 eta(lam v / N) dv,

whose combination

    u_N = sum_{n>=1} F(n) + F(0)/2 - integral_0^inf F(s) ds

is exactly the smoothed-sum tail object.  As the smoothing scale N grows,
u_N -> B_4/12 = -1/360 (with B_4 = -1/30), independent of the cutoff shape
and of lam -- the dimensionless content of the plate-energy theorem.  The
physical energy per unit area follows by the prefactor pi^2 hbar c / (2 d^3),
giving -pi^2 hbar c / (720 d^3), and the force -d/dd of it, 3 E / d.

Derivatives of F have closed forms: with L = N / lam,

    F^(k)(s) = -(d/ds)^(k-1) [ s^2 eta(s / L) ],

which is the x^s eta(x/N) object of the Euler-Maclaurin tail identity at
s = 2 and support end L, so ``capital_F_deriv`` reads it from the Leibniz
rule of ``euler_maclaurin.monomial_cutoff_deriv``.  In
particular F^(3)(0) = -2 eta(0+), the only number the limit depends on.
``derivative_identities`` verifies these forms against finite differences of
the computed F, orders 1 through 5.  Its stencils difference F only through
the integrals over the gaps between their points, each point taken once and
nothing integrated out to the support end; ``euler_maclaurin.sup_norm_check(2,
...)`` samples sup |F^(5)|, which scales as N^-2 at fixed lam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, NamedTuple, Sequence, Tuple

from . import _kernels
from .cutoffs import Cutoff, make_cutoff
from .errors import CutoffSmoothnessError

__all__ = [
    "HBAR",
    "C_LIGHT",
    "CasimirConfig",
    "capital_F",
    "capital_F_deriv",
    "derivative_identities",
    "UtResult",
    "u_t_dimensionless",
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

MAX_CELLS = _kernels.MAX_CELLS  # unit cells of one u_t sweep, ceil(N / lam); more raise ValueError


@dataclass(frozen=True)
class CasimirConfig:
    """Parameters of one smoothed plate-energy computation.

    ``lam`` is the dimensionless ratio pi c / (d omega_a) tying the mode
    index to the physical frequency cutoff; ``N`` is the smoothing scale.
    """

    d: float = 1e-6
    lam: float = 1.0
    N: float = 200.0
    cutoff: Cutoff = field(default_factory=lambda: make_cutoff("bump"))
    quad_tol: float = 1e-8

    def __post_init__(self):
        if self.d <= 0:
            raise ValueError(f"plate separation must be positive, got {self.d}")
        if self.lam <= 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.N < 10:
            raise ValueError(f"smoothing scale N must be >= 10, got {self.N}")
        if self.quad_tol <= 0:
            raise ValueError(f"quad_tol must be positive, got {self.quad_tol}")

    @property
    def support_end(self) -> float:
        """The mode value beyond which F vanishes: N / lam."""
        return self.N / self.lam


def capital_F(n: float, cfg: CasimirConfig) -> float:
    """F(n) = integral_n^{N/lam} v^2 eta(lam v/N) dv; exactly 0 for n >= N/lam."""
    if n < 0:
        raise ValueError(f"capital_F requires n >= 0, got {n}")
    end = cfg.support_end
    if n >= end:
        return 0.0
    value, _ = _kernels.moment_quad(cfg.cutoff, 2, cfg.lam / cfg.N, float(n), end,
                                    cfg.quad_tol / 10.0)
    return value


def capital_F_deriv(k: int, s: float, cfg: CasimirConfig) -> float:
    """Closed-form k-th derivative of F at s (k = 1..5): -(d/ds)^(k-1) [s^2 eta(s/L)]."""
    from .euler_maclaurin import monomial_cutoff_deriv

    if not 1 <= k <= 5:
        raise ValueError(f"derivative order must be in 1..5, got {k}")
    if s >= cfg.support_end:
        return 0.0
    return -float(monomial_cutoff_deriv(2, cfg.cutoff, cfg.support_end, k - 1, [s])[0])


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
    support end.  A gap is O(h s^2), not the O(L^3) of F itself, so the inner
    tolerance needs no floor relative to |F|; where min(quad_tol, 1e-11) sits
    below a gap's roundoff floor, the quadrature's floor acceptance ends it.
    """
    if not 1 <= order <= 5:
        raise ValueError(f"order must be in 1..5, got {order}")
    cfg.cutoff.require_smoothness(order, f"derivative identity of order {order}")
    end = cfg.support_end
    probes = [f * end for f in (0.15, 0.3, 0.5, 0.7, 0.85)]
    # high orders divide the quadrature noise by h^order: the step must stay
    # macroscopic and the inner tolerance near the roundoff floor of a gap
    h = max(0.5, 0.01 * end)
    tol = min(cfg.quad_tol, 1e-11)
    c = cfg.lam / cfg.N
    offsets, coeffs = _STENCILS[order]
    steps = (h, h / 2.0, h / 4.0)

    worst = 0.0
    scale = 0.0
    for s in probes:
        if s - 3.0 * h < 0.0:
            raise ValueError(f"probe {s} too close to 0 for step {h}")
        # 2 * (h/2) rounds onto h exactly, so shared points collapse here
        points = sorted({s + o * step for step in steps for o in offsets})
        G = {points[-1]: 0.0}
        for a, b in reversed(list(zip(points, points[1:]))):
            G[a] = G[b] + _kernels.moment_quad(cfg.cutoff, 2, c, a, b, tol)[0]

        def fd(step):
            return math.fsum(w * G[s + o * step] for o, w in zip(offsets, coeffs)) / step**order

        closed = capital_F_deriv(order, s, cfg)
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


def _ut_values(cfg: CasimirConfig, scales: Sequence[float], enforce_smoothness: bool):
    """One plate-energy sweep per smoothing scale in ``scales``."""
    if enforce_smoothness and cfg.cutoff.smoothness_order < 5:
        raise CutoffSmoothnessError(
            f"cutoff {cfg.cutoff.label!r} is below C^5; pass enforce_smoothness=False "
            "to run the non-stabilizing demonstration anyway"
        )
    return [_kernels.ut_value(cfg.cutoff, cfg.lam, N, cfg.quad_tol)[0] for N in scales]


def u_t_ladder(cfg: CasimirConfig, levels: int, *,
               enforce_smoothness: bool = True) -> List[Tuple[float, UtResult]]:
    """u_t at N / 2^k for k = levels-1 .. 0 (scales below 10 dropped), ascending N.

    Each row's error estimate is its N-halving difference.  Neighbouring rows
    share their sweeps, so ``levels`` rows cost levels + 1 of them.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    scales = [cfg.N]  # halving is exact, so each scale is N / 2^k to the bit
    while len(scales) < levels and scales[-1] / 2.0 >= 10:
        scales.append(scales[-1] / 2.0)
    values = _ut_values(cfg, scales + [scales[-1] / 2.0], enforce_smoothness)
    rows = [(N, UtResult(v, abs(v - half))) for N, v, half in zip(scales, values, values[1:])]
    return rows[::-1]


def u_t_dimensionless(cfg: CasimirConfig, *, enforce_smoothness: bool = True) -> UtResult:
    """sum_{n>=1} F(n) + F(0)/2 - integral_0^{N/lam} F(s) ds, plus N-halving error.

    Converges to -1/360 as N grows.  The combination is evaluated through an
    exact cell-by-cell regrouping that never forms the two large canceling
    pieces (see the kernel docstring).  The argument runs through the C^5
    norm of F, so cutoffs below C^5 are rejected unless
    ``enforce_smoothness=False`` (the sharp-indicator contrast runs need the
    escape hatch; their values never stabilize).
    """
    return u_t_ladder(cfg, 1, enforce_smoothness=enforce_smoothness)[0][1]


def energy_prefactor(d: float) -> float:
    """pi^2 hbar c / (2 d^3), J/m^2: the energy per unit plate area is this times u_t."""
    return math.pi**2 * HBAR * C_LIGHT / (2.0 * d**3)


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
    if d <= 0:
        raise ValueError(f"plate separation must be positive, got {d}")
    return 3.0 * energy_density(replace(cfg, d=d)) / d


def closed_form_energy_density(d: float) -> float:
    return -math.pi**2 * HBAR * C_LIGHT / (720.0 * d**3)


def closed_form_force(d: float) -> float:
    return -math.pi**2 * HBAR * C_LIGHT / (240.0 * d**4)

