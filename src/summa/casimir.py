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

Derivatives of F have closed forms (Leibniz on -d/ds of s^2 G(s) with
G(s) = eta(lam s / N)):

    F^(k)(s) = -[ s^2 G^(k-1)(s) + 2(k-1) s G^(k-2)(s) + (k-1)(k-2) G^(k-3)(s) ]

for k >= 1 (terms with negative derivative order absent).  In particular
F^(3)(0) = -2 eta(0+), the only number the limit depends on.
``derivative_identities`` verifies these forms against finite differences of
the computed F, orders 1 through 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

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
    "energy_density",
    "casimir_force",
    "closed_form_energy_density",
    "closed_form_force",
]

# CODATA values; configuration, not literals scattered through formulas.
HBAR = 1.054571817e-34  # J s
C_LIGHT = 2.99792458e8  # m / s

DIMENSIONLESS_LIMIT = -1.0 / 360.0
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
    hbar: float = HBAR
    c: float = C_LIGHT

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
    """Closed-form k-th derivative of F at s (k = 1..5)."""
    if not 1 <= k <= 5:
        raise ValueError(f"derivative order must be in 1..5, got {k}")
    if s >= cfg.support_end:
        return 0.0
    lam, N, cutoff = cfg.lam, cfg.N, cfg.cutoff

    def G(m, x):  # m-th derivative of eta(lam x / N)
        return cutoff.deriv(m, lam * x / N) * (lam / N) ** m

    acc = s * s * G(k - 1, s)
    if k >= 2:
        acc += 2.0 * (k - 1) * s * G(k - 2, s)
    if k >= 3:
        acc += (k - 1) * (k - 2) * G(k - 3, s)
    return -acc


_STENCILS = {
    1: ((-1, 1), (-0.5, 0.5)),
    2: ((-1, 0, 1), (1.0, -2.0, 1.0)),
    3: ((-2, -1, 1, 2), (-0.5, 1.0, -1.0, 0.5)),
    4: ((-2, -1, 0, 1, 2), (1.0, -4.0, 6.0, -4.0, 1.0)),
    5: ((-3, -2, -1, 1, 2, 3), (-0.5, 2.0, -2.5, 2.5, -2.0, 0.5)),
}


def derivative_identities(cfg: CasimirConfig, order: int,
                          probes: Optional[Sequence[float]] = None) -> float:
    """Worst deviation of the order-k closed form from finite differences of F.

    Central second-order stencils with two Richardson steps; the deviation is
    the largest |fd - closed| over the probes, normalized by the largest
    closed-form magnitude there (robust at interior zeros of the derivative).
    """
    if not 1 <= order <= 5:
        raise ValueError(f"order must be in 1..5, got {order}")
    cfg.cutoff.require_smoothness(order, f"derivative identity of order {order}")
    end = cfg.support_end
    if probes is None:
        probes = [f * end for f in (0.15, 0.3, 0.5, 0.7, 0.85)]
    # high orders divide the quadrature noise by h^order: the step must stay
    # macroscopic and the inner tolerance near the roundoff floor of |F|
    h = max(0.5, 0.01 * end)
    f0 = abs(capital_F(0.0, cfg)) + 1.0
    tol = max(min(cfg.quad_tol, 1e-11), 4.0 * 2.3e-16 * f0)
    c = cfg.lam / cfg.N

    def F(x):
        if x >= end:
            return 0.0
        v, _ = _kernels.moment_quad(cfg.cutoff, 2, c, x, end, tol)
        return v

    offsets, coeffs = _STENCILS[order]

    def fd(x, step):
        return math.fsum(w * F(x + o * step) for o, w in zip(offsets, coeffs)) / step**order

    worst = 0.0
    scale = 0.0
    for s in probes:
        if s - 3.0 * h < 0.0:
            raise ValueError(f"probe {s} too close to 0 for step {h}")
        closed = capital_F_deriv(order, s, cfg)
        # two Richardson levels on the order-2 stencil: truncation O(h^6)
        r1a = (4.0 * fd(s, h / 2.0) - fd(s, h)) / 3.0
        r1b = (4.0 * fd(s, h / 4.0) - fd(s, h / 2.0)) / 3.0
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
    scales = [cfg.N / 2**k for k in range(levels) if cfg.N / 2**k >= 10]
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


def energy_density(cfg: CasimirConfig, *, enforce_smoothness: bool = True) -> float:
    """Total zero-point energy per unit plate area, J/m^2.

    (pi^2 hbar c / (2 d^3)) * u_t; converges to -pi^2 hbar c / (720 d^3).
    """
    (u,) = _ut_values(cfg, [cfg.N], enforce_smoothness)
    return math.pi**2 * cfg.hbar * cfg.c / (2.0 * cfg.d**3) * u


def casimir_force(d: float, cfg: CasimirConfig) -> float:
    """Force per unit area at separation ``d``: -d/dd of the energy density.

    u_t does not depend on d, so the derivative of C u_t / d^3 is exactly
    3 E / d.  Negative values mean attraction; the closed-form comparison
    point is -pi^2 hbar c / (240 d^4).
    """
    if d <= 0:
        raise ValueError(f"plate separation must be positive, got {d}")
    return 3.0 * energy_density(replace(cfg, d=d)) / d


def closed_form_energy_density(d: float, hbar: float = HBAR, c: float = C_LIGHT) -> float:
    return -math.pi**2 * hbar * c / (720.0 * d**3)


def closed_form_force(d: float, hbar: float = HBAR, c: float = C_LIGHT) -> float:
    return -math.pi**2 * hbar * c / (240.0 * d**4)


def sup_f5_estimate(cfg: CasimirConfig, samples: int = 2001) -> float:
    """Grid-sampled sup |F^(5)| over the support; scales as N^-2 at fixed lam."""
    cfg.cutoff.require_smoothness(4, "the C^5 norm estimate")
    xs = np.linspace(0.0, cfg.support_end * (1.0 - 1e-9), samples)
    vals = [abs(capital_F_deriv(5, float(x), cfg)) for x in xs]
    return max(vals)
