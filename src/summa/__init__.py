"""summa: principled finite values for divergent series.

Classical summability methods (Cesaro, Abel/Euler, zeta-regularized), exact
Bernoulli/Faulhaber machinery, smoothed sums with compactly supported
cutoffs, Euler-Maclaurin remainder tracking, and the parallel-plate Casimir
energy computed through smoothed zero-point sums.
"""

from .exact import Rational, bernoulli, bernoulli_table, binomial, faulhaber, genfun_coefficients
from .cutoffs import Cutoff, make_cutoff, parse_cutoff, sharp_indicator
from .series import SeriesOracle, get_series
from .summation import (
    SummationOutcome,
    abel_sum,
    cesaro_sum,
    inconsistency_ledger,
    partial_sum,
    ramanujan_monomial,
    zeta_via_eta,
)
from .smoothed import (
    AsymptoticFit,
    constant_extraction,
    delta_pairing,
    grandi_smoothed,
    mellin,
    scaling_counterexample,
    sine_pairing,
    smoothed_sum,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Rational",
    "bernoulli",
    "bernoulli_table",
    "binomial",
    "faulhaber",
    "genfun_coefficients",
    "Cutoff",
    "make_cutoff",
    "parse_cutoff",
    "sharp_indicator",
    "SeriesOracle",
    "get_series",
    "SummationOutcome",
    "partial_sum",
    "cesaro_sum",
    "abel_sum",
    "ramanujan_monomial",
    "zeta_via_eta",
    "inconsistency_ledger",
    "AsymptoticFit",
    "smoothed_sum",
    "mellin",
    "constant_extraction",
    "grandi_smoothed",
    "scaling_counterexample",
    "delta_pairing",
    "sine_pairing",
]
