"""summa: principled finite values for divergent series.

Classical summability methods (Cesaro, Abel/Euler, zeta-regularized), exact
Bernoulli/Faulhaber machinery, smoothed sums with compactly supported
cutoffs, Euler-Maclaurin remainder tracking, and the parallel-plate Casimir
energy computed through smoothed zero-point sums.
"""

import importlib

# the public names of each submodule, imported on first access (PEP 562), so
# ``import summa`` loads neither numpy nor mpmath
_SUBMODULE_EXPORTS = {
    "exact": ("Rational", "bernoulli", "bernoulli_table", "binomial", "faulhaber",
              "genfun_coefficients"),
    "cutoffs": ("Cutoff", "make_cutoff", "parse_cutoff", "sharp_indicator"),
    "series": ("SeriesOracle", "get_series"),
    "summation": ("SummationOutcome", "partial_sum", "cesaro_sum", "abel_sum",
                  "ramanujan_monomial", "zeta_via_eta", "inconsistency_ledger"),
    "smoothed": ("AsymptoticFit", "smoothed_sum", "constant_extraction", "grandi_smoothed",
                 "scaling_counterexample", "delta_pairing", "sine_pairing"),
}
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
