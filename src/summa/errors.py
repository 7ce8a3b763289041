"""Exception taxonomy shared across the package."""


class SummaError(Exception):
    """Base class for computational errors raised by this package."""


class QuadratureError(SummaError):
    """Adaptive quadrature failed to reach the requested tolerance in budget."""


class CutoffSmoothnessError(SummaError, ValueError):
    """A cutoff function is too rough for the requested operation."""


class AbelInnerSeriesError(SummaError):
    """The power series sum(a_n t^n) has radius below 1, so it diverges at some t < 1.

    Distinct from a 'divergent' verdict: the limit t -> 1- is never reached
    because the series is not summed on the whole of [0, 1).
    """


class BorelSummabilityError(SummaError):
    """The Borel transform is not summable against exp(-z/x) on the range."""


class GrowthNotFoundError(SummaError, ValueError):
    """No growth index found within max_terms; increase max_terms."""


class NonFiniteResultError(SummaError):
    """A computed result is inf or nan, typically after a float64 overflow."""


class PrecisionCapError(SummaError):
    """An exact fixed-point pass would need more bits than its stated cap."""
