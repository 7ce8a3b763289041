"""The moment integral_0^1 x^s eta(x) dx by adaptive quadrature: the tests' float reference
for the moments that the library computes exactly (``Cutoff.mellin_exact``) or in fixed
point (``smoothed._bump_moment``)."""

from summa import _kernels


def mellin(cutoff, s, tol):
    """Moment integral_0^1 x^s eta(x) dx by adaptive quadrature to abs tol."""
    if s < 0:
        raise ValueError(f"mellin requires s >= 0, got {s}")
    if tol <= 0:
        raise ValueError(f"mellin requires tol > 0, got {tol}")
    (value,), _ = _kernels.moment_quad(cutoff, s, 1.0, [0.0], [1.0], tol)
    return value
