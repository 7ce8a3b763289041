import math
from dataclasses import replace
from fractions import Fraction

import pytest

from summa import casimir as casimir_module
from summa.casimir import (
    C_LIGHT,
    HBAR,
    CasimirConfig,
    capital_F,
    capital_F_deriv,
    casimir_force,
    closed_form_energy_density,
    closed_form_force,
    derivative_identities,
    energy_density,
    u_t_dimensionless,
    u_t_ladder,
)
from summa.cutoffs import make_cutoff, sharp_indicator
from summa.errors import CutoffSmoothnessError
from summa.smoothed import mellin

LIMIT = -1.0 / 360.0


def exact_poly_F(n, p, lam, N):
    """Exact integral_n^{N/lam} v^2 (1 - lam v/N)^p dv by antiderivative."""
    a = Fraction(n) * Fraction(lam) / Fraction(N)
    if a >= 1:
        return Fraction(0)
    w = 1 - a
    inner = w ** (p + 1) / (p + 1) - 2 * w ** (p + 2) / (p + 2) + w ** (p + 3) / (p + 3)
    return (Fraction(N) / Fraction(lam)) ** 3 * inner


def exact_poly_ut(p, lam, N):
    """Exact sum F(n) + F(0)/2 - integral, all in rational arithmetic."""
    support = Fraction(N) / Fraction(lam)
    outer = (Fraction(N) / Fraction(lam)) ** 4 * Fraction(
        math.factorial(3) * math.factorial(p), math.factorial(p + 4))
    disc = exact_poly_F(0, p, lam, N) / 2
    n = 1
    while n < support:
        disc += exact_poly_F(n, p, lam, N)
        n += 1
    return disc - outer


class TestConfig:
    def test_defaults_are_codata(self):
        assert HBAR == 1.054571817e-34
        assert C_LIGHT == 2.99792458e8

    @pytest.mark.parametrize("kwargs", [
        {"d": 0.0}, {"lam": -1.0}, {"N": 5.0}, {"quad_tol": 0.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CasimirConfig(**kwargs)


class TestCapitalF:
    def test_zero_beyond_support(self):
        cfg = CasimirConfig(N=100.0)
        assert capital_F(100.0, cfg) == 0.0
        assert capital_F(250.0, cfg) == 0.0

    def test_poly_against_exact_oracle(self):
        # scale-equivalent of the unit-scale hand case: int_0^M v^2 (1-v/M) dv = M^3/12
        cfg = CasimirConfig(N=10.0, lam=1.0, cutoff=make_cutoff("poly", 1), quad_tol=1e-11)
        assert capital_F(0.0, cfg) == pytest.approx(1000.0 / 12.0, abs=1e-8)
        for n in (0.0, 1.5, 4.0, 7.25, 9.9):
            cfg2 = CasimirConfig(N=40.0, lam=2.0, cutoff=make_cutoff("poly", 4), quad_tol=1e-11)
            assert capital_F(n, cfg2) == pytest.approx(
                float(exact_poly_F(Fraction(n), 4, 2, 40)), rel=1e-9, abs=1e-9)

    def test_bump_matches_moment_identity(self):
        # F(0) = (N/lam)^3 * integral x^2 eta(x)
        cfg = CasimirConfig(N=100.0, cutoff=make_cutoff("bump"), quad_tol=1e-10)
        target = 100.0**3 * mellin(cfg.cutoff, 2, 1e-13)
        assert capital_F(0.0, cfg) == pytest.approx(target, rel=1e-9)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            capital_F(-1.0, CasimirConfig())


class TestDerivativeIdentities:
    def test_third_derivative_at_zero_is_minus_two(self):
        for cut in (make_cutoff("bump"), make_cutoff("poly", 6)):
            cfg = CasimirConfig(N=50.0, cutoff=cut)
            assert capital_F_deriv(3, 0.0, cfg) == pytest.approx(-2.0 * cut.eval(0.0), abs=1e-12)

    def test_all_orders_vanish_beyond_support(self):
        cfg = CasimirConfig(N=50.0)
        for k in range(1, 6):
            assert capital_F_deriv(k, 50.0, cfg) == 0.0
            assert capital_F_deriv(k, 80.0, cfg) == 0.0

    @pytest.mark.parametrize("cutoff", ["bump", "poly:7"])
    @pytest.mark.parametrize("N,lam", [(50.0, 1.0), (400.0, 0.587)])
    def test_spec_matches_the_explicit_leibniz_form(self, cutoff, N, lam):
        # F^(k)(s) = -[s^2 G^(k-1) + 2(k-1) s G^(k-2) + (k-1)(k-2) G^(k-3)], G(s) = eta(lam s/N)
        cut = make_cutoff(cutoff)
        cfg = CasimirConfig(N=N, lam=lam, cutoff=cut)

        def G(m, x):
            return cut.deriv(m, lam * x / N) * (lam / N) ** m if m >= 0 else 0.0

        for k in range(1, 6):
            points = [cfg.support_end * i / 200.0 for i in range(200)]
            ref = [-(s * s * G(k - 1, s) + 2.0 * (k - 1) * s * G(k - 2, s)
                     + (k - 1) * (k - 2) * G(k - 3, s)) for s in points]
            scale = max(abs(r) for r in ref)
            for s, r in zip(points, ref):
                assert abs(capital_F_deriv(k, s, cfg) - r) <= 1e-13 * scale

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_closed_forms_match_finite_differences(self, order):
        cfg = CasimirConfig(N=50.0, cutoff=make_cutoff("bump"), quad_tol=1e-9)
        assert derivative_identities(cfg, order) <= 1e-4

    def test_poly_cutoff_too(self):
        cfg = CasimirConfig(N=50.0, cutoff=make_cutoff("poly", 7), quad_tol=1e-9)
        for order in (1, 3, 5):
            assert derivative_identities(cfg, order) <= 1e-4

    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("cutoff,bound", [("bump", 1e-5), ("poly:7", 1e-7)])
    def test_deviation_at_the_truncation_floor(self, cutoff, bound, order):
        # the order-5 bump is Richardson-truncation bound (~1.2e-6); poly:7's
        # worst, order 5, sits near 4e-9
        cfg = CasimirConfig(N=50.0, cutoff=make_cutoff(cutoff), quad_tol=1e-9)
        assert derivative_identities(cfg, order) <= bound

    @pytest.mark.parametrize("order", [1, 4, 5])
    def test_integrates_each_stencil_gap_once(self, monkeypatch, order):
        cfg = CasimirConfig(N=50.0, cutoff=make_cutoff("bump"), quad_tol=1e-9)
        h = max(0.5, 0.01 * cfg.support_end)
        seen = []
        inner = casimir_module._kernels.moment_quad

        def recording(cutoff, m, c, a, b, tol):
            seen.append((a, b))
            return inner(cutoff, m, c, a, b, tol)

        monkeypatch.setattr(casimir_module._kernels, "moment_quad", recording)
        derivative_identities(cfg, order)
        assert seen
        assert all(b < cfg.support_end and 0.0 < b - a <= 6.0 * h for a, b in seen)
        assert len(set(seen)) == len(seen)

    def test_rough_cutoff_rejected(self):
        cfg = CasimirConfig(N=50.0, cutoff=make_cutoff("poly", 2))
        with pytest.raises(CutoffSmoothnessError):
            derivative_identities(cfg, 4)


class TestUt:
    def test_bump_converges_to_limit(self):
        r = u_t_dimensionless(CasimirConfig(N=200.0, cutoff=make_cutoff("bump"), quad_tol=1e-9))
        assert abs(r.value - LIMIT) <= 0.02 * abs(LIMIT)

    def test_cutoff_independence(self):
        r = u_t_dimensionless(CasimirConfig(N=200.0, cutoff=make_cutoff("poly", 6), quad_tol=1e-9))
        assert abs(r.value - LIMIT) <= 0.02 * abs(LIMIT)

    def test_doubling_improves_deviation(self):
        # the advertised O(1/N) error is only an upper bound; the true leading
        # correction is O(1/N^2) (the 1/N-order term multiplies B_5 = 0), so the
        # measured improvement factor is ~4
        dev = {}
        for N in (100.0, 200.0):
            r = u_t_dimensionless(CasimirConfig(N=N, cutoff=make_cutoff("poly", 6), quad_tol=1e-11))
            dev[N] = abs(r.value - LIMIT)
        assert dev[100.0] / dev[200.0] >= 1.5

    def test_error_estimate_tracks_half_scale_run(self):
        r = u_t_dimensionless(CasimirConfig(N=400.0, cutoff=make_cutoff("bump"), quad_tol=1e-9))
        assert r.error_estimate >= 0.0
        assert r.error_estimate <= 1e-4

    def test_exact_rational_oracle_poly6(self):
        cfg = CasimirConfig(N=320.0, cutoff=make_cutoff("poly", 6), quad_tol=1e-10)
        r = u_t_dimensionless(cfg)
        assert r.value == pytest.approx(float(exact_poly_ut(6, 1, 320)), abs=5e-9)

    def test_lambda_robustness(self):
        for lam in (0.5, 1.0, 2.0):
            r = u_t_dimensionless(CasimirConfig(N=400.0, lam=lam, cutoff=make_cutoff("bump"),
                                                quad_tol=1e-9))
            assert abs(r.value - LIMIT) <= 0.02 * abs(LIMIT)

    def test_indicator_rejected_by_default(self):
        cfg = CasimirConfig(N=100.0, cutoff=sharp_indicator())
        with pytest.raises(CutoffSmoothnessError):
            u_t_dimensionless(cfg)

    def test_indicator_never_stabilizes(self):
        # the residual-infinity contrast: value ~ -M^2/12, so the N-halving
        # differences grow instead of shrinking
        vals = {}
        for N in (100.0, 200.0, 400.0):
            cfg = CasimirConfig(N=N, cutoff=sharp_indicator(), quad_tol=1e-9)
            vals[N] = u_t_dimensionless(cfg, enforce_smoothness=False).value
            assert vals[N] == pytest.approx(-(N**2) / 12.0, rel=1e-2)
        assert abs(vals[400.0] - vals[200.0]) > abs(vals[200.0] - vals[100.0])

    def test_ladder_rows_are_u_t_at_each_scale(self, monkeypatch):
        from summa import _kernels

        cfg = CasimirConfig(N=320.0, cutoff=make_cutoff("poly", 6), quad_tol=1e-9)
        sweeps = []
        real = _kernels.ut_value

        def counted(cutoff, lam, N, tol):
            sweeps.append(N)
            return real(cutoff, lam, N, tol)

        monkeypatch.setattr(_kernels, "ut_value", counted)
        rows = u_t_ladder(cfg, 4)
        assert sorted(sweeps) == [20.0, 40.0, 80.0, 160.0, 320.0]  # levels + 1 sweeps
        assert [N for N, _ in rows] == [40.0, 80.0, 160.0, 320.0]
        for N, r in rows:
            assert r == u_t_dimensionless(replace(cfg, N=N))

    def test_ladder_stops_at_the_smallest_valid_scale(self):
        cfg = CasimirConfig(N=40.0, cutoff=make_cutoff("poly", 6), quad_tol=1e-9)
        assert [N for N, _ in u_t_ladder(cfg, 6)] == [10.0, 20.0, 40.0]
        with pytest.raises(ValueError):
            u_t_ladder(cfg, 0)


class TestPhysicalOutputs:
    def test_energy_density_magnitude(self):
        cfg = CasimirConfig(d=1e-6, N=400.0, cutoff=make_cutoff("bump"), quad_tol=1e-9)
        u = energy_density(cfg)
        assert abs(u - (-4.3318e-10)) <= 0.02 * 4.3318e-10

    def test_closed_form_reference(self):
        assert closed_form_energy_density(1e-6) == pytest.approx(-4.3338e-10, rel=1e-3)
        assert closed_form_energy_density(1e-6) == pytest.approx(
            -math.pi**2 * HBAR * C_LIGHT / 720.0 * 1e18, rel=1e-12)

    def test_d_cubed_scaling(self):
        cfg = CasimirConfig(d=1e-6, N=200.0, cutoff=make_cutoff("bump"), quad_tol=1e-9)
        u1 = energy_density(cfg)
        u2 = energy_density(replace(cfg, d=2e-6))
        assert u2 == pytest.approx(u1 / 8.0, rel=1e-2)

    def test_force_matches_closed_form(self):
        cfg = CasimirConfig(d=1e-6, N=800.0, cutoff=make_cutoff("bump"), quad_tol=1e-9)
        f = casimir_force(1e-6, cfg)
        closed = closed_form_force(1e-6)
        assert abs(f - closed) <= 0.01 * abs(closed)
        assert f < 0.0  # attraction

    def test_force_scaling_and_sign(self):
        cfg = CasimirConfig(d=1e-6, N=400.0, cutoff=make_cutoff("bump"), quad_tol=1e-9)
        f1 = casimir_force(1e-6, cfg)
        f2 = casimir_force(2e-6, replace(cfg, d=2e-6))
        assert abs(f1 / f2) == pytest.approx(16.0, rel=0.02)
        assert f1 < 0.0 and f2 < 0.0

    def test_force_is_exact_derivative_of_energy(self):
        cfg = CasimirConfig(d=1e-6, N=400.0, cutoff=make_cutoff("bump"), quad_tol=1e-9)
        for d in (1e-7, 1e-6, 3e-6):
            assert casimir_force(d, cfg) == 3.0 * energy_density(replace(cfg, d=d)) / d

    def test_closed_form_force_value(self):
        assert closed_form_force(1e-6) == pytest.approx(-1.30e-3, rel=5e-3)
