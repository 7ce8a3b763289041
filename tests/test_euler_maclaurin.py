import math
import time
from fractions import Fraction

import numpy as np
import pytest

from summa import smoothed
from summa.cutoffs import make_cutoff, parse_cutoff
from summa.errors import CutoffSmoothnessError, GrowthNotFoundError, NonFiniteResultError
from summa.euler_maclaurin import (
    em_divergence_demo,
    em_tail,
    monomial_cutoff_deriv,
    stirling_g,
    stirling_g_mp,
    stirling_gap,
    stirling_series,
    stirling_series_exact,
    stirling_term,
    sup_norm_check,
)
from summa.exact import bernoulli
from summa.quadrature import integrate
from summa.smoothed import _drift_exact_poly, mellin, smoothed_sum


class TestEmTail:
    def test_bump_monomial_series_term(self):
        # for f = x^s eta(x/N) only the k = s+1 term survives: B_{s+1}/(s+1)
        res = em_tail(1, make_cutoff("bump"), 100)
        assert res.series == pytest.approx(1.0 / 12.0, abs=1e-14)
        # residual consistent with O(N ||f||_{C^{s+2}})
        bound = 100.0 * sup_norm_check(1, make_cutoff("bump"), 100.0)
        assert abs(res.residual) <= bound
        assert abs(res.lhs - res.series) <= bound

    def test_bump_monomial_integral_term_is_the_moment(self):
        # the integral piece alone equals C_{eta,s} N^{s+1}; combined with
        # the sum it reproduces the smoothed-sum asymptotic identity
        eta = make_cutoff("bump")
        N, s = 100.0, 1
        quad = integrate(lambda x: monomial_cutoff_deriv(s, eta, N, 0, x), 0.0, N, tol=1e-11).value
        moment_term = mellin(eta, s, 1e-12) * N ** (s + 1)
        assert quad == pytest.approx(moment_term, abs=1e-7)
        res = em_tail(s, eta, int(N))
        # S_s(eta_N) = integral - f(0)/2 - lhs  ->  moment term minus constant
        reconstructed = quad - res.lhs
        assert reconstructed == pytest.approx(smoothed_sum(s, eta, N), abs=1e-7)

    @pytest.mark.parametrize("s", [1, 2, 3])
    @pytest.mark.parametrize("N", [7, 50, 333])
    def test_poly_lhs_is_minus_the_exact_drift(self, s, N):
        # integral - sum is minus the drift sum - C N^(s+1), exact in rationals for poly:p
        for p in (s + 3, s + 6):
            cut = make_cutoff("poly", p)
            assert em_tail(s, cut, N).lhs == -float(_drift_exact_poly(s, cut, N))

    def test_series_is_the_exact_bernoulli_term(self):
        for s in range(1, 41):
            assert em_tail(s, make_cutoff("bump"), 3).series == float(bernoulli(s + 1) / (s + 1))

    @pytest.mark.parametrize("spec", ["bump", "poly:9"])
    @pytest.mark.parametrize("s,N", [(2, 50), (5, 1), (1, 1000)])
    def test_lhs_is_minus_the_drift_rounded_once(self, spec, s, N):
        cut = parse_cutoff(spec)
        drift, = smoothed.drifts(s, cut, [N])
        res = em_tail(s, cut, N)
        assert res.lhs == -float(drift)
        assert res.residual == float(-(drift + bernoulli(s + 1) / (s + 1)))

    @pytest.mark.parametrize("spec", ["bump", "poly:6"])
    def test_lhs_at_large_N_is_the_zeta_value(self, spec):
        # -D(N) -> B_4/4 = -1/120; the float integral minus the float sum lost
        # every digit here (-12288.0 for the bump, -304.0 for poly:6)
        res = em_tail(3, parse_cutoff(spec), 10**5)
        assert abs(res.lhs + 1.0 / 120.0) < 1e-10
        assert abs(res.residual) < 1e-10

    @pytest.mark.parametrize("p,s", [(2, 1), (3, 2)])
    def test_regularity_rejected(self, p, s):
        # poly:p is C^(p-1); the identity needs C^(s+2)
        with pytest.raises(CutoffSmoothnessError):
            em_tail(s, make_cutoff("poly", p), 50)

    @pytest.mark.parametrize("s,N", [(0, 50), (1, 0), (1, 2.5)])
    def test_domain(self, s, N):
        with pytest.raises(ValueError):
            em_tail(s, make_cutoff("bump"), N)

    @pytest.mark.parametrize("s,N", [(261, 1), (999, 1)])
    def test_past_float64_range_is_typed(self, s, N):
        with pytest.raises(NonFiniteResultError, match="series"):
            em_tail(s, make_cutoff("bump"), N)

    def test_lhs_past_float64_range_is_typed(self, monkeypatch):
        # no poly:p drift within reach of a fast test leaves float64 range
        # (s <= 400, N < 60 checked in mpmath), so one is stubbed
        monkeypatch.setattr(smoothed, "drifts", lambda s, cutoff, points: [Fraction(10) ** 400])
        with pytest.raises(NonFiniteResultError, match="tail identity"):
            em_tail(2, make_cutoff("poly", 5), 10)


class TestMonomialCutoffDeriv:
    def test_leibniz_derivatives_match_mp_differences(self):
        import mpmath as mp

        eta = make_cutoff("bump")
        N, s = 40.0, 2

        def f_mp(x):
            u = x / mp.mpf(N)
            if u >= 1:
                return mp.mpf(0)
            return x**s * mp.exp(1 - 1 / (1 - u * u))

        for k in (1, 2, 3):
            for x in (2.0, 11.0, 23.0, 35.0):
                with mp.workdps(45):
                    h = mp.mpf("1e-6") * N
                    stencil = {
                        1: ((-1, -0.5), (1, 0.5)),
                        2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
                        3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
                    }[k]
                    fd = float(sum(w * f_mp(mp.mpf(x) + o * h) for o, w in stencil) / h**k)
                an = float(monomial_cutoff_deriv(s, eta, N, k, np.array([x]))[0])
                assert an == pytest.approx(fd, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("spec", ["bump", "poly:6", "poly:9"])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_vanishing_at_support_end(self, spec, s):
        # x^s eta(x/N) and its derivatives through order s + 1 are exactly 0 at x = N
        cut = parse_cutoff(spec)  # C^5 at least, as the identity needs at s = 3
        for N in (7.0, 50.0, 333.0):
            for j in range(s + 2):
                assert monomial_cutoff_deriv(s, cut, N, j, [N])[0] == 0.0


class TestSupNormCheck:
    @pytest.mark.parametrize("s", [0, 1, 2])  # s = 2 is sup |F^(5)| of the plate energy
    def test_doubling_ratio_near_four(self, s):
        a = sup_norm_check(s, make_cutoff("bump"), 100.0)
        b = sup_norm_check(s, make_cutoff("bump"), 200.0)
        assert 3.5 <= a / b <= 4.5

    def test_poly3_exact_value(self):
        # d^2/dx^2 eta(x/N) has sup 6/N^2 for eta = (1-x)^3
        assert sup_norm_check(0, make_cutoff("poly", 3), 100.0) == pytest.approx(6e-4, rel=1e-9)

    def test_rough_cutoff_rejected(self):
        from summa.errors import CutoffSmoothnessError

        with pytest.raises(CutoffSmoothnessError):
            sup_norm_check(3, make_cutoff("poly", 3), 100.0)


class TestStirling:
    def test_n1_closed_form(self):
        assert stirling_g(1) == pytest.approx(1.0 - 0.5 * math.log(2.0 * math.pi), abs=1e-12)

    def test_n10_two_terms(self):
        assert abs(stirling_g(10) - (1.0 / 120.0 - 1.0 / 360000.0)) <= 3e-6

    def test_large_n_costs_constant_time(self):
        start = time.perf_counter()
        g = stirling_g(10**12)
        assert time.perf_counter() - start < 1.0  # log n! summed term by term would take hours
        assert g == pytest.approx(1.0 / (12.0 * 10**12), rel=1e-12)

    @pytest.mark.parametrize("n", [3, 10, 50, 2000, 2001])
    def test_loggamma_matches_the_exact_factorial(self, n):
        import mpmath as mp

        with mp.workdps(50):
            ref = (mp.log(mp.mpf(math.factorial(n))) - (n + mp.mpf(1) / 2) * mp.log(n) + n
                   - mp.log(2 * mp.pi) / 2)
            assert abs(stirling_g_mp(n) - ref) <= mp.mpf("1e-45") * abs(ref)

    def test_leading_term_halves(self):
        # g ~ 1/(12 n): doubling n halves it within 5%
        assert abs(2.0 * stirling_g(20) / stirling_g(10) - 1.0) <= 0.05

    def test_series_example_terms_1(self):
        val, bound = stirling_series(10, 1)
        assert val == pytest.approx(1.0 / 120.0, abs=1e-15)
        assert bound == pytest.approx(float(Fraction(1, 30) / (3 * 4 * 10**3)), rel=1e-12)

    def test_series_example_terms_2(self):
        val, bound = stirling_series(10, 2)
        exact, _ = stirling_series_exact(10, 2)
        assert exact == Fraction(1, 120) - Fraction(1, 360000)
        assert val == pytest.approx(0.008330555555555556, abs=1e-15)
        assert bound == pytest.approx(float(Fraction(1, 42) / (5 * 6 * 10**5)), rel=1e-12)

    def test_remainder_bound_whole_range(self):
        for n in range(2, 51):
            for terms in range(1, 5):
                assert stirling_gap(n, terms) <= stirling_series(n, terms).bound

    def test_bound_dominates_at_small_n(self):
        assert stirling_gap(2, 4) <= stirling_series(2, 4).bound

    def test_asymptoticity_residual_vanishes_relative_to_last_term(self):
        ratios = []
        for n in (10, 20, 40, 80):
            last = abs(float(stirling_term(n, 2)))
            ratios.append(stirling_gap(n, 2) / last)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1e-2


class TestDivergenceDemo:
    def test_growth_index_at_n1(self):
        scan = em_divergence_demo(1, 10)
        assert scan.m_star == 5
        assert scan.terms[:3] == (Fraction(1, 12), Fraction(-1, 360), Fraction(1, 1260))
        # the witness: |B10|/(10*9) > |B8|/(8*7)
        assert abs(scan.terms[4]) > abs(scan.terms[3])

    def test_growth_index_scale_at_n10(self):
        assert 25 <= em_divergence_demo(10, 60).m_star <= 40

    def test_growth_found_for_all_small_n(self):
        # onset sits near pi*n: within 60 terms through n = 18, and n = 19, 20
        # need a slightly longer scan (m*(20) = 65)
        for n in range(1, 19):
            em_divergence_demo(n, 60)
        for n in (19, 20):
            em_divergence_demo(n, 70)

    def test_not_found_reported(self):
        with pytest.raises(GrowthNotFoundError):
            em_divergence_demo(10, 5)

    def test_domain(self):
        with pytest.raises(ValueError):
            em_divergence_demo(0, 10)
