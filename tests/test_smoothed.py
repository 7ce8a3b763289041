import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from summa import smoothed
from summa.cutoffs import BumpCutoff, make_cutoff, sharp_indicator
from summa.errors import CutoffSmoothnessError, NonFiniteResultError
from summa.exact import bernoulli, faulhaber
from summa.smoothed import (
    _bump_totals,
    _drift_exact_poly,
    _drifts_mp,
    _mellin_mp,
    centered_bump,
    constant_extraction,
    delta_pairing,
    grandi_smoothed,
    mellin,
    offset_bump,
    scaling_counterexample,
    sine_pairing,
    smoothed_sum,
)
from summa.summation import ramanujan_monomial


class TestSmoothedSum:
    def test_support_boundary(self):
        assert smoothed_sum(3, make_cutoff("bump"), 1.0) == 0.0

    def test_poly1_hand_value(self):
        # eta(1/4) + eta(2/4) + eta(3/4) + eta(1) = 3/4 + 1/2 + 1/4 + 0
        assert smoothed_sum(0, make_cutoff("poly", 1), 4.0) == pytest.approx(1.5, abs=1e-14)

    def test_bump_s0_asymptotic_shape(self):
        eta = make_cutoff("bump")
        c0 = mellin(eta, 0, 1e-12)
        val = smoothed_sum(0, eta, 100.0)
        assert abs(val - (c0 * 100.0 - 0.5)) <= 0.05

    def test_domain(self):
        with pytest.raises(ValueError):
            smoothed_sum(-1, make_cutoff("bump"), 10.0)
        with pytest.raises(ValueError):
            smoothed_sum(0, make_cutoff("bump"), 0.5)


class TestMellin:
    def test_poly_exact_values(self):
        p1 = make_cutoff("poly", 1)
        assert mellin(p1, 0, 1e-10) == pytest.approx(0.5, abs=1e-10)
        assert mellin(p1, 1, 1e-10) == pytest.approx(1.0 / 6.0, abs=1e-10)

    def test_bump_against_refined_oracle(self):
        eta = make_cutoff("bump")
        coarse = mellin(eta, 0, 1e-6)
        refined = mellin(eta, 0, 1e-13)  # 10x-refined independent run
        assert abs(coarse - refined) <= 1e-8

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            mellin(make_cutoff("bump"), 0, 0.0)


class TestConstantExtraction:
    GRID = [100.0, 200.0, 400.0, 800.0, 1600.0]

    def test_s0_bump(self):
        fit = constant_extraction(0, make_cutoff("bump"), self.GRID)
        assert abs(fit.constant + 0.5) <= 1e-2
        assert fit.rate_exponent <= -0.9

    def test_s1_bump(self):
        fit = constant_extraction(1, make_cutoff("bump"), self.GRID)
        assert abs(fit.constant + 1.0 / 12.0) <= 1e-2
        assert fit.rate_exponent <= -0.9

    def test_s5_bump(self):
        fit = constant_extraction(5, make_cutoff("bump"), [200.0, 400.0, 800.0, 1600.0, 3200.0])
        assert abs(fit.constant + 1.0 / 252.0) <= 1e-2
        assert fit.rate_exponent <= -0.9
        # B6 = 1/42 cross-check of the nominal limit
        assert -bernoulli(6) / 6 == Fraction(-1, 252)

    def test_growth_coefficient_is_the_moment(self):
        eta = make_cutoff("poly", 5)
        fit = constant_extraction(1, eta, self.GRID[:4])
        assert fit.growth_coefficient == pytest.approx(float(eta.mellin_exact(1)), abs=1e-12)

    def test_residuals_decrease_over_final_half(self):
        for cut in (make_cutoff("bump"), make_cutoff("poly", 4)):
            fit = constant_extraction(1, cut, self.GRID)
            tail = fit.residuals[len(fit.residuals) // 2:]
            assert all(b < a for a, b in zip(tail, tail[1:]))
            assert all(math.isfinite(r) for r in fit.residuals)

    def test_rough_cutoff_rejected(self):
        with pytest.raises(CutoffSmoothnessError):
            constant_extraction(2, make_cutoff("poly", 2), self.GRID)

    @pytest.mark.parametrize("huge_at", [100.0, 800.0, 1600.0])
    def test_drift_past_float_range_is_a_typed_error(self, monkeypatch, huge_at):
        # at N_max the constant overflows, at N_max / 2 the error estimate,
        # elsewhere a residual
        def drift(s, cutoff, N):
            return Fraction(10) ** 400 if N == huge_at else Fraction(-1, 2)

        monkeypatch.setattr(smoothed, "_drift_exact_poly", drift)
        with pytest.raises(NonFiniteResultError, match="past float64 range"):
            constant_extraction(0, make_cutoff("poly", 3), self.GRID)

    def test_grid_validation(self):
        eta = make_cutoff("bump")
        with pytest.raises(ValueError):
            constant_extraction(0, eta, [100.0, 200.0, 400.0])
        with pytest.raises(ValueError):
            constant_extraction(0, eta, [10.0, 20.0, 40.0, 80.0])
        with pytest.raises(ValueError):
            constant_extraction(0, eta, [100.0, 100.0, 200.0, 400.0])

    @pytest.mark.parametrize("bad", [-5.0, 0.0, math.nan, math.inf])
    def test_bad_grid_point_rejected_before_any_drift(self, bad):
        eta = CountingBump()
        grid = [bad, 200.0, 400.0, 800.0] if bad <= 0 else [100.0, 200.0, 400.0, bad]
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            constant_extraction(0, eta, grid)
        assert eta.calls == 0

    def test_positivity_non_contradiction(self):
        # every smoothed sum is positive, yet the extracted constant is
        # negative: the divergent moment term dominates
        for s in (0, 1):
            eta = make_cutoff("bump")
            for N in self.GRID:
                assert smoothed_sum(s, eta, N) > 0.0
            fit = constant_extraction(s, eta, self.GRID)
            assert fit.constant < 0.0

    def test_cutoff_independence_of_constant(self):
        for s in range(4):
            a = constant_extraction(s, make_cutoff("bump"), self.GRID)
            b = constant_extraction(s, make_cutoff("poly", s + 3), self.GRID)
            assert abs(a.constant - b.constant) <= 2e-2

    def test_agrees_with_zeta_regularized_value(self):
        for s in range(7):
            grid = [200.0, 400.0, 800.0, 1600.0] if s >= 5 else self.GRID
            fit = constant_extraction(s, make_cutoff("bump"), grid)
            target = float(ramanujan_monomial(s))
            assert abs(fit.constant - target) <= max(3.0 * fit.error_estimate, 1e-6)


class CountingBump(BumpCutoff):
    """The bump cutoff, counting the eta values its fixed-point pass yields."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def eval_fixed(self, top, W):
        for v in super().eval_fixed(top, W):
            self.calls += 1
            yield v


def poly_drift_loop(s, cutoff, N):
    """Reference D(N) for poly:p: the O(N) Fraction loop over 1 <= n < N."""
    NF = Fraction(N)
    total = Fraction(0)
    for n in range(1, math.ceil(N) + 1):
        x = Fraction(n) / NF
        if x < 1:
            total += (1 - x) ** cutoff.p * Fraction(n) ** s
    return total - cutoff.mellin_exact(s) * NF ** (s + 1)


def bump_drift_loop(s, cutoff, N, dps):
    """Reference D(N) for the bump: one mpmath loop over n = 1..ceil(N)."""
    with mp.workdps(dps):
        NM = mp.mpf(N)
        total = mp.mpf(0)
        for n in range(1, math.ceil(N) + 1):
            e = cutoff.eval_mp(mp.mpf(n) / NM)
            if e:
                total += e * mp.mpf(n) ** s
        return total - _mellin_mp(cutoff, s, dps) * NM ** (s + 1)


class TestDrift:
    @pytest.mark.parametrize("N", [0.25, 1.0, 2.0, 17.0, 40.0, 1.5, 12.345, 33.7])
    def test_poly_closed_form_equals_loop(self, N):
        # integer N must leave out n = N; 0 < N <= 1 has no terms at all
        for p in range(1, 11):
            cut = make_cutoff("poly", p)
            for s in range(7):
                assert _drift_exact_poly(s, cut, N) == poly_drift_loop(s, cut, N), (p, s)

    GRIDS = [
        [25.0, 50.0, 100.0, 200.0, 400.0],               # dyadic: one shared pass
        [100.0, 150.0, 240.0, 300.0, 450.0, 225.0],      # ratios 3 and 2, others alone
        [970 / 3, 400.0, 500.0, 700.0, 970.0, 485.0],    # 970/(970/3) rounds to 3.0 in floats
    ]

    @pytest.mark.parametrize("grid", GRIDS)
    def test_bump_drift_within_its_bound_of_a_finer_reference(self, grid):
        # the fixed-point sums are within 2^-(prec + 13) of the exact sums; the
        # roundings at dps (the total, C, N^(s+1), the product, the difference)
        # add a few units of 2^-prec on values of size C N^(s+1)
        eta = make_cutoff("bump")
        for s in (0, 3, 6):
            dps = 25 + math.ceil((s + 1) * math.log10(max(grid)))
            with mp.workdps(dps):
                prec = mp.mp.prec
            got = _drifts_mp(s, eta, grid, dps)
            c = _mellin_mp(eta, s, dps)
            for N, d in zip(grid, got):
                want = bump_drift_loop(s, eta, N, dps + 20)
                scale = abs(c) * mp.mpf(N) ** (s + 1) + abs(want)
                tol = mp.ldexp(1, -(prec + 13)) + 6 * scale * mp.ldexp(1, -prec)
                assert abs(d - want) <= tol, (s, N, d - want, tol)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_drifts_are_the_exact_values_of_both_paths(self, grid):
        # the bump's mpf at working_digits as the rational it is; poly's Fraction as is
        eta, cut = make_cutoff("bump"), make_cutoff("poly", 6)
        dps = smoothed.working_digits(3, max(grid))
        got = smoothed.drifts(3, eta, grid)
        assert all(isinstance(d, Fraction) for d in got)
        with mp.workdps(dps + 50):
            exact = [mp.mpf(d.numerator) / d.denominator for d in got]
            assert exact == _drifts_mp(3, eta, grid, dps)
        assert smoothed.drifts(3, cut, grid) == [_drift_exact_poly(3, cut, N) for N in grid]

    @pytest.mark.parametrize("grid", GRIDS)
    def test_shared_bump_pass_is_bit_identical_to_a_pass_per_point(self, grid):
        eta = make_cutoff("bump")
        for s in (0, 3, 6):
            W = 160 + 30 * s
            assert _bump_totals(s, eta, grid, W) == [_bump_totals(s, eta, [N], W)[0]
                                                     for N in grid], s

    def test_dyadic_grid_evaluates_eta_once_per_n(self):
        eta = CountingBump()
        grid = [500.3 / 2**k for k in range(4, -1, -1)]
        constant_extraction(1, eta, grid)
        assert eta.calls == math.ceil(grid[-1])


class TestSharpIndicatorPathology:
    def test_partial_sums_drift_without_bound(self):
        # with the sharp indicator the drift from N^{s+1}/(s+1) is unbounded
        # (leading surviving term N^s/2, present for s >= 1)
        for s in (1, 2, 3):
            drifts = [abs(float(faulhaber(s, N) - Fraction(N) ** (s + 1) / (s + 1)))
                      for N in (10, 100, 1000, 10000)]
            assert all(b > a for a, b in zip(drifts, drifts[1:]))
            assert drifts[-1] > 500.0 * drifts[0]


class TestGrandiSmoothed:
    def test_support_boundary(self):
        assert grandi_smoothed(make_cutoff("bump"), 1.0) == 0.0

    def test_bump_n100(self):
        assert abs(grandi_smoothed(make_cutoff("bump"), 100.0) - 0.5) <= 0.02

    def test_bump_n1e4(self):
        assert abs(grandi_smoothed(make_cutoff("bump"), 1e4) - 0.5) <= 2e-4

    def test_indicator_rejected(self):
        with pytest.raises(CutoffSmoothnessError):
            grandi_smoothed(sharp_indicator(), 100.0)


class TestScalingCounterexample:
    def test_poly1_hand_case(self):
        lhs, rhs, differ = scaling_counterexample(make_cutoff("poly", 1), 2.0)
        assert lhs == 0.0
        assert rhs == pytest.approx(1.0, abs=1e-14)
        assert differ

    def test_bump_n100(self):
        lhs, rhs, differ = scaling_counterexample(make_cutoff("bump"), 100.0)
        assert differ
        assert abs(lhs - rhs) > 1e-6  # genuinely different, not a tolerance artifact

    def test_domain(self):
        with pytest.raises(ValueError):
            scaling_counterexample(make_cutoff("bump"), 1.5)


class TestDeltaPairing:
    def test_constant_test_function(self):
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        assert delta_pairing(50, one, tol=1e-11) == pytest.approx(1.0, abs=1e-9)

    def test_centered_bump_converges_to_value_at_zero(self):
        phi = centered_bump()
        assert abs(delta_pairing(200, phi, tol=1e-11) - phi(0.0)) <= 1e-3

    def test_offset_bump_converges_to_zero(self):
        phi = offset_bump()
        assert abs(delta_pairing(200, phi, tol=1e-11)) <= 1e-3

    def test_error_decreases_monotonically(self):
        phi = centered_bump()
        errs = [abs(delta_pairing(j, phi, tol=1e-11) - 1.0) for j in (25, 50, 100, 200)]
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            delta_pairing(0, centered_bump())


class TestDirichletKernel:
    @pytest.mark.parametrize("j", [300, 3000, 6000])
    def test_small_x_against_mpmath(self, j):
        import mpmath as mp

        from summa.smoothed import _dirichlet_normalized

        mags = np.concatenate([np.logspace(-12, -4, 33), [3e-5, 7.7e-5, 1e-4]])
        xs = np.concatenate([mags, -mags])
        got = _dirichlet_normalized(j, xs)
        with mp.workdps(40):
            for x, g in zip(xs, got):
                xm = mp.mpf(float(x))
                ref = mp.sin((j + mp.mpf(1) / 2) * xm) / mp.sin(xm / 2) / (2 * mp.pi)
                assert abs(g - ref) <= 1e-14 * abs(ref), (j, x)

    def test_value_at_zero(self):
        from summa.smoothed import _dirichlet_normalized

        at_zero = _dirichlet_normalized(6000, np.array([0.0, -0.0, 5e-324]))
        assert np.all(at_zero == 12001.0 / (2.0 * math.pi))


class TestSinePairing:
    def test_decay_bound_from_partial_integration(self):
        # |int sin(jx) phi| <= (1/j) int |phi'|
        phi = offset_bump()
        from summa.quadrature import integrate

        total_abs_slope = integrate(lambda x: np.abs(phi.deriv(1, x)),
                                    -math.pi, math.pi, tol=1e-10).value
        for j in (10, 20, 40, 80):
            assert abs(sine_pairing(j, phi, tol=1e-12)) <= total_abs_slope / j

    def test_tends_to_zero(self):
        # the smooth bump's oscillatory pairing collapses below 1e-10 well
        # before j = 40 (faster than the 1/j bound requires)
        phi = offset_bump()
        assert abs(sine_pairing(5, phi, tol=1e-12)) > 1e-2
        assert abs(sine_pairing(40, phi, tol=1e-12)) < 1e-10


class TestTestBump:
    def test_derivative_matches_mp_differences(self):
        import mpmath as mp

        phi = centered_bump()

        def phi_mp(x):
            u = x / mp.mpf(math.pi / 2)
            if abs(u) >= 1:
                return mp.mpf(0)
            return mp.exp(1 - 1 / (1 - u * u))

        for x in (-1.0, -0.3, 0.2, 0.9):
            with mp.workdps(45):
                h = mp.mpf("1e-7")
                fd = float((phi_mp(x + h) - phi_mp(x - h)) / (2 * h))
            assert phi.deriv(1, x) == pytest.approx(fd, rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_is_the_bump_cutoff_at_abs_u(self, k):
        # dyadic center, halfwidth and u: x = c +- u h and (x - c) / h are exact
        c, h = 0.75, 0.5
        phi, bump = smoothed.TestBump(c, h), make_cutoff("bump")
        for u in np.arange(0.0, 1.25, 1.0 / 64):
            for sign in (1.0, -1.0):
                x = c + sign * u * h
                assert phi(x) == bump.eval(u)
                assert phi.deriv(k, x) == sign**k * bump.deriv(k, u) / h**k
