import math
import random
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from summa import euler_maclaurin, smoothed
from summa.casimir import _UT_LIMIT
from summa.cli import MAX_EXTRACT_S
from summa.cutoffs import BumpCutoff, bump_em, bump_taylor0, make_cutoff, sharp_indicator
from summa.errors import CutoffSmoothnessError, NonFiniteResultError
from summa.exact import bernoulli, faulhaber
from summa.smoothed import (
    _bump_drifts,
    _bump_moment,
    _bump_totals,
    _drift_exact_poly,
    centered_bump,
    constant_extraction,
    delta_pairing,
    grandi_smoothed,
    grandi_with_deviation,
    offset_bump,
    scaling_counterexample,
    sine_pairing,
    smoothed_sum,
)
from summa.summation import ramanujan_monomial

from _mellin import mellin


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

    def test_sums_have_no_term_cap(self):
        # past the old cap of 10^10 terms a bump sum is its expansion at 0, the indicator's
        # a Faulhaber sum: O(1) work at any N
        bump = make_cutoff("bump")
        assert smoothed_sum(1, bump, 1e10 + 0.5) == pytest.approx(
            0.20182631883840296 * (1e10 + 0.5) ** 2, rel=1e-15)  # C_1 N^2 - 1/12 + ...
        assert grandi_smoothed(bump, 1e300) == 0.5
        # the indicator's S_1(10^300) is ~5e599: past float64, a typed error
        with pytest.raises(NonFiniteResultError, match="past float64 range"):
            scaling_counterexample(sharp_indicator(), 1e300)
        # poly:1 at N = 10^300: sum_{n<N} (1 - n/N) = (N - 1)/2, exact
        assert smoothed_sum(0, make_cutoff("poly:1"), 1e300) == float((Fraction(1e300) - 1) / 2)


def poly_terms(p, N, step=1):
    """[(n, (1 - n/N)^p)] for the multiples n of ``step`` below N: the O(N) Fraction loop."""
    NF = Fraction(N)
    return [(n, (1 - n / NF) ** p) for n in range(step, math.ceil(N), step)]


class TestExactPolyLane:
    """smoothed_sum, the Grandi sum and the scaling sides of poly:p: exact, rounded once."""

    @pytest.mark.parametrize("N", [2, 3.5, 17, 100.25, 1000])
    def test_equals_the_fraction_brute_force_rounded_once(self, N):
        for p in range(1, 9):
            cut = make_cutoff("poly", p)
            terms = poly_terms(p, N)
            for s in range(5):
                want = sum(e * n**s for n, e in terms)
                assert smoothed_sum(s, cut, N) == float(want), (p, s)
            G = sum(e if n % 2 else -e for n, e in terms)
            assert grandi_with_deviation(cut, N) == (float(G), float(abs(G - Fraction(1, 2)))), p
            lhs = sum(e * n for n, e in poly_terms(p, N, step=2))  # sum 2m eta(2m/N)
            rhs = 2 * sum(e * n for n, e in terms)
            assert scaling_counterexample(cut, N) == (
                float(lhs), float(rhs), abs(lhs - rhs) > Fraction(1e-12) * max(1, rhs)), p

    def test_past_float64_is_a_typed_error(self):
        cut = make_cutoff("poly:3")
        with pytest.raises(NonFiniteResultError, match="past float64 range"):
            smoothed_sum(200, cut, 1000.0)
        with pytest.raises(NonFiniteResultError, match="past float64 range"):
            scaling_counterexample(cut, 1e200)
        with pytest.raises(NonFiniteResultError, match="past float64 range"):
            smoothed_sum(200, make_cutoff("bump"), 1000.0)  # decided before any sum


class TestExactIndicatorLane:
    """The sharp indicator is 1 on [0, 1], endpoint included: its sum is S_s(floor(N))."""

    @pytest.mark.parametrize("N", [1, 1.5, 2, 7, 7.5, 100.25, 1000])
    def test_equals_the_brute_force_rounded_once(self, N):
        cut = sharp_indicator()
        for s in range(6):
            assert smoothed_sum(s, cut, N) == float(sum(n**s for n in range(1, math.floor(N) + 1)))
        if N >= 2:
            lhs = sum(n for n in range(2, math.floor(N) + 1, 2))  # sum 2m eta(2m/N)
            rhs = 2 * sum(range(1, math.floor(N) + 1))
            assert scaling_counterexample(cut, N) == (float(lhs), float(rhs), lhs != rhs)

    def test_runs_no_float_kernel(self, monkeypatch):
        from summa import _kernels

        def no_float_sum(*args):
            raise AssertionError("an indicator sum reached the bump's eta pass")

        monkeypatch.setattr(_kernels, "smoothed_sum_value", no_float_sum)
        assert smoothed_sum(3, sharp_indicator(), 1e7) == float(faulhaber(3, 10**7))
        assert scaling_counterexample(sharp_indicator(), 1e7 + 1.5)[1] == (10**7 + 1) * (10**7 + 2)


J = 30  # cutoffs._EM_ORDER, checked in TestBumpExpansion
# the most terms a kernel sums for the bump (docs/work_caps.md): at s = 89, just below its
# certain overflow at N ~ 3,385.66; from s = 89 on that overflow comes before N_0(s)
KERNEL_MAX_TERMS = 3386
_FIRST_EXPANSION_SCALE: dict = {}


def expands(s, N):
    """True where the bump's S_s(N) is its expansion at 0, if it does not overflow."""
    return bump_em(s, N, smoothed._bump_sum_limit) is not None


def first_expansion_scale(s):
    """The least float N at which the bump's S_s(N) takes its expansion at 0, by bisection."""
    if s not in _FIRST_EXPANSION_SCALE:
        lo, hi = 1.0, 1e6
        while math.nextafter(lo, hi) < hi:
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if expands(s, mid) else (mid, hi)
        _FIRST_EXPANSION_SCALE[s] = hi
    return _FIRST_EXPANSION_SCALE[s]


_QUAD_MOMENTS: dict = {}


def bump_sum_reference(s, N, dps=50):
    """C_s N^(s+1) + sum_m c_m zeta(-s-2m) N^-2m from mpmath alone: C_s by mp.quad, c_m as
    the generalized Laguerre value L_m^(-1)(1), zeta(-k) = -B_(k+1)/(k+1) by mp.bernoulli
    (zeta(0) = -1/2)."""
    with mp.workdps(dps):
        if (s, dps) not in _QUAD_MOMENTS:
            _QUAD_MOMENTS[s, dps] = mp.quad(lambda t: t**s * mp.exp(1 - 1 / (1 - t * t)),
                                            [0, 0.5, 0.75, 0.9, 1])
        x = mp.mpf(N)
        value = _QUAD_MOMENTS[s, dps] * x ** (s + 1)
        for m in range((J - s + 1) // 2):
            k = s + 2 * m
            zeta = mp.mpf(-0.5) if k == 0 else -mp.bernoulli(k + 1) / (k + 1)
            value += mp.laguerre(m, -1, 1) * zeta / x ** (2 * m)
        return value


def assert_certified(value, ref):
    """|value - ref| <= half an ulp + 2^-61 |ref|: the expansion's bound plus one rounding."""
    assert abs(mp.mpf(value) - ref) <= math.ulp(value) / 2 + abs(ref) * mp.mpf(2) ** -61, (
        value, ref)


class TestBumpExpansion:
    """The bump's smoothed sums from their Euler-Maclaurin expansion at 0, past N_0(s)."""

    def test_the_shipped_sups_are_their_regeneration_rounded_up(self):
        from _bump_bounds import geometric_points, sup_bound

        from summa.cutoffs import _BUMP_LOG2_SUPS, _EM_ORDER, _bump_numerator

        assert _EM_ORDER == J and len(_BUMP_LOG2_SUPS) == J + 1
        for k, shipped in enumerate(_BUMP_LOG2_SUPS):
            lo, hi = sup_bound(_bump_numerator(k), k, geometric_points(k), 24)
            assert hi <= 2**shipped and lo > 2 ** (shipped - 1), k

    def test_taylor_coefficients_are_the_laguerre_values(self):
        with mp.workdps(50):
            for m in range(J // 2 + 1):
                c = bump_taylor0(m)
                assert abs(mp.mpf(c.numerator) / c.denominator - mp.laguerre(m, -1, 1)) <= (
                    mp.mpf(10) ** -45), m

    def test_the_u_t_terms_are_the_s3_sum_terms_integrated(self):
        # one table per kind: u_t's term m is the s = 3 sum's times -1/(2m+3), exactly
        from summa.cutoffs import _bump_em_table

        D_sum, sum_terms, _ = _bump_em_table(3, False)
        D_ut, ut_terms, _ = _bump_em_table(3, True)
        assert len(ut_terms) == len(sum_terms) == 14
        for m, (t_sum, t_ut) in enumerate(zip(sum_terms, ut_terms)):
            assert Fraction(t_ut, D_ut) == -Fraction(t_sum, D_sum) / (2 * m + 3)
            assert Fraction(t_ut, D_ut) == (bernoulli(2 * m + 4) * bump_taylor0(m)
                                            / ((2 * m + 4) * (2 * m + 3)))
        assert Fraction(ut_terms[0], D_ut) == Fraction(-1, 360)

    @pytest.mark.parametrize("s,integrated,limit,x", [
        *[(s, False, smoothed._bump_sum_limit, None) for s in (0, 1, 3, 10)],
        (3, True, lambda s, x: _UT_LIMIT, 641.8010240145408),  # u_t's L_0
        (0, False, lambda s, x: smoothed._GRANDI_LIMIT, 788.0108460053535 / 2),  # Grandi's N/2
    ])
    def test_each_switch_point_is_the_exact_comparison(self, s, integrated, limit, x):
        # at each switch point and the float below it, bump_em's choice is
        # bound x^(s+1-J) <= limit on the rationals
        from summa.cutoffs import _bump_em_table

        x = x or first_expansion_scale(s)
        bound = Fraction(*_bump_em_table(s, integrated)[2])
        for y, holds in ((x, True), (math.nextafter(x, 0), False)):
            assert (bound * Fraction(y) ** (s + 1 - J) <= limit(s, y)) == holds
            assert (bump_em(s, y, limit, integrated) is not None) == holds

    def test_thresholds(self):
        # N_0 at s = 0, 1, 3, 10, and where the Grandi sum becomes exactly 1/2
        assert [math.floor(first_expansion_scale(s)) for s in (0, 1, 3, 10)] == [370, 387, 416, 507]
        bump = make_cutoff("bump")
        assert grandi_with_deviation(bump, 788.02) == (0.5, 0.0)
        assert grandi_with_deviation(bump, 788.0) != (0.5, 0.0)

    @given(s=st.integers(0, 12), u=st.floats(0, 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_printed_values_meet_an_independent_reference(self, s, u):
        # N log-uniform in [N_0(s), 10^12]
        N0 = first_expansion_scale(s)
        N = min(max(N0 * (1e12 / N0) ** u, N0), 1e12)
        value = smoothed_sum(s, make_cutoff("bump"), N)
        assert_certified(value, bump_sum_reference(s, N))

    @pytest.mark.parametrize("s,N", [(0, None), (1, 19999.5), (5, 1234.25)])
    def test_the_expansion_meets_a_direct_sum(self, s, N):
        N = first_expansion_scale(s) if N is None else N
        with mp.workdps(30):
            x = mp.mpf(N)
            direct = mp.fsum(n**s * mp.exp(1 - 1 / (1 - (n / x) ** 2))
                             for n in range(1, math.ceil(N)))
        assert_certified(smoothed_sum(s, make_cutoff("bump"), N), direct)

    def test_grandi_deviation_is_below_its_bound(self):
        # the Grandi sum is printed as 0.5 from N ~ 788: its true deviation, summed directly
        with mp.workdps(30):
            for N in (789, 1000.5):
                x = mp.mpf(N)
                G = mp.fsum((-1) ** (n - 1) * mp.exp(1 - 1 / (1 - (n / x) ** 2))
                            for n in range(1, math.ceil(N)))
                assert abs(G - mp.mpf(0.5)) <= mp.mpf(2) ** -56
                assert grandi_with_deviation(make_cutoff("bump"), N) == (0.5, 0.0)

    def test_below_the_threshold_the_kernel_runs_unchanged(self):
        from summa import _kernels

        bump = make_cutoff("bump")
        for s in (0, 1, 3, 10, 60):
            N = math.nextafter(first_expansion_scale(s), 0)
            assert smoothed_sum(s, bump, N) == _kernels.smoothed_sum_value(s, bump, N)
        assert grandi_with_deviation(bump, 788.0) == _kernels.alternating_smoothed_value(bump, 788.0)

    def test_certain_overflow_is_decided_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("an overflowing sum did O(s) or O(N) work")

        from summa import _kernels

        monkeypatch.setattr(_kernels, "smoothed_sum_value", no_work)
        monkeypatch.setattr(smoothed, "_bump_moment", no_work)
        for s, N in [(10**6, 1e6), (10**30, 1e6), (10**400, 4.0), (94, 3787.0), (1, 1e300),
                     (200, 1000.0), (93, 3786.96), (93, 3000.0)]:
            with pytest.raises(NonFiniteResultError, match="past float64 range"):
                smoothed_sum(s, make_cutoff("bump"), N)

    def test_the_kernels_sum_at_most_the_recorded_terms(self, monkeypatch):
        # the decisions only: C_s = 1 makes each expansion cheap
        monkeypatch.setattr(smoothed, "_bump_moment", lambda s, dps: Fraction(1))

        def kernel_terms(s, k):
            # a kernel sums ceil(N) = k terms just above N = k - 1, if neither path takes N
            N = math.nextafter(k - 1, math.inf)
            try:
                smoothed._bump_sum_bits(s, N)
            except NonFiniteResultError:
                return False
            return not expands(s, N)

        worst = (0, None)
        for s in range(0, 400):  # past s ~ 150 the overflow comes within ~230 terms
            lo, hi = 1, 10**7  # both decisions are monotone in N
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if kernel_terms(s, mid) else (lo, mid)
            worst = max(worst, (lo, s))
        assert worst == (KERNEL_MAX_TERMS, 89)
        # and through the public functions, the kernels never see more
        from summa import _kernels

        seen = []
        real_sum, real_alt = _kernels.smoothed_sum_value, _kernels.alternating_smoothed_value
        monkeypatch.setattr(_kernels, "smoothed_sum_value",
                            lambda s, c, N: seen.append(math.ceil(N)) or real_sum(s, c, N))
        monkeypatch.setattr(_kernels, "alternating_smoothed_value",
                            lambda c, N: seen.append(math.ceil(N)) or real_alt(c, N))
        rng = random.Random(25)
        bump = make_cutoff("bump")
        for _ in range(300):
            s, N = rng.choice([rng.randrange(4), rng.randrange(200)]), 10 ** rng.uniform(0.3, 12)
            for call in (lambda: smoothed_sum(s, bump, N), lambda: grandi_smoothed(bump, N),
                         lambda: scaling_counterexample(bump, N)):
                try:
                    call()
                except NonFiniteResultError:
                    pass
        assert seen and max(seen) <= KERNEL_MAX_TERMS


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
        values = super().eval_fixed(top, W)
        self.calls += len(values)
        return values


def poly_drift_loop(s, cutoff, N):
    """Reference D(N) for poly:p: the O(N) Fraction loop over 1 <= n < N."""
    NF = Fraction(N)
    total = Fraction(0)
    for n in range(1, math.ceil(N) + 1):
        x = Fraction(n) / NF
        if x < 1:
            total += (1 - x) ** cutoff.p * Fraction(n) ** s
    return total - cutoff.mellin_exact(s) * NF ** (s + 1)


def mpf_of(x):
    """The mpf of a dyadic Fraction, exact: its numerator's bits, over a power of 2."""
    with mp.workprec(max(53, x.numerator.bit_length())):
        return mp.mpf(x.numerator) / x.denominator


def bump_drift_loop(s, cutoff, N, dps):
    """Reference D(N) for the bump: one mpmath loop over n = 1..ceil(N)."""
    with mp.workdps(dps):
        NM = mp.mpf(N)
        total = mp.mpf(0)
        for n in range(1, math.ceil(N) + 1):
            e = cutoff.eval_mp(mp.mpf(n) / NM)
            if e:
                total += e * mp.mpf(n) ** s
        return total - mpf_of(_bump_moment(s, dps)) * NM ** (s + 1)


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
        # the fixed-point sums are within 2^-(prec + 13) C N^(s+1) of the exact sums
        # (_drift_bits), and the roundings at dps (the total, C, N^(s+1), the product,
        # the difference) add a few units of 2^-prec on values of size C N^(s+1): the
        # tolerance's 6 units cover both, and its absolute 2^-(prec + 13) is slack
        eta = make_cutoff("bump")
        for s in (0, 3, 6):
            dps = 25 + math.ceil((s + 1) * math.log10(max(grid)))
            with mp.workdps(dps):
                prec = mp.mp.prec
            got = _bump_drifts(s, eta, grid, dps)
            c = mpf_of(_bump_moment(s, dps))
            for N, d in zip(grid, got):
                d = mpf_of(d)
                want = bump_drift_loop(s, eta, N, dps + 20)
                scale = abs(c) * mp.mpf(N) ** (s + 1) + abs(want)
                tol = mp.ldexp(1, -(prec + 13)) + 6 * scale * mp.ldexp(1, -prec)
                assert abs(d - want) <= tol, (s, N, d - want, tol)

    @pytest.mark.parametrize("grid", GRIDS)
    def test_drifts_are_the_exact_values_of_both_paths(self, grid):
        # the bump's integer roundings are those of mpmath's mpf arithmetic at
        # working_digits, value for value; poly's Fraction as is
        eta, cut = make_cutoff("bump"), make_cutoff("poly", 6)
        for s in (0, 3, 17):
            dps = smoothed.working_digits(s, max(grid))
            got = smoothed.drifts(s, eta, grid)
            assert all(isinstance(d, Fraction) for d in got)
            c = mpf_of(_bump_moment(s, dps))
            with mp.workdps(dps):
                W = smoothed._drift_bits(s, mp.mp.prec)
                want = [mp.ldexp(mp.mpf(t), -W) - c * mp.mpf(N) ** (s + 1)
                        for t, N in zip(_bump_totals(s, eta, grid, W), grid)]
            with mp.workdps(dps + 50):
                assert [mpf_of(d) for d in got] == want, s
        assert smoothed.drifts(3, cut, grid) == [_drift_exact_poly(3, cut, N) for N in grid]

    @pytest.mark.parametrize("grid", GRIDS)
    def test_shared_bump_pass_is_bit_identical_to_a_pass_per_point(self, grid):
        eta = make_cutoff("bump")
        for s in (0, 3, 6):
            W = 160 + 30 * s
            assert _bump_totals(s, eta, grid, W) == [_bump_totals(s, eta, [N], W)[0]
                                                     for N in grid], s

    def test_fixed_point_bits_keep_their_error_under_a_rounding_at_every_s(self):
        # a total's fixed-point error 2 N^(s+1) 2^-W is at most 2^-(prec + 15) C_s N^(s+1),
        # 2^-15 of one rounding at prec, for every s the CLI accepts; N^(s+1) cancels
        prec = 100
        for s in range(MAX_EXTRACT_S + 1):
            W = smoothed._drift_bits(s, prec)
            assert Fraction(2, 2**W) <= _bump_moment(s, 20) / 2 ** (prec + 15), s

    def test_dyadic_grid_evaluates_eta_once_per_n(self):
        eta = CountingBump()
        grid = [500.3 / 2**k for k in range(4, -1, -1)]
        constant_extraction(1, eta, grid)
        assert eta.calls == math.ceil(grid[-1])


class TestBumpMoment:
    @pytest.mark.parametrize("s,dps", [*((s, 30) for s in [*range(13), 53, 100, 260]), (53, 200)])
    def test_closed_form_is_the_quadrature(self, s, dps):
        with mp.workdps(dps + 10):  # split where x^s eta(x) peaks at high s
            want = mp.quad(lambda x: x**s * mp.exp(1 - 1 / (1 - x * x)), [0, 0.5, 0.75, 0.9, 1])
            assert abs(mpf_of(_bump_moment(s, dps)) - want) <= want * mp.mpf(10) ** -(dps + 8)

    def test_seeds_are_computed_once_per_precision(self):
        assert smoothed._bump_seeds(300) is smoothed._bump_seeds(300)

    def test_bump_extraction_and_em_tail_run_no_quadrature(self, monkeypatch):
        def no_quad(*args, **kwargs):
            raise AssertionError("mp.quad called")

        monkeypatch.setattr(mp, "quad", no_quad)
        monkeypatch.setattr(smoothed, "_BUMP_SEEDS", {})
        constant_extraction(7, make_cutoff("bump"), [100.0, 200.0, 400.0, 800.0])
        euler_maclaurin.em_tail(2, make_cutoff("bump"), 50)


class TestBumpOutputsPinned:
    """Every field of bump extractions and em_tail rows, by repr.

    The values come from the drift as first implemented (each eta value
    tested against every grid point, W = prec + (s+1) bitlen(ceil N_max) + 16
    and the moment by mp.quad at dps + 10): the drift's fixed-point width,
    its stride sums and the moment's closed form must leave every bit in
    place.
    """

    README_GRID = [100.0, 200.0, 400.0, 800.0, 1600.0]
    DYADIC_GRID = [1000.0, 2000.0, 4000.0, 8000.0, 16000.0]
    EXTRACT = {
        (0, 1600.0): "(-0.5, 0.6034501612189381, -290.557695377611, [100.0, 200.0, 400.0, 800.0, "
                     "1600.0], 0.0, [2.8837487811567137e-11, 1.1624057130463306e-15, "
                     "6.017446131155258e-22, 0.0])",
        (1, 1600.0): "(-0.08333333658854136, 0.20182631883840296, -2.1283038086899686, [100.0, "
                     "200.0, 400.0, 800.0, 1600.0], 9.765620458696339e-09, "
                     "[8.271072657973139e-07, 2.0507666225606107e-07, 4.8828047797720354e-08, "
                     "9.765620458696339e-09])",
        (3, 1600.0): "(0.008333334883432221, 0.052739478257604444, -4.030755917869555, [100.0, "
                     "200.0, 400.0, 800.0, 1600.0], 4.650292850680105e-09, "
                     "[3.109443356297465e-05, 1.0583450905975737e-07, 2.325144640798521e-08, "
                     "4.650292850680105e-09])",
        (5, 1600.0): "(-0.003968255595857557, 0.020623690816539753, -9.187043335376936, [100.0, "
                     "200.0, 400.0, 800.0, 1600.0], 4.882804254204224e-09, "
                     "[0.31689660120640056, 0.0002985911430868123, 1.803289974879356e-08, "
                     "4.882804254204224e-09])",
        (6, 1600.0): "(2.9704084069554067e-24, 0.013917363091747735, -15.375982202150922, [100.0, "
                     "200.0, 400.0, 800.0, 1600.0], 3.3623997502301795e-13, "
                     "[32.11427180001107, 0.05697119753504495, 2.567337674526709e-06, "
                     "3.3623997502301795e-13])",
        (0, 16000.0): "(-0.5, 0.6034501612189381, 0.0, [1000.0, 2000.0, 4000.0, 8000.0, "
                      "16000.0], 0.0, [0.0, 0.0, 0.0, 0.0])",
        (1, 16000.0): "(-0.08333333336588541, 0.20182631883840296, -2.1298561057503766, [1000.0, "
                      "2000.0, 4000.0, 8000.0, 16000.0], 9.765624954586937e-11, "
                      "[8.300779265903986e-09, 2.05078112602235e-09, 4.882812422797795e-10, "
                      "9.765624954586937e-11])",
        (3, 16000.0): "(0.008333333348834326, 0.052739478257604444, -2.1298559757549143, [1000.0, "
                      "2000.0, 4000.0, 8000.0, 16000.0], 4.6502975713639035e-11, "
                      "[3.952750892890195e-09, 9.765623698234755e-10, 2.3251487284614957e-10, "
                      "4.6502975713639035e-11])",
        (5, 16000.0): "(-0.00396825398453001, 0.020623690816539753, -2.1298558017146556, [1000.0, "
                      "2000.0, 4000.0, 8000.0, 16000.0], 4.8828124133023364e-11, "
                      "[4.150386837085138e-09, 1.025390388315429e-09, 2.441406102613978e-10, "
                      "4.8828124133023364e-11])",
        (6, 16000.0): "(0.0, 0.013917363091747735, -373.4053988374802, [1000.0, 2000.0, 4000.0, "
                      "8000.0, 16000.0], 0.0, [9.477337613885631e-17, 1.3558038844463308e-28, "
                      "0.0, 0.0])",
    }
    EM_TAIL = {
        (1, 100): "(0.08333416369580716, 0.08333333333333333, 8.303624738278936e-07)",
        (1, 1000): "(0.08333334166666469, 0.08333333333333333, 8.333331349207043e-09)",
        (2, 100): "(-3.013024593645373e-07, 0.0, -3.013024593645373e-07)",
        (2, 1000): "(0.0, 0.0, 0.0)",
        (3, 100): "(-0.008364429316995197, -0.008333333333333333, -3.109598366186311e-05)",
        (3, 1000): "(-0.008333337301585218, -0.008333333333333333, -3.9682518849218974e-09)",
    }

    @pytest.mark.parametrize("s,top", sorted(EXTRACT))
    def test_constant_extraction(self, s, top):
        grid = self.README_GRID if top == self.README_GRID[-1] else self.DYADIC_GRID
        fit = constant_extraction(s, make_cutoff("bump"), grid)
        assert repr(tuple(fit)) == self.EXTRACT[s, top]

    @pytest.mark.parametrize("s,N", sorted(EM_TAIL))
    def test_em_tail(self, s, N):
        assert repr(tuple(euler_maclaurin.em_tail(s, make_cutoff("bump"), N))) == self.EM_TAIL[s, N]


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
