import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from summa.asymptotics import (
    CoefficientOracle,
    borel_sum,
    flat_derivative_probe,
    flat_function,
    gyro_partial,
    optimal_truncation,
)
from summa.errors import BorelSummabilityError, NonFiniteResultError

GRID = [1e-1, 1e-2, 1e-3, 1e-4]


class TestVerifyAsymptotic:
    def test_flat_addition_is_invisible(self):
        # adding exp(-x^-beta) to f changes the function but not the order-N remainder's
        # verdict: exp(-x^-beta) / x^N falls by at least 10x from the first to the last
        # point of each grid towards 0
        battery = [(2, GRID, 0.5), (3, GRID, 0.5), (4, [0.3, 0.1, 0.03, 0.01], 0.7)]
        for N, grid, beta in battery:
            ratios = [flat_function(beta, x) / x**N for x in grid]
            assert ratios[-1] <= ratios[0] / 10


class TestFlatFunction:
    def test_value(self):
        assert flat_function(0.5, 0.1) == pytest.approx(math.exp(-math.sqrt(10.0)), rel=1e-12)
        assert flat_function(0.5, 0.1) == pytest.approx(0.042329, abs=1e-6)

    def test_limit_at_zero(self):
        assert flat_function(0.5, 0.0) == 0.0
        assert flat_function(0.3, 1e-12) < 1e-200

    def test_derivative_probe_collapses(self):
        probes = flat_derivative_probe(0.5, 1, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
        assert abs(probes[-1]) <= 1e-6
        assert all(abs(b) <= abs(a) for a, b in zip(probes, probes[1:]))

    def test_higher_order_probe(self):
        probes = flat_derivative_probe(0.5, 3, [1e-2, 1e-3, 1e-4])
        assert abs(probes[-1]) <= 1e-6

    def test_beta_domain(self):
        with pytest.raises(ValueError):
            flat_function(1.5, 0.1)


class TestOptimalTruncation:
    def test_fine_structure(self):
        assert optimal_truncation(Fraction(1, 137)) == 137

    def test_half(self):
        assert optimal_truncation(0.5) == 2

    def test_brute_force_agreement(self):
        for alpha in (Fraction(1, 7), Fraction(3, 10), Fraction(1, 23), 0.4):
            af = Fraction(alpha)
            terms = {n: math.factorial(n) * af**n for n in range(1, int(1 / af) + 6)}
            brute = max((n for n in terms if terms[n] == min(terms.values())))
            assert optimal_truncation(alpha) == brute

    def test_tiny_alpha_closed_form(self):
        # no scan could reach N* = 10^7; the term ratio (n + 1) alpha decides it
        alpha = Fraction(1, 10**7)
        n_star = optimal_truncation(alpha)
        assert n_star == 10**7
        assert n_star * alpha <= 1 < (n_star + 1) * alpha

    def test_within_one_of_inverse(self):
        for alpha in (Fraction(1, 137), Fraction(1, 9), 0.25):
            n_star = optimal_truncation(alpha)
            assert abs(n_star - round(1 / alpha)) <= 1

    def test_unimodal_with_narrow_plateau(self):
        for alpha in (Fraction(1, 6), Fraction(2, 11), Fraction(1, 2)):
            terms = [math.factorial(n) * Fraction(alpha) ** n for n in range(1, 20)]
            m = min(terms)
            plateau = [i for i, t in enumerate(terms) if t == m]
            assert len(plateau) <= 2
            assert plateau == list(range(plateau[0], plateau[-1] + 1))
            # decreasing then increasing around the plateau
            for i in range(plateau[0]):
                assert terms[i] > terms[i + 1]
            for i in range(plateau[-1], len(terms) - 1):
                assert terms[i] < terms[i + 1]

    def test_exact_tie_at_integer_inverse(self):
        # N! a^N == (N+1)! a^(N+1) exactly at N+1 = 1/alpha
        alpha = Fraction(1, 6)
        assert math.factorial(5) * alpha**5 == math.factorial(6) * alpha**6

    def test_discrete_log_convexity_at_optimum(self):
        for alpha in (Fraction(1, 137), Fraction(1, 9)):
            n = optimal_truncation(alpha)
            t = lambda m: math.factorial(m) * Fraction(alpha) ** m
            assert t(n - 1) * t(n + 1) > t(n) ** 2

    def test_domain(self):
        with pytest.raises(ValueError):
            optimal_truncation(Fraction(3, 2))


class TestBorel:
    def test_geometric_closed_form(self):
        ones = CoefficientOracle(a=lambda n: 1.0, label="ones", exp_rate=1.0)
        assert borel_sum(ones, 0.5, 1e-9) == pytest.approx(2.0, abs=1e-8)

    def test_euler_series_against_independent_oracle(self):
        # oracle: composite Simpson for int_0^60 e^-t/(1 + x t) dt
        x = 0.1
        t = np.linspace(0.0, 60.0, 60001)
        y = np.exp(-t) / (1.0 + x * t)
        h = t[1] - t[0]
        simpson = h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())
        euler = CoefficientOracle(a=lambda n: (-1.0) ** n * math.factorial(n),
                                  label="euler", exp_rate=0.0,
                                  borel_transform=lambda z: 1.0 / (1.0 + z))
        assert abs(borel_sum(euler, x, 1e-9) - simpson) <= 1e-6

    @pytest.mark.parametrize("x", [1e-3, 3e-4, 1e-4, 1e-6, 1e-9])
    def test_euler_series_at_small_x_against_e1(self, x):
        # e^(1/x) E_1(1/x) / x ~ 1 - x + 2 x^2, from an e^(-z/x) layer ~x wide
        import mpmath as mp

        euler = CoefficientOracle(a=lambda n: (-1.0) ** n * math.factorial(n),
                                  label="euler", exp_rate=0.0,
                                  borel_transform=lambda z: 1.0 / (1.0 + z))
        with mp.workdps(30):
            ref = float(mp.exp(1 / mp.mpf(x)) * mp.e1(1 / mp.mpf(x)) / x)
        assert abs(borel_sum(euler, x, 1e-9) - ref) <= 1e-9

    @pytest.mark.parametrize("r,x", [(1.0, 0.95), (0.5, 1.8)])
    def test_geometric_series_near_its_pole(self, r, x):
        # the range end ln(10 / (tol x decay)) / decay keeps the partial sums of e^(rz) in range
        geometric = CoefficientOracle(a=lambda n: r**n, label="geometric", exp_rate=r)
        assert abs(borel_sum(geometric, x, 1e-9) - 1.0 / (1.0 - r * x)) <= 1e-6

    def test_exact_coefficients_below_float_range(self):
        # (1/2)^n as a float underflows within the range's terms and is refused; as a
        # rational it is taken exactly
        for r, x in [(Fraction(1, 2), 1.99), (Fraction(-1, 2), 1.99)]:
            geometric = CoefficientOracle(a=lambda n, r=r: r**n, exp_rate=abs(float(r)))
            assert abs(borel_sum(geometric, x, 1e-9) - 1 / (1 - float(r) * x)) <= 1e-9
        geometric = CoefficientOracle(a=lambda n: 0.5**n, exp_rate=0.5)
        with pytest.raises(NonFiniteResultError):
            borel_sum(geometric, 1.99, 1e-9)

    def test_a_tol_past_the_whole_integral(self):
        # ln(10 / (tol x decay)) < 0: the range still covers one width of the e^(-z/x) layer
        ones = CoefficientOracle(a=lambda n: 1.0, label="ones", exp_rate=1.0)
        assert abs(borel_sum(ones, 0.5, 50.0) - 2.0) <= 50.0

    def test_past_the_term_budget_before_any_sum(self):
        def never(n):
            raise AssertionError("summed a term")

        with pytest.raises(BorelSummabilityError, match="budget"):
            borel_sum(CoefficientOracle(a=never, exp_rate=0.5), 1.999, 1e-9)

    def test_zero_series(self):
        zero = CoefficientOracle(a=lambda n: 0.0, label="zero")
        assert borel_sum(zero, 0.4, 1e-9) == 0.0

    @pytest.mark.parametrize("r", [0.3, 0.5, -0.4])
    def test_regularity_on_convergent_geometric(self, r):
        # partial-sum route (no closed form supplied)
        geo = CoefficientOracle(a=lambda n, r=r: r**n, label=f"geo:{r}", exp_rate=abs(r))
        tol = 1e-8
        x = 0.5
        direct = 1.0 / (1.0 - r * x)
        assert abs(borel_sum(geo, x, tol) - direct) <= 10.0 * tol

    def test_non_summable_reported(self):
        ones = CoefficientOracle(a=lambda n: 1.0, label="ones", exp_rate=1.0)
        with pytest.raises(BorelSummabilityError):
            borel_sum(ones, 1.5, 1e-9)

    def test_domain(self):
        zero = CoefficientOracle(a=lambda n: 0.0)
        with pytest.raises(ValueError):
            borel_sum(zero, -1.0, 1e-9)
        with pytest.raises(ValueError):
            borel_sum(zero, 0.5, 0.0)


class TestGyro:
    def test_order_one(self):
        assert gyro_partial(1.0 / 137.036, 1) == pytest.approx(1.16141e-3, abs=1e-8)

    def test_order_two(self):
        assert gyro_partial(1.0 / 137.036, 2) == pytest.approx(1.15964e-3, abs=1e-8)

    def test_zero_coupling(self):
        assert gyro_partial(0.0, 1) == 0.0
        assert gyro_partial(0.0, 2) == 0.0

    @given(st.integers(min_value=3, max_value=10))
    @settings(max_examples=8)
    def test_higher_orders_rejected(self, order):
        with pytest.raises(ValueError):
            gyro_partial(0.007, order)
