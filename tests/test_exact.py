import math
import random
import threading
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from summa import exact
from summa.exact import (
    PI_LOWER,
    PI_UPPER,
    bernoulli,
    bernoulli_integers,
    bernoulli_table,
    binomial,
    faulhaber,
    faulhaber_numerator,
    genfun_coefficients,
    to_floats,
)
from summa.errors import NonFiniteResultError


class TestBernoulli:
    def test_first_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == Fraction(1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(3) == 0
        assert bernoulli(4) == Fraction(-1, 30)

    def test_b12_against_generating_function(self):
        # independent route: 12! * [t^12] of t e^t/(e^t - 1)
        coeff = genfun_coefficients(12)[12] * math.factorial(12)
        assert bernoulli(12) == coeff == Fraction(-691, 2730)

    def test_odd_indices_vanish(self):
        for n in range(1, 15):
            assert bernoulli(2 * n + 1) == 0

    def test_recursion_identity_up_to_300(self):
        # sum_{j<m+1} C(m+1, j) B_j = m + 1: the tangent-number fill against the recursion
        for m in range(301):
            acc = sum(binomial(m + 1, j) * bernoulli(j) for j in range(m + 1))
            assert acc == m + 1

    def test_agrees_with_generating_function_to_60(self):
        coeffs = genfun_coefficients(60)
        for j in range(61):
            assert bernoulli(j) == coeffs[j] * math.factorial(j)

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_call_order_gives_equal_tables(self, monkeypatch, order):
        reference = list(exact.bernoulli_table(1000))
        monkeypatch.setattr(exact, "_bernoulli_cache", [Fraction(1)])
        ks = list(range(1001))
        if order == "descending":
            ks.reverse()
        elif order == "shuffled":
            random.Random(7).shuffle(ks)
        assert {k: bernoulli(k) for k in ks} == dict(enumerate(reference))
        assert exact._bernoulli_cache[:1001] == reference

    def test_table_grows_geometrically(self, monkeypatch):
        # rising bernoulli(2m), as the Stirling scans call it, costs O(log m) fills
        fills = []
        real_fill = exact._bernoulli_fill

        def counting_fill(start, stop):
            fills.append((start, stop))
            return real_fill(start, stop)

        monkeypatch.setattr(exact, "_bernoulli_cache", [Fraction(1)])
        monkeypatch.setattr(exact, "_bernoulli_fill", counting_fill)
        for m in range(1, 501):
            bernoulli(2 * m)
        assert len(fills) <= math.ceil(math.log2(1001)) + 1
        assert all(stop >= 2 * start for start, stop in fills)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bernoulli(-1)

    def test_table(self):
        table = bernoulli_table(6)
        assert table == (1, Fraction(1, 2), Fraction(1, 6), 0,
                         Fraction(-1, 30), 0, Fraction(1, 42))

    def test_growth_inequality_exact(self):
        # (-1)^(n+1) B_2n > 2 (2n)!/(2 pi)^(2n); over-approximate the right
        # side with the rational lower bound on pi (smaller denominator).
        assert PI_LOWER < PI_UPPER
        for n in range(1, 11):
            lhs = (-1) ** (n + 1) * bernoulli(2 * n)
            rhs_over = 2 * Fraction(math.factorial(2 * n)) / (2 * PI_LOWER) ** (2 * n)
            assert lhs > rhs_over

    def test_concurrent_fill_idempotent(self):
        results = []

        def worker():
            results.append(bernoulli(400))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1


class TestGenfun:
    def test_k0(self):
        assert genfun_coefficients(0) == [Fraction(1)]

    def test_k1(self):
        assert genfun_coefficients(1) == [Fraction(1), Fraction(1, 2)]

    def test_k3_index3_zero(self):
        assert genfun_coefficients(3)[3] == 0

    def test_agreement_to_30(self):
        coeffs = genfun_coefficients(30)
        for j in range(31):
            assert coeffs[j] == bernoulli(j) / math.factorial(j)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            genfun_coefficients(-1)


class TestFaulhaber:
    def test_examples(self):
        assert faulhaber(1, 10) == 55
        assert faulhaber(0, 7) == 7
        assert faulhaber(3, 5) == 225

    def test_matches_brute_force_full_sweep(self):
        for s in range(7):
            acc = Fraction(0)
            for N in range(1, 1001):
                acc += Fraction(N) ** s
                if N % 97 == 0 or N <= 25 or N == 1000:
                    assert faulhaber(s, N) == acc

    @given(st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=400))
    def test_matches_brute_force_random(self, s, N):
        assert faulhaber(s, N) == sum(Fraction(n) ** s for n in range(1, N + 1))

    def test_large_index_matches_the_fraction_sum(self):
        # the integer Horner sum, reduced once, against the Bernoulli closed form in Fractions
        for s, N in [(40, 12345), (97, 3), (250, 10**20)]:
            ref = sum(binomial(s + 1, j) * bernoulli(j) * Fraction(N) ** (s + 1 - j)
                      for j in range(s + 1)) / (s + 1)
            assert faulhaber(s, N) == ref

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            faulhaber(-1, 5)
        with pytest.raises(ValueError):
            faulhaber(2, 0)


class TestBernoulliIntegers:
    @pytest.mark.parametrize("K", [0, 1, 2, 10, 101])
    def test_numerators_over_the_least_common_denominator(self, K):
        D, beta = bernoulli_integers(K)
        table = bernoulli_table(K)
        assert D == math.lcm(*(b.denominator for b in table))
        assert [Fraction(n, D) for n in beta] == list(table)

    def test_a_larger_table_serves_a_smaller_sum(self):
        # faulhaber_numerator is (s + 1) D S_s(N) over whichever table's D it is given
        for K in (12, 60):
            D, beta = bernoulli_integers(K)
            for s in range(13):
                assert Fraction(faulhaber_numerator(s, 77, beta), D * (s + 1)) == faulhaber(s, 77)


class TestBinomial:
    def test_examples(self):
        assert binomial(5, 2) == 10
        assert binomial(40, 20) == 137846528820

    @given(st.integers(min_value=0, max_value=80))
    def test_identity_k0(self, n):
        assert binomial(n, 0) == 1

    def test_pascal_triangle_oracle(self):
        row = [1]
        for n in range(1, 41):
            row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
            for k, val in enumerate(row):
                assert binomial(n, k) == val

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(3, 4)
        with pytest.raises(ValueError):
            binomial(-1, 0)


class TestToFloats:
    def test_each_value_rounded_once(self):
        third = Fraction(1, 3)
        assert to_floats([third, -third, Fraction(10) ** -400], "x") == [1 / 3, -1 / 3, 0.0]

    def test_past_float64_range_is_typed(self):
        with pytest.raises(NonFiniteResultError, match="^the values are past float64 range$"):
            to_floats([Fraction(1), Fraction(10) ** 400], "the values are")
