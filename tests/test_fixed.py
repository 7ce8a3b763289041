"""The bump's fixed-point integers against mpmath: the eta pass's exp and its tables, the
constants gamma, e and ln 2, the moments C_s, and the mpf-style rounding."""

import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st
from mpmath.libmp.gammazeta import euler_fixed
from mpmath.libmp.libelefun import e_fixed, ln2_fixed

from summa import _fixed, cli, smoothed
from summa.cutoffs import BumpCutoff

# The largest W of a drift the CLI accepts: at most MAX_EXTRACT_S and MAX_BUMP_DIGITS together
W_MAX = smoothed._drift_bits(cli.MAX_EXTRACT_S, _fixed.digits_to_bits(cli.MAX_BUMP_DIGITS))
EVAL_FIXED_BOUND = 2  # units of 2^-W, as eval_fixed documents


def eta_scaled(m, top, W):
    """eta(m / top) 2^W at W + 80 bits."""
    with mp.workprec(W + 80):
        x = mp.mpf(m) / mp.mpf(top)
        return mp.exp(1 - 1 / (1 - x * x)) * mp.ldexp(1, W) if x < 1 else mp.mpf(0)


class TestEtaPass:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_every_integer_is_within_its_bound(self, data):
        # W over every precision a drift can take; top log-uniform in [2, 10^5], kept to
        # ~0.2 s of pass at each W
        W = data.draw(st.integers(53, W_MAX), label="W")
        log_top = data.draw(st.floats(math.log(2), math.log(min(1e5, 1e5 * (100 / W) ** 1.5))),
                            label="log top")
        top = math.exp(log_top)
        got = BumpCutoff().eval_fixed(top, W)
        assert len(got) == math.ceil(top)
        last = max((i for i, v in enumerate(got) if v), default=0)  # the pass stops after it
        rng = random.Random(data.draw(st.integers(0, 2**32), label="sample"))
        picks = set(range(len(got))) if len(got) <= 200 else {
            0, last, min(last + 1, len(got) - 1), len(got) - 1,
            *rng.sample(range(len(got)), 60)}
        for i in sorted(picks):
            assert abs(got[i] - eta_scaled(i + 1, top, W)) <= EVAL_FIXED_BOUND, (top, W, i)

    @pytest.mark.parametrize("W", [53, 64, 100, 150, 320, 700, 1000, W_MAX])
    def test_the_tables_are_within_a_unit(self, W):
        # each entry floors exp(-j 2^(-8l)) 2^P from P + 20 bits, whose 255 products lose
        # ~2^-10 units at P: within a unit below, and 2^-9 more
        P, _, tables, _ = _fixed.exp_tables(W)
        with mp.workprec(P + 40):
            for level, table in enumerate(tables, 1):
                assert len(table) == 256
                for j, v in enumerate(table):
                    want = mp.exp(-mp.ldexp(j, -8 * level)) * mp.ldexp(1, P)
                    assert -1 - 2**-9 < v - want <= 2**-9, (level, j, float(v - want))

    @pytest.mark.parametrize("W", [64, 200, 1000])
    def test_the_exp_is_within_a_unit_below_each_value(self, W):
        rng = random.Random(W)
        args = sorted(rng.randrange(1 << (W + 7)) for _ in range(300))  # down to e^-128
        got = _fixed.exp_pass(iter(args), W, len(args))
        with mp.workprec(W + 80):
            for B, v in zip(args, got):
                want = mp.exp(-mp.ldexp(B, -W)) * mp.ldexp(1, W)
                assert -1 - 2**-10 < v - want < 2**-10, B

    @pytest.mark.parametrize("top,W", [(1000.0, 100), (333.3, 700), (12.5, 53)])
    def test_the_values_fall_and_end_in_zeros(self, top, W):
        # eta falls in m, and the pass stops where its value falls below a unit
        got = BumpCutoff().eval_fixed(top, W)
        first_zero = got.index(0)
        assert all(a > b for a, b in zip(got[:first_zero], got[1:first_zero]))
        assert not any(got[first_zero:])
        assert eta_scaled(first_zero + 1, top, W) < EVAL_FIXED_BOUND

    def test_tables_are_built_once_per_precision(self):
        assert _fixed.exp_tables(333) is _fixed.exp_tables(333)


class TestConstants:
    @pytest.mark.parametrize("P", [64, 100, 257, 1000, 2345, 5000])
    def test_gamma_e_and_ln2_match_mpmath_to_the_last_unit(self, P):
        assert abs(_fixed.euler_gamma(P) - euler_fixed(P)) <= 1
        assert abs(_fixed.e(P) - e_fixed(P)) <= 1
        assert abs(_fixed.ln2(P) - ln2_fixed(P)) <= 1

    @pytest.mark.parametrize("dps", [1, 15, 30, 298, 1000])
    def test_digits_to_bits_is_mpmaths(self, dps):
        with mp.workdps(dps):
            assert _fixed.digits_to_bits(dps) == mp.mp.prec

    def test_rounding_is_mpmaths_to_nearest_even(self):
        rng = random.Random(5)
        for _ in range(2000):
            man = rng.randrange(-(1 << 200), 1 << 200) >> rng.randrange(200)
            exp, prec = rng.randrange(-300, 300), rng.randrange(2, 120)
            with mp.workprec(400):
                exact = mp.ldexp(man, exp)
            with mp.workprec(prec):
                want = +exact
            m, e = _fixed.round_bits(man, exp, prec)
            with mp.workprec(400):
                assert mp.ldexp(m, e) == want, (man, exp, prec)


class TestBumpMoment:
    @pytest.mark.parametrize("s", [0, 1, 2, 3, 10, 93, 260])
    def test_the_fixed_point_moment_is_the_50_digit_quadrature(self, s):
        got = smoothed._bump_moment(s, 40)  # rounded at the bits of 50 digits
        with mp.workdps(50):
            want = mp.quad(lambda x: x**s * mp.exp(1 - 1 / (1 - x * x)),
                           [0, 0.5, 0.75, 0.9, 0.97, 1])
            assert abs(mp.mpf(got.numerator) / got.denominator - want) <= want * mp.mpf(10) ** -48
