import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from summa.cutoffs import PolyCutoff, make_cutoff, parse_cutoff, sharp_indicator
from summa.errors import CutoffSmoothnessError

from _mellin import mellin


_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
    5: ((-3, -0.5), (-2, 2.0), (-1, -2.5), (1, 2.5), (2, -2.0), (3, 0.5)),
}


def central_derivative(f_mp, k, x, h="1e-6", dps=45):
    """Order-k central difference of an mpmath-valued function.

    Float64 stencils cannot verify 5th derivatives to 1e-6 relative near the
    bump's steep edge (truncation vs roundoff squeeze), so the independent
    oracle works in extended precision with a fixed tiny step.
    """
    import mpmath as mp

    with mp.workdps(dps):
        hh = mp.mpf(h)
        acc = mp.mpf(0)
        for o, w in _STENCILS[k]:
            acc += w * f_mp(mp.mpf(x) + o * hh)
        return float(acc / hh**k)


class TestBump:
    def setup_method(self):
        self.eta = make_cutoff("bump")

    def test_normalization_and_support(self):
        assert self.eta.eval(0.0) == 1.0
        assert self.eta.eval(1.0) == 0.0
        assert self.eta.eval(2.5) == 0.0
        assert abs(self.eta.eval(0.5) - math.exp(1.0 - 4.0 / 3.0)) < 1e-15

    def test_smoothness_declared_infinite(self):
        assert self.eta.smoothness_order == math.inf
        assert self.eta.smoothness_label == "infinite"

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_derivatives_match_finite_differences(self, k):
        for x in np.linspace(0.06, 0.94, 23):
            fd = central_derivative(self.eta.eval_mp, k, float(x))
            an = self.eta.deriv(k, float(x))
            scale = max(abs(an), abs(fd), 1e-9)
            assert abs(an - fd) / scale < 1e-6

    @pytest.mark.parametrize("k", range(7))
    def test_derivatives_flatten_at_right_edge(self, k):
        assert abs(self.eta.deriv(k, 0.999)) < 1e-180
        assert self.eta.deriv(k, 1.0) == 0.0

    def test_second_derivative_at_zero(self):
        # eta even around 0: eta'(0) = 0, eta''(0) = -2 exactly
        assert self.eta.deriv(1, 0.0) == 0.0
        assert abs(self.eta.deriv(2, 0.0) + 2.0) < 1e-14

    @pytest.mark.parametrize("W", [120, 160, 220])
    def test_mpmath_exp_fixed_is_within_16_units(self, W):
        # the reference the in-repo exp of eval_fixed (_fixed.exp_pass) was measured against
        import random

        import mpmath as mp
        from mpmath.libmp.libelefun import exp_fixed, ln2_fixed

        rng = random.Random(W)
        ln2 = ln2_fixed(W)
        with mp.workprec(W + 40):
            for _ in range(300):
                x = -rng.randrange(1 << (W + 7))  # exp(x 2^-W) down to e^-128 ~ 2^-185
                want = mp.exp(mp.ldexp(x, -W)) * mp.ldexp(1, W)
                assert abs(exp_fixed(x, W, ln2) - want) <= 16, x

    @pytest.mark.parametrize("top", [1.0, 7.0, 12.345, 970 / 3])
    def test_fixed_point_values_within_8_units(self, top):
        import mpmath as mp

        W = 150
        got = list(self.eta.eval_fixed(top, W))
        assert len(got) == math.ceil(top)
        with mp.workprec(W + 40):
            for m, v in enumerate(got, 1):
                want = self.eta.eval_mp(mp.mpf(m) / mp.mpf(top)) * mp.ldexp(1, W)
                assert abs(v - want) <= 8, (m, v - want)


class TestPoly:
    def test_eval(self):
        p2 = make_cutoff("poly", 2)
        assert p2.eval(0.5) == 0.25
        assert p2.eval(0.0) == 1.0
        assert p2.eval(1.0) == 0.0

    def test_order_zero_rejected(self):
        with pytest.raises(ValueError, match="indicator"):
            make_cutoff("poly", 0)

    def test_smoothness_order(self):
        assert make_cutoff("poly", 4).smoothness_order == 3

    def test_deriv_rejected_beyond_smoothness(self):
        with pytest.raises(CutoffSmoothnessError):
            make_cutoff("poly", 2).deriv(2, 0.5)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_derivatives_match_finite_differences(self, k):
        eta = make_cutoff("poly", 7)
        for x in np.linspace(0.06, 0.94, 13):
            fd = central_derivative(eta.eval_mp, k, float(x))
            an = eta.deriv(k, float(x))
            scale = max(abs(an), abs(fd), 1e-9)
            assert abs(an - fd) / scale < 1e-6

    def test_mellin_exact_matches_quadrature(self):
        for p in (1, 2, 5):
            eta = make_cutoff("poly", p)
            for s in (0, 1, 3):
                exact = float(eta.mellin_exact(s))
                assert abs(mellin(eta, s, 1e-12) - exact) < 1e-11
                assert eta.mellin_exact(s) == (
                    __import__("fractions").Fraction(
                        math.factorial(s) * math.factorial(p),
                        math.factorial(s + p + 1))
                )


class TestParsingAndIndicator:
    def test_inline_order(self):
        assert make_cutoff("poly:3").label == "poly:3"

    def test_conflicting_order_rejected(self):
        with pytest.raises(ValueError):
            make_cutoff("poly:3", 4)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_cutoff("gaussian")

    def test_bump_takes_no_order(self):
        with pytest.raises(ValueError):
            make_cutoff("bump", 2)

    def test_indicator_only_explicit(self):
        chi = sharp_indicator()
        assert chi.smoothness_order == -1
        assert chi.eval(0.7) == 1.0
        assert chi.eval(1.0) == 1.0
        assert chi.eval(1.0001) == 0.0
        assert parse_cutoff("indicator").kind == "indicator"
        with pytest.raises(CutoffSmoothnessError):
            chi.require_smoothness(0)

    def test_indicator_is_poly_zero(self):
        chi = sharp_indicator()
        assert isinstance(chi, PolyCutoff) and chi.p == 0 and chi.label == "indicator"
        assert chi.eval_mp(1) == 1 and chi.eval_mp(1.0001) == 0
        assert [chi.mellin_exact(s) for s in range(4)] == [Fraction(1, s + 1) for s in range(4)]

    @given(st.floats(min_value=0.0, max_value=1.5, allow_nan=False))
    def test_scalar_eval_matches_array_eval(self, x):
        xs = np.array([0.25, x, 1.0])
        for cut in (make_cutoff("bump"), make_cutoff("poly", 3), sharp_indicator()):
            a = cut.eval(x)
            assert type(a) is float
            assert a == cut.eval(xs)[1]
