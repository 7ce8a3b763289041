import math
from fractions import Fraction
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from summa import series as series_module
from summa.errors import AbelInnerSeriesError, PrecisionCapError
from summa.series import alternating_genfun, get_series, monomial_genfun, parse_key
from summa.summation import (
    SummationOutcome,
    _crvz_ball,
    abel_sum,
    cesaro_sum,
    inconsistency_ledger,
    partial_sum,
    ramanujan_monomial,
    zeta_via_eta,
)


def _tddt(coeffs: List[Fraction], m: int) -> List[Fraction]:
    """One step Q -> t [Q' (1 - t) + (m+1) Q]; index = power of t."""
    deriv = [i * coeffs[i] for i in range(1, len(coeffs))] or [Fraction(0)]
    out = [Fraction(0)] * (len(coeffs) + 2)
    for i, c in enumerate(deriv):
        out[i + 1] += c
        out[i + 2] -= c
    for i, c in enumerate(coeffs):
        out[i + 1] += (m + 1) * c
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


# Q_0 .. Q_60 with sum n^m t^n = Q_m(t) / (1-t)^(m+1), by repeated t d/dt from Q_0 = t:
# the Fraction reference for the Eulerian closed form
_GENFUN_NUMERATORS = [[Fraction(0), Fraction(1)]]
for _m in range(60):
    _GENFUN_NUMERATORS.append(_tddt(_GENFUN_NUMERATORS[-1], _m))


class TestSeriesCatalog:
    def test_unknown_key(self):
        with pytest.raises(KeyError):
            get_series("mystery")

    @pytest.mark.parametrize("key,parsed", [
        ("S0", ("monomial", 0)), (" S1 ", ("monomial", 1)), ("monomial:7", ("monomial", 7)),
        ("alt-zeta:-3", ("alt-zeta", -3)), ("geometric:0.5", ("geometric", Fraction(1, 2))),
        ("grandi", ("grandi", None)), ("zero", ("zero", None)),
        ("geometric:1e-400", ("geometric", Fraction(1, 10**400))),
    ])
    def test_parse_key(self, key, parsed):
        assert parse_key(key) == parsed

    @pytest.mark.parametrize("key", ["monomial:x", "monomial:-1", "alt-zeta:1.5", "alt-zeta",
                                     "geometric:abc", "geometric:1/0", "geometric:1e400",
                                     "grandi:1", "S2", ""])
    def test_malformed_key_is_a_key_error(self, key):
        with pytest.raises(KeyError):
            parse_key(key)
        with pytest.raises(KeyError):
            get_series(key)

    def test_s1_is_monomial_1(self):
        assert get_series("S1").label == get_series("monomial:1").label == "S1"

    @pytest.mark.parametrize("key", ["S0", "S1", "grandi", "zero", "monomial:3",
                                     "alt-zeta:2", "alt-zeta:-1", "geometric:1/2"])
    def test_exact_and_float_terms_agree(self, key):
        series = get_series(key)
        for n in list(range(1, 40)) + [100, 1000]:
            exact = float(series.term_exact(n))
            approx = float(series.term_array([n])[0])
            assert approx == pytest.approx(exact, rel=4e-16, abs=1e-300)

    def test_monomial_genfun_exact_value(self):
        # sum n^2 / 2^n = 6
        assert monomial_genfun(2)(Fraction(1, 2)) == 6

    def test_alternating_genfun_exact_value(self):
        # sum (-1)^(n-1) n t^n = t/(1+t)^2 at t = 1/3 -> 3/16
        assert alternating_genfun(1)(Fraction(1, 3)) == Fraction(3, 16)

    def test_alternating_genfun_matches_partial_sums(self):
        f = alternating_genfun(3)
        t = Fraction(2, 5)
        direct = sum(Fraction((-1) ** (n - 1)) * n**3 * t**n for n in range(1, 80))
        assert abs(float(f(t)) - float(direct)) < 1e-12

    def test_closed_form_is_built_once_on_first_use(self, monkeypatch):
        builds = []
        real = series_module._eulerian

        def counting(m):
            builds.append(m)
            return real(m)

        monkeypatch.setattr(series_module, "_eulerian", counting)
        closed = get_series("monomial:3").abel_closed_form
        get_series("alt-zeta:-3")
        assert builds == []  # resolving a key does no exact work
        assert closed(Fraction(1, 2)) == 26  # sum n^3 / 2^n
        closed(Fraction(1, 3))
        assert builds == [3]
        zeta_via_eta(-3)  # the alternating closed form is A_3 at -t
        assert builds == [3, 3]

    _CLOSED_FORM_TS = [Fraction(1, 3), Fraction(7, 8), Fraction(-1, 2), Fraction(1048575, 1048576)]

    @pytest.mark.parametrize("t", _CLOSED_FORM_TS)
    def test_integer_closed_form_equals_the_fraction_recurrence(self, t):
        for m in range(61):
            coeffs = _GENFUN_NUMERATORS[m]
            acc = Fraction(0)
            for c in reversed(coeffs):
                acc = acc * t + c
            reference = acc / (1 - t) ** (m + 1)
            assert monomial_genfun(m)(t) == reference, m
            assert alternating_genfun(m)(-t) == -reference, m

    @pytest.mark.parametrize("t", _CLOSED_FORM_TS)
    def test_integer_closed_form_matches_mpmath_polylog(self, t):
        # Li_{-m}(t) = sum n^m t^n; mpmath's own series loses ~35 digits at t = -1/2,
        # m = 60, so it works at 100 digits and the check asks for 60
        import mpmath

        with mpmath.workdps(100):
            for m in range(61):
                value = monomial_genfun(m)(t)
                ref = mpmath.polylog(-m, mpmath.mpf(t.numerator) / t.denominator)
                got = mpmath.mpf(value.numerator) / value.denominator
                assert abs(got - ref) <= mpmath.mpf(10) ** -60 * abs(ref), m


class TestPartialSum:
    def test_grandi(self):
        g = get_series("grandi")
        assert partial_sum(g, 5) == 1
        assert partial_sum(g, 4) == 0

    def test_s1(self):
        assert partial_sum(get_series("S1"), 4) == 10

    def test_exactness(self):
        assert partial_sum(get_series("alt-zeta:2"), 3) == Fraction(1) - Fraction(1, 4) + Fraction(1, 9)

    def test_domain(self):
        with pytest.raises(ValueError):
            partial_sum(get_series("S0"), 0)


class TestCesaro:
    def test_grandi(self):
        out = cesaro_sum(get_series("grandi"), 10**4)
        assert out.verdict == "finite"
        assert abs(out.value - 0.5) <= 1e-4

    def test_convergent_geometric(self):
        out = cesaro_sum(get_series("geometric:1/2"), 10**4)
        assert out.verdict == "finite"
        assert abs(out.value - 1.0) <= 1e-3

    def test_zero_series(self):
        out = cesaro_sum(get_series("zero"), 100)
        assert out.verdict == "finite" and out.value == 0.0

    def test_alternating_monomial_gets_no_value(self):
        # plain (C,1) does not sum 1-2+3-4+...
        assert cesaro_sum(get_series("alt-zeta:-1"), 10**4).verdict == "oscillating-no-limit"

    def test_divergent(self):
        assert cesaro_sum(get_series("S1"), 10**4).verdict == "divergent"

    def test_small_window_rejected(self):
        with pytest.raises(ValueError):
            cesaro_sum(get_series("grandi"), 1)


class TestAbel:
    def test_grandi(self):
        out = abel_sum(get_series("grandi"))
        assert (out.verdict, out.value, out.error_estimate) == ("finite", Fraction(1, 2), 0.0)

    def test_s0_divergent(self):
        for key in ("S0", "geometric:1"):  # the same terms, poles t/(1-t) and rt/(1-rt) at t = 1
            assert abel_sum(get_series(key)).verdict == "divergent"

    def test_s1_divergent(self):
        assert abel_sum(get_series("S1")).verdict == "divergent"

    def test_alternating_monomial(self):
        out = abel_sum(get_series("alt-zeta:-1"))
        assert out.verdict == "finite"
        assert out.value == Fraction(1, 4)

    def test_partial_sum_route_agrees_with_closed_form(self):
        # strip the closed form so the direct alternating sum runs
        g = get_series("grandi")._replace(abel_closed_form=None)
        out = abel_sum(g)
        assert out.verdict == "finite"
        assert out.value == 0.5

    def test_a_sum_on_a_rounding_midpoint_hits_the_precision_cap(self):
        # (1 + 2^-53) (1 - 1 + 1 - ...) = 1/2 + 2^-54, halfway between two floats: every ball
        # straddles it, so the rising precision stops at its cap instead of looping
        half_ulp = get_series("grandi")._replace(
            term_exact=lambda n: (-1) ** (n - 1) * (1 + Fraction(1, 2**53)),
            abel_closed_form=None)
        with pytest.raises(PrecisionCapError, match="4096"):
            abel_sum(half_ulp)

    @pytest.mark.parametrize("key,verdict,value", [("monomial:41", "divergent", None),
                                                   ("alt-zeta:-218", "finite", 0)])
    def test_last_exponent_whose_closed_form_stayed_a_float(self, key, verdict, value):
        out = abel_sum(get_series(key))
        assert (out.verdict, out.value) == (verdict, value)

    @pytest.mark.parametrize("key", ["monomial:42", "alt-zeta:-219"])
    def test_first_exponent_past_float_range_is_exact(self, key):
        out = abel_sum(get_series(key))
        if key.startswith("monomial"):
            assert out.verdict == "divergent"
        else:  # eta(-219) = (1 - 2^220) zeta(-219)
            assert out.value == (1 - 2**220) * ramanujan_monomial(219) != 0

    @pytest.mark.parametrize("key", ["monomial:500", "alt-zeta:-500", "alt-zeta:-499"])
    def test_closed_form_at_the_cap_is_read_once_at_t_1(self, key):
        series = get_series(key)
        seen = []

        def counting(t):
            seen.append(t)
            return series.abel_closed_form(t)

        out = abel_sum(series._replace(abel_closed_form=counting))
        assert seen == [Fraction(1)]
        if key.startswith("monomial"):
            assert out.verdict == "divergent"
        else:
            m = -parse_key(key)[1]
            assert out.value == (1 - 2 ** (m + 1)) * ramanujan_monomial(m)

    def test_inner_series_error_is_not_a_verdict(self):
        with pytest.raises(AbelInnerSeriesError, match=r"radius 1/\|r\| is below 1"):
            abel_sum(get_series("geometric:2"))
        with pytest.raises(AbelInnerSeriesError):
            abel_sum(get_series("geometric:-3/2"))

    @pytest.mark.parametrize("r", ["1/3", "1/2", "2/3", "-1/2", "-1"])
    def test_regularity_on_geometric_family(self, r):
        rf = Fraction(r)
        truth = rf / (1 - rf)
        out = abel_sum(get_series(f"geometric:{r}"))
        assert (out.verdict, out.value) == ("finite", truth)
        ces = cesaro_sum(get_series(f"geometric:{r}"), 10**4)
        assert ces.verdict == "finite"
        assert abs(ces.value - float(truth)) <= 1e-3

    @given(st.fractions(min_value=Fraction(-4, 5), max_value=Fraction(4, 5)))
    @settings(max_examples=25, deadline=None)
    def test_regularity_random_ratio(self, rf):
        out = abel_sum(get_series(f"geometric:{rf}"))
        assert out.verdict == "finite"
        assert out.value == rf / (1 - rf)

    @pytest.mark.parametrize("s", [1, 2, 3, 5, 10, 50, 500])
    def test_direct_sum_bound_covers_the_true_error(self, s):
        import mpmath as mp

        out = abel_sum(get_series(f"alt-zeta:{s}"))
        assert out.verdict == "finite" and out.diagnostics == {}
        with mp.workdps(40):
            assert abs(mp.mpf(out.value) - mp.altzeta(s)) <= out.error_estimate

    @given(st.floats(min_value=0, max_value=math.log(500)))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_alternating_sum_is_correctly_rounded(self, log_s):
        # s log-uniform on [1, 500]: the value is eta(s) rounded from 50 digits, and its
        # half ulp covers the true error
        import mpmath as mp

        s = round(math.exp(log_s))
        out = abel_sum(get_series(f"alt-zeta:{s}"))
        with mp.workdps(50):
            eta = mp.altzeta(s)
            assert out.value == float(eta)
            assert abs(mp.mpf(out.value) - eta) <= out.error_estimate

    def test_one_term_fewer_widens_the_ball(self):
        # the ball's radius follows the terms run: at n - 1 terms it widens, and the radius of
        # n terms would miss the sum at some W.  alt-zeta:500's measure sits at 0, where
        # T_n(1 - 2x) is 1, so its error is the bound's |a_1| / d_n: 5 units at W = 80
        import mpmath as mp

        term = get_series("alt-zeta:500").term_exact
        missed = []
        with mp.workdps(100):
            S = mp.altzeta(500)
            for W in (64, 80, 96, 112, 128, 144, 160):
                d, n = 1, 0
                while d < 2**W:
                    d, n = int(mp.chebyt(n + 1, 3)), n + 1
                T, E = _crvz_ball(term, W)
                T1, E1 = _crvz_ball(term, W, n - 1)
                assert _crvz_ball(term, W, n) == (T, E) and E1 > E
                assert abs(S * 2**W - T) <= E and abs(S * 2**W - T1) <= E1
                missed += [W] if abs(S * 2**W - T1) > E else []
        assert 80 in missed


class TestRamanujanMonomial:
    def test_values(self):
        assert ramanujan_monomial(0) == Fraction(-1, 2)
        assert ramanujan_monomial(1) == Fraction(-1, 12)
        assert ramanujan_monomial(2) == 0

    @given(st.integers(min_value=0, max_value=20))
    @settings(max_examples=21)
    def test_matches_bernoulli_formula(self, s):
        from summa.exact import bernoulli

        assert ramanujan_monomial(s) == -bernoulli(s + 1) / (s + 1)


class TestZetaViaEta:
    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            zeta_via_eta(1)

    def test_zeta_zero(self):
        out = zeta_via_eta(0)
        assert out.verdict == "finite"
        assert abs(out.value + 0.5) <= 1e-6

    def test_zeta_minus_one(self):
        out = zeta_via_eta(-1)
        assert abs(out.value + 1.0 / 12.0) <= 1e-6

    def test_zeta_two(self):
        import mpmath as mp

        out = zeta_via_eta(2)
        assert out.value == 1.6449340668482264  # pi^2/6 correctly rounded
        with mp.workdps(50):
            assert out.value == float(mp.zeta(2))
            assert abs(mp.mpf(out.value) - mp.zeta(2)) <= out.error_estimate

    def test_trivial_zero(self):
        assert zeta_via_eta(-2).value == 0

    @pytest.mark.parametrize("s", [0, -1, -2, -7, -218, -499])
    def test_exact_below_zero(self, s):
        out = zeta_via_eta(s)
        assert (out.value, out.error_estimate) == (ramanujan_monomial(-s), 0.0)
        assert out.diagnostics == {"s": s, "factor": str(1 / (1 - Fraction(2) ** (1 - s)))}


class TestOutcomeInvariant:
    def test_finite_requires_error_estimate(self):
        with pytest.raises(ValueError):
            SummationOutcome("test", "finite", 1.0, None)

    def test_unknown_verdict(self):
        with pytest.raises(ValueError):
            SummationOutcome("test", "maybe", None, None)

    def test_replace_checks_too(self):
        out = SummationOutcome("test", "divergent", None, None)
        with pytest.raises(ValueError):
            out._replace(verdict="finite")
        assert out._replace(verdict="finite", error_estimate=0.0).verdict == "finite"

    def test_diagnostics_default_is_not_shared(self):
        a = SummationOutcome("test", "divergent", None, None)
        b = SummationOutcome("test", "divergent", None, None)
        assert a.diagnostics == {} and a.diagnostics is not b.diagnostics


class TestLedger:
    def test_catalog_values_exact(self):
        rep = inconsistency_ledger()
        assert rep.by_identity("2+4+6+...").rule_a == Fraction(-1, 6)
        assert rep.by_identity("1+3+5+...").rule_a == Fraction(1, 3)
        assert rep.by_identity("1+0+3+0+...").rule_b == Fraction(1, 12)
        assert rep.by_identity("0+2+0+4+...").rule_b == Fraction(-1, 6)
        row = rep.by_identity("S1' = -(1/3)(1-2+3-4+...)")
        assert row.rule_a == Fraction(-1, 6)
        assert row.rule_b == Fraction(-1, 12)

    def test_exactly_one_clash(self):
        rep = inconsistency_ledger()
        assert len(rep.clashes) == 1
        clash = rep.clashes[0]
        assert clash.identity.startswith("S1'")
        # the flagged inconsistency: rule-A's value differs from the
        # regularized S1 that the same nominal series must equal
        assert clash.rule_a != ramanujan_monomial(1)
        assert clash.rule_b == ramanujan_monomial(1)
