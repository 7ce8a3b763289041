import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from summa import series as series_module
from summa import summation as summation_module
from summa.errors import AbelInnerSeriesError, NonFiniteResultError
from summa.series import alternating_genfun, get_series, monomial_genfun, parse_key
from summa.summation import (
    SummationOutcome,
    abel_sum,
    euler_sum,
    cesaro_sum,
    default_abel_schedule,
    inconsistency_ledger,
    partial_sum,
    ramanujan_monomial,
    zeta_via_eta,
)


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
            approx = series.term_float(n)
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
        real = series_module._genfun_numerator

        def counting(m):
            builds.append(m)
            return real(m)

        monkeypatch.setattr(series_module, "_genfun_numerator", counting)
        closed = get_series("monomial:3").abel_closed_form
        get_series("alt-zeta:-3")
        assert builds == []  # resolving a key does no exact work
        assert closed(Fraction(1, 2)) == 26  # sum n^3 / 2^n
        closed(Fraction(1, 3))
        assert builds == [3]
        zeta_via_eta(-3)  # the alternating closed form is Q_3 at -t
        assert builds == [3, 3]


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
        assert out.verdict == "finite"
        assert abs(out.value - 0.5) <= 1e-6

    def test_euler_alias(self):
        assert euler_sum is abel_sum

    def test_s0_divergent(self):
        assert abel_sum(get_series("S0")).verdict == "divergent"

    def test_s1_divergent(self):
        assert abel_sum(get_series("S1")).verdict == "divergent"

    def test_alternating_monomial(self):
        out = abel_sum(get_series("alt-zeta:-1"))
        assert out.verdict == "finite"
        assert abs(out.value - 0.25) <= 1e-6

    def test_partial_sum_route_agrees_with_closed_form(self):
        # strip the closed form so the chunked direct summation runs
        g = replace(get_series("grandi"), abel_closed_form=None)
        out = abel_sum(g, schedule=default_abel_schedule(3, 13))
        assert out.verdict == "finite"
        assert abs(out.value - 0.5) <= 1e-6

    @pytest.mark.parametrize("key", ["monomial:7", "monomial:60", "alt-zeta:0", "alt-zeta:-1",
                                     "alt-zeta:-33", "alt-zeta:-220"])
    def test_log2_bounds_hold_the_closed_form(self, key):
        series = get_series(key)
        for t in default_abel_schedule():
            value = abs(series.abel_closed_form(t))
            exact = math.log2(value.numerator) - math.log2(value.denominator)
            lo, hi = series.abel_log2_bounds(float(t))
            assert lo <= exact <= hi, t

    @pytest.mark.parametrize("key", ["monomial:500", "alt-zeta:-500"])
    def test_doomed_closed_form_fails_before_it_is_built(self, key):
        def unbuilt(t):
            raise AssertionError("closed form evaluated")

        series = replace(get_series(key), abel_closed_form=unbuilt)
        with pytest.raises(NonFiniteResultError, match=f"{key} at t = 7/8 is past float64"):
            abel_sum(series)

    @staticmethod
    def _outcome(run):
        try:
            out = run()
        except NonFiniteResultError as exc:
            return "error", str(exc)
        return out.verdict, out.value, out.error_estimate

    def test_float_range_check_keeps_every_outcome(self, monkeypatch):
        # s = 0..60 crosses abel's overflow onset on monomial:s (s = 42); the
        # alternating sums overflow from s = 219 on, at t = 7/8.  Each series is
        # built once, so both passes share its closed form's numerator.
        catalog = {}

        def built(key):
            return catalog.setdefault(key, get_series(key))

        def outcomes():
            runs = [lambda s=s: abel_sum(summation_module.get_series(f"monomial:{s}"))
                    for s in range(61)]
            runs += [lambda s=s: zeta_via_eta(-s) for s in [*range(61), 219]]
            return [self._outcome(run) for run in runs]

        monkeypatch.setattr(summation_module, "get_series", built)
        with_check = outcomes()
        assert ("error", "the closed form of monomial:42 at t = 1048575/1048576 is past "
                "float64 range") in with_check
        monkeypatch.setattr(summation_module, "get_series",
                            lambda key: replace(built(key), abel_log2_bounds=None))
        assert outcomes() == with_check

    def test_inner_series_error_is_not_a_verdict(self):
        with pytest.raises(AbelInnerSeriesError):
            abel_sum(get_series("geometric:2"))

    def test_schedule_validation(self):
        g = get_series("grandi")
        with pytest.raises(ValueError):
            abel_sum(g, schedule=[0.5, 0.4, 0.9])
        with pytest.raises(ValueError):
            abel_sum(g, schedule=[0.5, 1.1, 0.9])

    @pytest.mark.parametrize("r", ["1/3", "1/2", "2/3", "-1/2"])
    def test_regularity_on_geometric_family(self, r):
        rf = Fraction(r)
        truth = float(rf / (1 - rf))
        out = abel_sum(get_series(f"geometric:{r}"))
        assert out.verdict == "finite"
        assert abs(out.value - truth) <= 1e-6
        ces = cesaro_sum(get_series(f"geometric:{r}"), 10**4)
        assert ces.verdict == "finite"
        assert abs(ces.value - truth) <= 1e-3

    @given(st.fractions(min_value=Fraction(-4, 5), max_value=Fraction(4, 5)))
    @settings(max_examples=25, deadline=None)
    def test_regularity_random_ratio(self, rf):
        out = abel_sum(get_series(f"geometric:{rf}"))
        assert out.verdict == "finite"
        assert abs(out.value - float(rf / (1 - rf))) <= 1e-6


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
        out = zeta_via_eta(2)
        assert abs(out.value - math.pi**2 / 6.0) <= 1e-6

    def test_trivial_zero(self):
        assert abs(zeta_via_eta(-2).value) <= 1e-9


class TestOutcomeInvariant:
    def test_finite_requires_error_estimate(self):
        with pytest.raises(ValueError):
            SummationOutcome("test", "finite", 1.0, None)

    def test_unknown_verdict(self):
        with pytest.raises(ValueError):
            SummationOutcome("test", "maybe", None, None)


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
