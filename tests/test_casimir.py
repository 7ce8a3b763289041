import math
import random
from fractions import Fraction

import pytest

from summa import casimir as casimir_module
from summa.casimir import (
    C_LIGHT,
    HBAR,
    CasimirConfig,
    capital_F_deriv,
    casimir_force,
    closed_form_energy_density,
    closed_form_force,
    derivative_identities,
    energy_density,
    u_t_dimensionless,
    u_t_ladder,
)
from summa.cutoffs import _EM_ORDER, bump_em, make_cutoff, sharp_indicator
from summa.errors import CutoffSmoothnessError

from _bump_bounds import geometric_points
from _mellin import mellin

LIMIT = -1.0 / 360.0


def expansion_ut(L):
    """The bump's u_t at N/lam = L from its expansion at 0, rounded once; None below its
    2^-62 bound."""
    terms = bump_em(3, L, lambda s, x: casimir_module._UT_LIMIT, integrated=True)
    return None if terms is None else terms[0] / terms[1]


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
        {"d": 0.0}, {"lam": -1.0}, {"N": 5.0}, {"quad_tol": 0.0}, {"N": 1e308, "lam": 1e-300},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CasimirConfig(**kwargs)
        with pytest.raises(ValueError):
            CasimirConfig()._replace(**kwargs)

    @pytest.mark.parametrize("d", [0.0, -1e-6])
    def test_force_at_a_bad_separation(self, d):
        with pytest.raises(ValueError, match="plate separation"):
            casimir_force(d, CasimirConfig())


def moment_F(n, cfg):
    """F(n) = integral_n^{N/lam} v^2 eta(lam v/N) dv by the plate energy's moment quadrature."""
    from summa._kernels import moment_quad

    (value,), _ = moment_quad(cfg.cutoff, 2, cfg.lam / cfg.N, [n], [cfg.support_end],
                              cfg.quad_tol / 10.0)
    return value


class TestCapitalF:
    def test_zero_beyond_support(self):
        # x^2 eta(c x) is exactly 0 past the support end 1/c
        from summa._kernels import moment_quad

        values, errors = moment_quad(make_cutoff("bump"), 2, 0.01, [100.0, 250.0],
                                     [250.0, 1e4], 1e-9)
        assert values == errors == [0.0, 0.0]

    def test_poly_against_exact_oracle(self):
        # scale-equivalent of the unit-scale hand case: int_0^M v^2 (1-v/M) dv = M^3/12
        cfg = CasimirConfig(N=10.0, lam=1.0, cutoff=make_cutoff("poly", 1), quad_tol=1e-11)
        assert moment_F(0.0, cfg) == pytest.approx(1000.0 / 12.0, abs=1e-8)
        for n in (0.0, 1.5, 4.0, 7.25, 9.9):
            cfg2 = CasimirConfig(N=40.0, lam=2.0, cutoff=make_cutoff("poly", 4), quad_tol=1e-11)
            assert moment_F(n, cfg2) == pytest.approx(
                float(exact_poly_F(Fraction(n), 4, 2, 40)), rel=1e-9, abs=1e-9)

    def test_bump_matches_moment_identity(self):
        # F(0) = (N/lam)^3 * integral x^2 eta(x)
        cfg = CasimirConfig(N=100.0, cutoff=make_cutoff("bump"), quad_tol=1e-10)
        target = 100.0**3 * mellin(cfg.cutoff, 2, 1e-13)
        assert moment_F(0.0, cfg) == pytest.approx(target, rel=1e-9)


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
        from summa import _kernels

        cfg = CasimirConfig(N=50.0, cutoff=make_cutoff("bump"), quad_tol=1e-9)
        h = max(0.5, 0.01 * cfg.support_end)
        batches = []
        inner = _kernels.moment_quad

        def recording(cutoff, m, c, lo, hi, tol):
            batches.append(list(zip(lo, hi)))
            return inner(cutoff, m, c, lo, hi, tol)

        monkeypatch.setattr(_kernels, "moment_quad", recording)
        derivative_identities(cfg, order)
        assert len(batches) == 1  # every gap of every probe in one batch
        seen = batches[0]
        assert seen
        assert all(b < cfg.support_end and 0.0 < b - a <= 6.0 * h for a, b in seen)
        assert len(set(seen)) == len(seen)

    @pytest.mark.parametrize("order", [2, 5])
    @pytest.mark.parametrize("cutoff", ["bump", "poly:7"])
    def test_each_batched_gap_within_its_tolerance_of_its_own_integral(self, monkeypatch,
                                                                       cutoff, order):
        from summa import _kernels
        from summa.quadrature import integrate

        cfg = CasimirConfig(N=50.0, cutoff=make_cutoff(cutoff), quad_tol=1e-9)
        batches = []
        inner = _kernels.moment_quad

        def recording(cutoff, m, c, lo, hi, tol):
            values, errors = inner(cutoff, m, c, lo, hi, tol)
            batches.append((m, c, lo, hi, tol, values))
            return values, errors

        monkeypatch.setattr(_kernels, "moment_quad", recording)
        derivative_identities(cfg, order)
        ((m, c, lo, hi, tol, values),) = batches
        assert tol == 1e-11 and len(values) == len(lo) > 5

        def integrand(x):
            return x**m * cfg.cutoff.eval(c * x)

        for a, b, value in zip(lo, hi, values):
            assert abs(value - integrate(integrand, a, b, tol).value) <= tol, (a, b)

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

        cfg = CasimirConfig(N=320.0, cutoff=make_cutoff("bump"), quad_tol=1e-9)
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
            assert r == u_t_dimensionless(cfg._replace(N=N))

    def test_poly_ladder_rows_are_exact_u_t_at_each_scale(self, monkeypatch):
        from summa import _kernels

        def no_sweep(*args):
            raise AssertionError("a polynomial cutoff reached the cell sweep")

        monkeypatch.setattr(_kernels, "ut_value", no_sweep)
        cfg = CasimirConfig(N=320.0, lam=0.75, cutoff=make_cutoff("poly", 6), quad_tol=1e-9)
        rows = u_t_ladder(cfg, 4)
        assert [N for N, _ in rows] == [40.0, 80.0, 160.0, 320.0]
        for N, r in rows:
            assert r == u_t_dimensionless(cfg._replace(N=N))
            half = float(exact_poly_ut(6, 1, (N / 2.0) / 0.75))
            assert r == (float(exact_poly_ut(6, 1, N / 0.75)), abs(r.value - half))

    def test_the_bump_has_no_cell_cap(self, monkeypatch):
        # past N/lam ~ 642 the bump's u_t is its expansion at 0, at any finite N/lam
        from summa import _kernels

        def no_sweep(*args):
            raise AssertionError("swept past the expansion's bound")

        monkeypatch.setattr(_kernels, "ut_value", no_sweep)
        for N, lam in [(20.0, 1e-9), (1e6 + 0.5, 1.0), (1e300, 1e-5)]:
            r = u_t_dimensionless(CasimirConfig(N=N, lam=lam, cutoff=make_cutoff("bump")))
            assert r.value == expansion_ut(N / lam)
            assert r.value == pytest.approx(LIMIT, rel=1e-12)
        # the exact u_t of poly:6 at 2 * 10^10 cells
        r = u_t_dimensionless(CasimirConfig(N=20.0, lam=1e-9, cutoff=make_cutoff("poly", 6)))
        assert r.value == pytest.approx(LIMIT, rel=1e-12)

    def test_ladder_stops_at_the_smallest_valid_scale(self):
        cfg = CasimirConfig(N=40.0, cutoff=make_cutoff("poly", 6), quad_tol=1e-9)
        assert [N for N, _ in u_t_ladder(cfg, 6)] == [10.0, 20.0, 40.0]
        with pytest.raises(ValueError):
            u_t_ladder(cfg, 0)


class TestExactPolyUt:
    """u_t of a polynomial eta, (1 - x)^p on [0, 1], is an exact rational rounded once."""

    @pytest.mark.parametrize("p", range(11))
    def test_equals_the_fraction_brute_force(self, p):
        # integer and non-integer supports; the brute force reads the float N/lam as it is
        cut = make_cutoff("poly", p) if p else sharp_indicator()
        for N, lam in [(10.0, 1.0), (37.0, 1.0), (300.0, 1.0), (123.456, 1.0), (299.5, 1.0),
                       (100.0, 0.7), (64.0, 0.5), (250.0, 3.0)]:
            cfg = CasimirConfig(N=N, lam=lam, cutoff=cut)
            got = u_t_dimensionless(cfg, enforce_smoothness=False).value
            assert got == float(exact_poly_ut(p, 1, cfg.support_end)), (N, lam)

    @pytest.mark.parametrize("S", [100, 200, 400])
    def test_indicator_is_minus_s_squared_over_12(self, S):
        cfg = CasimirConfig(N=float(S), cutoff=sharp_indicator())
        assert u_t_dimensionless(cfg, enforce_smoothness=False).value == -(S * S) / 12

    def test_the_sweep_agrees_within_its_own_estimate(self):
        # the cell sweep stays the bump's path; for poly it is an oracle where it is not floor-bound
        from summa import _kernels

        cut = make_cutoff("poly", 8)
        for tol in (1e-9, 1e-12):
            value, error = _kernels.ut_value(cut, 1.0, 200.0, tol)
            exact = u_t_dimensionless(CasimirConfig(N=200.0, cutoff=cut, quad_tol=tol)).value
            assert abs(value - exact) <= error

    def test_no_roundoff_floor_at_large_support(self):
        cfg = CasimirConfig(N=400000.0, lam=0.5, cutoff=make_cutoff("poly", 7))
        assert abs(u_t_dimensionless(cfg).value - LIMIT) <= 1e-9 * abs(LIMIT)

    @pytest.mark.parametrize("p", range(6, 11))
    def test_next_boundary_term_is_exact(self, p):
        # u_t = -1/360 + a_2 / (1260 L^2) + O(L^-4) with a_2 = eta''(0+)/2 = C(p, 2)
        L = 1000.0
        u = u_t_dimensionless(CasimirConfig(N=L, cutoff=make_cutoff("poly", p))).value
        assert (u - LIMIT) * 1260.0 * L**2 / math.comb(p, 2) == pytest.approx(1.0, abs=1e-3)


def _q_poly(K):
    """Q_K, integer coefficients: (x^2 eta)^(K) = Q_K(x) y^(2K) e^(1-y), y = 1/(1 - x^2).

    Leibniz on x^2 eta with eta^(k) = P_k y^(2k) eta gives
    Q_K = x^2 P_K + 2K x (1-x^2)^2 P_(K-1) + K(K-1) (1-x^2)^4 P_(K-2).
    """
    from summa.cutoffs import _bump_numerator, _poly_add, _poly_mul_one_minus_x2, _poly_scale_xpow

    def times_one_minus_x2(c, n):
        for _ in range(n):
            c = _poly_mul_one_minus_x2(c)
        return c

    q = _poly_scale_xpow(_bump_numerator(K), 1, 2)
    q = _poly_add(q, _poly_scale_xpow(times_one_minus_x2(_bump_numerator(K - 1), 2), 2 * K, 1))
    return _poly_add(q, times_one_minus_x2([K * (K - 1) * c for c in _bump_numerator(K - 2)], 4))


def _em_reference(L, dps=50):
    """The bump's expansion through B_J at L, from mpmath: B_2k by mp.bernoulli and
    e_(2k-4) = L_(k-2)^(-1)(1), the generalized Laguerre value of exp(-z/(1-z))."""
    import mpmath as mp

    with mp.workdps(dps):
        L = mp.mpf(L)
        return sum(mp.bernoulli(2 * k) / (2 * k * (2 * k - 1)) * mp.laguerre(k - 2, -1, 1)
                   * L ** (4 - 2 * k) for k in range(2, _EM_ORDER // 2 + 1))


class TestBumpExpansion:
    """The bump's u_t from its Euler-Maclaurin expansion at 0, where its remainder is <= 2^-62."""

    def test_the_shared_table_bounds_the_remainders_derivative(self):
        # |(x^2 eta)^(J-1)| sampled at 60 digits on the pieces' ends stays below A_(J-1)(2),
        # the remainder's bound from the sup table, and within two bits of it (2^257.67 and
        # 2^259.02)
        import mpmath as mp

        from summa.cutoffs import _bump_sup

        K = _EM_ORDER - 1
        q, E = _q_poly(K)[::-1], 24
        peak = 0
        with mp.workdps(60):
            for p in geometric_points(K, E)[:-1]:
                x = mp.mpf(p) / 2**E
                y = 1 / (1 - x * x)
                peak = max(peak, abs(mp.polyval(q, x) * y ** (2 * K) * mp.exp(1 - y)))
        A = _bump_sup(2, K)
        assert peak < A < 4 * peak

    def test_q_is_the_derivative(self):
        import mpmath as mp

        K = _EM_ORDER - 1
        q = _q_poly(K)
        with mp.workdps(60):
            for x in (mp.mpf("0.3"), mp.mpf("0.8")):
                y = 1 / (1 - x * x)
                closed = mp.polyval(q[::-1], x) * y ** (2 * K) * mp.exp(1 - y)
                fd = mp.diff(lambda t: t * t * mp.exp(1 - 1 / (1 - t * t)), x, K)
                assert abs(closed / fd - 1) < mp.mpf(10) ** -20

    def test_the_sweep_runs_exactly_below_the_bound(self, monkeypatch):
        from summa import _kernels

        lo, hi = 500.0, 1000.0  # the first float whose bound meets 2^-62
        while math.nextafter(lo, hi) < hi:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if expansion_ut(mid) is None else (lo, mid)
        assert 641 < hi < 642
        sweeps = []
        real = _kernels.ut_value

        def counted(cutoff, lam, N, tol):
            sweeps.append(N / lam)
            return real(cutoff, lam, N, tol)

        monkeypatch.setattr(_kernels, "ut_value", counted)
        cfg = CasimirConfig(N=hi, cutoff=make_cutoff("bump"))
        u_t_ladder(cfg, 1)  # N/lam = hi and hi/2
        energy_density(cfg._replace(N=lo))
        u_t_ladder(cfg._replace(N=4000.0, lam=2.0), 2)  # 2000, 1000 and 500
        assert sweeps == [hi / 2, lo, 500.0]
        # so a sweep is one batch of at most 642 cells: log-uniform N/lam in [10^-2, 10^6]
        rng = random.Random(7)
        sweeps.clear()
        for _ in range(40):
            N, L = 10 ** rng.uniform(1, 6), 10 ** rng.uniform(-2, 6)
            u_t_ladder(cfg._replace(N=N, lam=N / L), 2)
        assert len(sweeps) > 40 and max(math.ceil(s) for s in sweeps) <= 642

    @pytest.mark.parametrize("L", [500.0, 1000.0, 1353.0, 1354.0, 2000.0, 4000.0])
    def test_the_sweep_agrees_with_the_expansion(self, L):
        # the sweep stays measured: its gap to the expansion is 2.9e-9 at L = 1000 and peaks
        # at 1.4e-8 near 2000, inside the quadrature's own estimate at every L here
        from summa import _kernels

        value, error = _kernels.ut_value(make_cutoff("bump"), 1.0, L, 1e-9)
        gap = abs(value - float(_em_reference(L)))
        assert gap <= error and gap <= 2e-8

    def test_the_expansion_meets_an_independent_reference(self):
        # per-cell 12-node Gauss-Legendre at 40 digits on int_0^L v^2 eta(v/L) (floor(v) + 1/2 - v)
        import mpmath as mp
        from mpmath.calculus.quadrature import GaussLegendre

        L = 650
        with mp.workdps(40):
            nodes = GaussLegendre(mp.mp).calc_nodes(3, mp.mp.prec)
            ref = mp.mpf(0)
            for n in range(L):
                for x, w in nodes:
                    v = n + (x + 1) / 2
                    t = v / L
                    ref += w * v * v * mp.exp(1 - 1 / (1 - t * t)) * (n + mp.mpf(0.5) - v)
            ref /= 2
            assert abs(_em_reference(L) - ref) <= mp.mpf(2) ** -62
            u = u_t_dimensionless(CasimirConfig(N=float(L), cutoff=make_cutoff("bump"))).value
            assert abs(u - ref) <= mp.mpf(2) ** -62 + math.ulp(u) / 2

    def test_every_value_past_the_bound_is_certified(self):
        import random

        import mpmath as mp

        rng = random.Random(21)
        scales = [(641.81, 1.0), (1000.0, 1.0), (1353.0, 1.0), (1e300, 1.0), (1e6, 0.5),
                  (1e12, 1.0)]
        for lam in (rng.uniform(0.25, 4.0) for _ in range(40)):  # N/lam log-uniform in [L0, 1e300]
            scales.append((lam * 10 ** rng.uniform(math.log10(641.81), 300), lam))
        for N, lam in scales:
            u = u_t_dimensionless(CasimirConfig(N=N, lam=lam, cutoff=make_cutoff("bump"))).value
            assert abs(u - _em_reference(N / lam)) <= mp.mpf(2) ** -62 + math.ulp(u) / 2, (N, lam)


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
        u2 = energy_density(cfg._replace(d=2e-6))
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
        f2 = casimir_force(2e-6, cfg._replace(d=2e-6))
        assert abs(f1 / f2) == pytest.approx(16.0, rel=0.02)
        assert f1 < 0.0 and f2 < 0.0

    def test_force_is_exact_derivative_of_energy(self):
        cfg = CasimirConfig(d=1e-6, N=400.0, cutoff=make_cutoff("bump"), quad_tol=1e-9)
        for d in (1e-7, 1e-6, 3e-6):
            assert casimir_force(d, cfg) == 3.0 * energy_density(cfg._replace(d=d)) / d

    def test_closed_form_force_value(self):
        assert closed_form_force(1e-6) == pytest.approx(-1.30e-3, rel=5e-3)
