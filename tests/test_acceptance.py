"""Acceptance gate: one test per criterion, at the stated tolerance and
time budget, printing one pass/fail line each (run with -s to watch live).
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import summa
from summa.asymptotics import CoefficientOracle, borel_sum, optimal_truncation
from summa.casimir import (
    CasimirConfig,
    casimir_force,
    closed_form_force,
    derivative_identities,
    energy_density,
    u_t_dimensionless,
)
from summa.cutoffs import make_cutoff, sharp_indicator
from summa.euler_maclaurin import em_divergence_demo, stirling_gap, stirling_series
from summa.exact import bernoulli, genfun_coefficients
from summa.smoothed import (
    centered_bump,
    constant_extraction,
    delta_pairing,
    grandi_smoothed,
    smoothed_sum,
)
from summa.summation import abel_sum, cesaro_sum, inconsistency_ledger
from summa.series import get_series


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    eta = make_cutoff("bump")
    smoothed_sum(0, eta, 16.0)
    grandi_smoothed(eta, 16.0)
    u_t_dimensionless(CasimirConfig(N=16.0, cutoff=eta, quad_tol=1e-6))
    yield


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def report(num, ok, desc, elapsed, budget):
    line = f"ACCEPTANCE {num:2d}: {'PASS' if ok else 'FAIL'} ({elapsed:6.2f}s / {budget:g}s) {desc}"
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget: {elapsed:.2f}s"


def test_criterion_01_bernoulli_exactness():
    with Timer() as t:
        printed = [Fraction(1), Fraction(1, 2), Fraction(1, 6), Fraction(0), Fraction(-1, 30)]
        ok = all(bernoulli(k) == printed[k] for k in range(5))
        coeffs = genfun_coefficients(12)
        ok &= all(bernoulli(k) == coeffs[k] * math.factorial(k) for k in range(13))
    report(1, ok, "Bernoulli numbers exact, recursion == generating function, k <= 12",
           t.elapsed, 1.0)


def test_criterion_02_grandi_consensus():
    with Timer() as t:
        ces = cesaro_sum(get_series("grandi"), 10**4)
        abe = abel_sum(get_series("grandi"))
        smo = grandi_smoothed(make_cutoff("bump"), 1e4)
        ok = ces.verdict == "finite" and abs(ces.value - 0.5) <= 2e-4
        ok &= abe.verdict == "finite" and abs(abe.value - 0.5) <= 2e-4
        ok &= abs(smo - 0.5) <= 2e-4
    report(2, ok, "Cesaro, Abel, smoothed Grandi all 0.5 +- 2e-4", t.elapsed, 1.0)


def test_criterion_03_smoothed_constants():
    with Timer() as t:
        ok = True
        for s, grid, target in (
            (0, [100.0, 200.0, 400.0, 800.0, 1600.0], -0.5),
            (1, [100.0, 200.0, 400.0, 800.0, 1600.0], -1.0 / 12.0),
            (5, [200.0, 400.0, 800.0, 1600.0, 3200.0], -1.0 / 252.0),
        ):
            fit = constant_extraction(s, make_cutoff("bump"), grid)
            ok &= abs(fit.constant - target) <= 1e-2 * abs(target)
            ok &= fit.rate_exponent <= -0.9
    report(3, ok, "extracted constants -1/2, -1/12, -1/252 within 1e-2 relative, rate <= -0.9",
           t.elapsed, 10.0)


def test_criterion_04_rule_set_ledger():
    with Timer() as t:
        rep = inconsistency_ledger()
        row = rep.by_identity("S1' = -(1/3)(1-2+3-4+...)")
        ok = row.rule_a == Fraction(-1, 6)
        ok &= row.rule_b == Fraction(-1, 12)
        ok &= row.clash and len(rep.clashes) == 1
    report(4, ok, "rule-set A gives -1/6, rule-set B gives -1/12, clash flagged",
           t.elapsed, 1.0)


def test_criterion_05_stirling_bound():
    with Timer() as t:
        ok = all(
            stirling_gap(n, terms) <= stirling_series(n, terms).bound
            for n in range(2, 51) for terms in range(1, 5)
        )
    report(5, ok, "|g(n) - series| <= remainder bound for n in 2..50, terms in 1..4",
           t.elapsed, 5.0)


def test_criterion_06_divergence_demo():
    with Timer() as t:
        scan = em_divergence_demo(1, 10)
        ok = scan.m_star == 5
        ok &= scan.terms[:3] == (Fraction(1, 12), Fraction(-1, 360), Fraction(1, 1260))
    report(6, ok, "growth index m* = 5 at n = 1, exact rational scan", t.elapsed, 1.0)


def test_criterion_07_casimir_limit():
    with Timer() as t:
        limit = -1.0 / 360.0
        r = u_t_dimensionless(CasimirConfig(N=800.0, lam=1.0, cutoff=make_cutoff("bump"),
                                            quad_tol=1e-9))
        ok = abs(r.value - limit) <= 0.01 * abs(limit)
        cfg = CasimirConfig(d=1e-6, N=800.0, cutoff=make_cutoff("bump"), quad_tol=1e-9)
        u = energy_density(cfg)
        ok &= abs(u - (-4.3318e-10)) <= 0.02 * 4.3318e-10
        force = casimir_force(1e-6, cfg)
        ok &= abs(force - closed_form_force(1e-6)) <= 0.01 * abs(closed_form_force(1e-6))
    report(7, ok, "u_t(N=800) within 1% of -1/360; energy, force match closed forms",
           t.elapsed, 60.0)


def test_criterion_08_casimir_robustness():
    with Timer() as t:
        limit = -1.0 / 360.0
        ok = True
        for cut in (make_cutoff("bump"), make_cutoff("poly", 6)):
            for lam in (0.5, 1.0, 2.0):
                r = u_t_dimensionless(CasimirConfig(N=400.0, lam=lam, cutoff=cut,
                                                    quad_tol=1e-9))
                ok &= abs(r.value - limit) <= 0.02 * abs(limit)
        vals = {}
        for N in (100.0, 200.0, 400.0):
            cfg = CasimirConfig(N=N, cutoff=sharp_indicator(), quad_tol=1e-9)
            vals[N] = u_t_dimensionless(cfg, enforce_smoothness=False).value
        ok &= abs(vals[400.0] - vals[200.0]) > abs(vals[200.0] - vals[100.0])
    report(8, ok, "two cutoff families x lambda in {0.5,1,2} agree within 2%; "
           "sharp indicator never stabilizes", t.elapsed, 120.0)


def test_criterion_09_derivative_identities():
    with Timer() as t:
        cfg = CasimirConfig(N=50.0, cutoff=make_cutoff("bump"), quad_tol=1e-9)
        devs = [derivative_identities(cfg, order) for order in range(1, 6)]
        ok = all(dev <= 1e-4 for dev in devs)
    report(9, ok, "closed forms F^(1..5) match finite differences within 1e-4 relative",
           t.elapsed, 5.0)


def test_criterion_10_optimal_truncation():
    with Timer() as t:
        ok = optimal_truncation(Fraction(1, 137)) in (136, 137, 138)
        ok &= optimal_truncation(0.5) == 2
    report(10, ok, "N*(1/137) in {136,137,138}, N*(0.5) = 2, exact scan", t.elapsed, 1.0)


def test_criterion_11_borel_check():
    with Timer() as t:
        x = 0.1
        ts = np.linspace(0.0, 60.0, 60001)
        y = np.exp(-ts) / (1.0 + x * ts)
        h = ts[1] - ts[0]
        oracle = h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())
        euler = CoefficientOracle(a=lambda n: (-1.0) ** n * math.factorial(n), label="euler",
                                  exp_rate=0.0, borel_transform=lambda z: 1.0 / (1.0 + z))
        ok = abs(borel_sum(euler, x, 1e-9) - oracle) <= 1e-6
        tol = 1e-8
        geo = CoefficientOracle(a=lambda n: 0.5**n, label="geo", exp_rate=0.5)
        ok &= abs(borel_sum(geo, 0.5, tol) - 1.0 / (1.0 - 0.25)) <= 10.0 * tol
    report(11, ok, "Euler series matches quadrature oracle to 1e-6; geometric within 10 tol",
           t.elapsed, 1.0)


def test_criterion_12_delta_sequence():
    with Timer() as t:
        phi = centered_bump()
        errs = [abs(delta_pairing(j, phi, tol=1e-11) - phi(0.0)) for j in (25, 50, 100, 200)]
        ok = all(b < a for a, b in zip(errs, errs[1:]))
    report(12, ok, "Dirichlet pairing error decreases monotonically over j = 25..200",
           t.elapsed, 5.0)
