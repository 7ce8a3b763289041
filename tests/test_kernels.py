"""The kernels: the bump's sums below N_0(s), the eta formulas and the plate-energy cell sweep.

``smoothed`` asks the sums for at most 3,386 terms (the bump below its expansion's
threshold), each an exact eta pass correctly rounded; the sweep runs below N/lam ~ 641.80,
so over at most 642 cells.
"""

import json
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from summa import _kernels, quadrature, smoothed
from summa.cli import run
from summa.cutoffs import BUMP_EDGE, bump_em, make_cutoff, sharp_indicator
from summa.errors import NonFiniteResultError, PrecisionCapError, QuadratureError
from summa.quadrature import MID_NODE, _adapt, _gk15, integrate
from summa.smoothed import grandi_with_deviation, scaling_counterexample, smoothed_sum

from test_smoothed import first_expansion_scale

BUMP = make_cutoff("bump")
# every eta formula: the bump, poly:1/4/8 and the sharp indicator
ALL_CUTOFFS = [pytest.param(cut, id=cut.label) for cut in
               [BUMP] + [make_cutoff(f"poly:{p}") for p in (1, 4, 8)] + [sharp_indicator()]]


def masked_eta(cut, x):
    """eta from a zeroed array and a support mask: the reference for the in-place eval."""
    if cut.kind == "indicator":
        return np.where(x <= 1.0, 1.0, 0.0)
    out = np.zeros_like(x)
    if cut.kind == "bump":
        m = x < BUMP_EDGE
        t = 1.0 - x[m] * x[m]
        out[m] = np.exp(1.0 - 1.0 / t)
    else:
        m = x < 1.0
        out[m] = (1.0 - x[m]) ** cut.p
    return out


def correctly_rounded(x):
    """The mpf x rounded once to float64 (subnormals and 0 included), through its exact
    rational; None past float64 range."""
    man, exp = x.man_exp
    top = abs(man).bit_length() + exp  # |x| < 2^top
    if top > 1025:
        return None
    return float(Fraction(man) * Fraction(2) ** exp) if top > -1100 else 0.0


def bump_terms(N, dps=50):
    """[eta(n/N) for 1 <= n < N] at ``dps`` digits."""
    with mp.workdps(dps):
        x = mp.mpf(N)
        return [mp.exp(1 - 1 / (1 - (n / x) ** 2)) for n in range(1, math.ceil(N))]


def reference_sum(s, N, dps=50):
    """sum_{1<=n<N} eta(n/N) n^s at ``dps`` digits, correctly rounded (None past float64)."""
    with mp.workdps(dps):
        return correctly_rounded(mp.fsum(e * mp.mpf(n) ** s
                                         for n, e in enumerate(bump_terms(N, dps), 1)))


def reference_grandi(N, dps=50):
    """(G, |G - 1/2|) of the bump at ``dps`` digits, each correctly rounded."""
    with mp.workdps(dps):
        G = mp.fsum(e if n % 2 else -e for n, e in enumerate(bump_terms(N, dps), 1))
        return correctly_rounded(G), correctly_rounded(abs(G - mp.mpf(0.5)))


def assert_sum_or_overflow(call, want):
    """``call()`` is ``want``, or a typed overflow where the reference is past float64."""
    if want is None:
        with pytest.raises(NonFiniteResultError):
            call()
    else:
        assert call() == want


class TestBumpSumLane:
    """Below N_0(s) the bump's smoothed, Grandi and scaling sums are the eta pass's integer
    totals, each correctly rounded, and numpy is never loaded."""

    @given(s=st.integers(0, 93), u=st.floats(0, 1))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_every_value_is_the_correctly_rounded_sum(self, s, u):
        # N log-uniform in [1, N_0(s))
        N0 = first_expansion_scale(s)
        N = min(N0**u, math.nextafter(N0, 0))
        assert_sum_or_overflow(lambda: smoothed_sum(s, BUMP, N), reference_sum(s, N))
        G, deviation = grandi_with_deviation(BUMP, N)
        want = reference_grandi(N)
        # where 3 bound(N/2) <= 2^-56, 0.5 is G rounded and 0.0 stands for its bound
        if bump_em(0, N / 2, lambda s, x: smoothed._GRANDI_LIMIT) is not None:
            assert (G, deviation) == (want[0], 0.0) == (0.5, 0.0)
        else:
            assert (G, deviation) == want
        if N >= 2:
            lhs, rhs, _ = scaling_counterexample(BUMP, N)
            assert (lhs, rhs) == (2 * reference_sum(1, N / 2), 2 * reference_sum(1, N))

    @pytest.mark.parametrize("s,N,want", [
        (3000, 2.0004808405450554, 1.7166843741353017),  # eta(1/N) + eta(2/N) 2^3000, both ~1
        (2000, 1.5, 0.4493289641172216),  # eta(2/3): n = 2 is not below N
        (10**400, 1.5, 0.4493289641172216),
        (0, 1.0001, 0.0),  # eta(1/N) ~ e^-5000 rounds to 0
        (5, 1.0, 0.0),  # no n below N
    ])
    def test_crafted_sums(self, s, N, want):
        assert smoothed_sum(s, BUMP, N) == want
        if s < 10**4:
            assert reference_sum(s, N) == want

    @pytest.mark.parametrize("N", [1.0, 1.5, 2.5, 787.0])  # 1.0: no term, G = 0
    def test_crafted_grandi_sums(self, N):
        assert grandi_with_deviation(BUMP, N) == reference_grandi(N, dps=60)

    @pytest.mark.parametrize("N", [2.0000000001, 3.5])
    def test_overflow_is_decided_before_any_power(self, monkeypatch, N):
        def no_pass(*args):
            raise AssertionError("an overflowing sum reached the eta pass")

        monkeypatch.setattr(smoothed, "_bump_totals", no_pass)
        with pytest.raises(NonFiniteResultError, match="past float64 range"):
            smoothed_sum(10**400, BUMP, N)
        assert run(["smoothed", "--s", str(10**400), "--N", str(N)]) == 1

    def test_a_start_past_the_bits_cap_is_refused_before_any_pass(self, monkeypatch, capsys):
        s, N = 30000, 2.000048089256552  # ~30,066 bits to resolve eta(2/N) 2^30000 ~ 1
        assert smoothed._bump_sum_bits(s, N) > smoothed.MAX_SUM_BITS
        monkeypatch.setattr(smoothed, "_bump_totals", lambda *args: pytest.fail("a pass ran"))
        with pytest.raises(PrecisionCapError):
            smoothed_sum(s, BUMP, N)
        assert run(["smoothed", "--s", str(s), "--N", str(N)]) == 2
        assert "bump sum fixed-point bits" in capsys.readouterr().err

    def test_no_numpy_at_any_scale(self, run_fresh):
        # with numpy unimportable every call runs; scaling-demo takes N >= 2 (exit 2 at 1.5)
        argvs = [[cmd, *(["--s", "2"] if cmd == "smoothed" else []), "--N", str(N)]
                 for cmd in ("smoothed", "grandi", "scaling-demo")
                 for N in (1.5, 2.5, 300, 787, 1e7)]
        out = run_fresh("import contextlib, io, sys\n"
                        "sys.modules['numpy'] = None\n"
                        "from summa.cli import run\n"
                        "with contextlib.redirect_stdout(io.StringIO()), "
                        "contextlib.redirect_stderr(io.StringIO()):\n"
                        f"    rcs = [run(a) for a in {argvs!r}]\n"
                        "print(rcs)\n")
        assert out == f"{[0] * 10 + [2] + [0] * 4}\n"

    def test_peak_memory_is_bounded_at_1e8_terms(self, run_fresh):
        # the bump's sum at 10^8 is its expansion at 0 and sums no terms: it must stay small.
        # On Linux a freshly exec'd process's ru_maxrss also counts its parent's
        # resident set at spawn (this test process's), so read the process's own
        # high-water mark, VmHWM, where there is one.
        code = ("import resource, sys\n"
                "from summa.cli import run\n"
                "assert run(['smoothed', '--s', '1', '--N', '1e8']) == 0\n"
                "try:\n"
                "    hwm = [l for l in open('/proc/self/status') if l.startswith('VmHWM:')]\n"
                "    kb = float(hwm[0].split()[1])\n"
                "except (OSError, IndexError):\n"
                "    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                "    kb /= 1024 if sys.platform == 'darwin' else 1\n"
                "print(kb / 1024)\n")
        payload, peak_mb = run_fresh(code).splitlines()
        assert json.loads(payload)["result"]["value"] > 0
        assert float(peak_mb) < 100.0


EVAL_POINTS = {
    "inside": np.linspace(0.0, 0.999, 12).reshape(3, 4),
    "straddle-1d": np.linspace(0.0, 1.5, 301),
    "straddle-2d": np.linspace(0.5, 1.0, 60).reshape(4, 15),
    "past-1d": np.geomspace(1.0, 1e200, 50),
    "past-2d": np.array([[1.0, 2.0, 1e100], [1e200, 1.0 + 1e-15, 3.0]]),
}


class TestEvalInto:
    @pytest.mark.parametrize("cut", ALL_CUTOFFS)
    @pytest.mark.parametrize("name", list(EVAL_POINTS))
    def test_eval_into_a_buffer_has_the_bits_of_eval(self, cut, name):
        x = EVAL_POINTS[name]
        ref = cut.eval(x)
        assert ref.tobytes() == masked_eta(cut, x).tobytes()
        buf = np.full_like(x, np.nan)
        assert cut.eval(x, out=buf) is buf
        assert buf.tobytes() == ref.tobytes()
        y = x.copy()
        assert cut.eval(y, out=y) is y  # out may be x itself
        assert y.tobytes() == ref.tobytes()


# --- the cell sweep ------------------------------------------------------------------


def one_shot(f, lo, hi, span, tol):
    """The adaptive loop written out independently of ``_adapt``, one tolerance shared over
    ``span``: (value, error, nevals, npanels)."""
    share, min_width = tol / span, max(1e-14 * span, 5e-308)
    values, errors, nevals = [], [], 0
    while lo.size:
        val, err, floor = _gk15(f, lo, hi)
        nevals += 15 * lo.size
        width = hi - lo
        split = (err > np.maximum(share * width, 2.0 * floor)) & (width > min_width)
        values += val[~split].tolist()
        errors += err[~split].tolist()
        lo, hi = lo[split], hi[split]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
    return math.fsum(values), math.fsum(errors), nevals, len(values)


def one_shot_ut(cut, lam, N, tol):
    """The plate sweep on ``one_shot``: (value, error, nevals, npanels)."""
    c, support = lam / N, N / lam
    lo = np.arange(math.ceil(support), dtype=float)
    hi = np.minimum(lo + 1.0, support)

    def saw(v):
        cell = np.floor(v[:, MID_NODE, None])
        y = cut.eval(c * v)
        y *= v
        y *= v
        y *= cell + 0.5 - v
        return y

    return one_shot(saw, lo, hi, support, tol)


# (cutoff, lam, N) at scales the sweep serves: below N/lam ~ 641.80
SWEEPS = [("bump", 0.37, 641 * 0.37), ("bump", 0.37, 500.1 * 0.37), ("poly:8", 0.5, 600.5)]


class TestCellSweep:
    def test_bit_identical_to_one_shot_sweep(self):
        for spec, lam, N in SWEEPS:
            cut = make_cutoff(spec)
            value, error = _kernels.ut_value(cut, lam, N, 1e-9)
            ref_value, ref_error, _, _ = one_shot_ut(cut, lam, N, 1e-9)
            assert [value.hex(), error.hex()] == [ref_value.hex(), ref_error.hex()], spec


def kink(v):
    """|x - 1/3| in every unit cell: each cell needs several bisection levels."""
    return np.abs(v - np.floor(v[:, MID_NODE, None]) - 1.0 / 3.0)


class TestAdaptBudget:
    NCELLS, TOL = 301, 1e-7

    def sweep(self, budget):
        lo = np.arange(self.NCELLS, dtype=float)
        return _adapt(kink, lo, lo + 1.0, np.full(self.NCELLS, float(self.NCELLS)), self.TOL,
                      budget)

    def test_budget_admits_exactly_the_sweeps_work(self):
        nevals = self.sweep(10**7)[3]
        assert nevals > 4 * 15 * self.NCELLS  # refined well past the first level
        assert self.sweep(nevals)[3] == nevals
        with pytest.raises(QuadratureError, match="budget"):
            self.sweep(nevals - 1)


# (integrand, a, b, tol): the kinks of the quadrature tests, on one initial panel
KINKS = [
    pytest.param(lambda x: np.abs(x - 1.0 / 3.0) ** 0.5, 0.0, 1.0, 1e-10, id="sqrt-kink"),
    pytest.param(kink, 0.0, 7.5, 1e-7, id="cell-kink"),
    pytest.param(lambda x: np.exp(-x) * np.sin(9.0 * x), 0.0, 6.0, 1e-11, id="damped-sine"),
]


class TestOnePanelPathUnchanged:
    """``integrate`` accepts the same panels as a loop with one tolerance share and sums them
    with one fsum: hex-identical values and errors (``ut_value``: ``TestCellSweep``)."""

    @pytest.mark.parametrize("f,a,b,tol", KINKS)
    def test_integrate(self, f, a, b, tol):
        res = integrate(f, a, b, tol)
        ref = one_shot(f, np.array([a]), np.array([b]), b - a, tol)
        assert [res.value.hex(), res.error.hex(), res.nevals, res.nintervals] == [
            ref[0].hex(), ref[1].hex(), ref[2], ref[3]]


class TestMomentBatch:
    """``moment_quad`` integrates each interval of a batch to the whole tolerance.  Budget:
    a batch of n intervals may spend QUAD_BUDGET + 15 n evaluations, QUAD_BUDGET beyond the
    first panel of each interval."""

    CUT = make_cutoff("poly:1")  # its kink at 1 takes the last interval through many levels
    LO, HI, TOL = [0.0, 0.5, 0.9, 0.99], [0.5, 0.9, 0.99, 1.3], 1e-13

    def batch_nevals(self, monkeypatch):
        spent = []

        def recording(*args):
            res = _adapt(*args)
            spent.append(res[3])
            return res

        monkeypatch.setattr(quadrature, "_adapt", recording)
        _kernels.moment_quad(self.CUT, 2, 1.0, self.LO, self.HI, self.TOL)
        return spent[-1]

    def test_each_interval_is_its_own_integral(self):
        values, errors = _kernels.moment_quad(self.CUT, 2, 1.0, self.LO, self.HI, self.TOL)
        for a, b, value, error in zip(self.LO, self.HI, values, errors):
            ref = integrate(lambda x: x * x * self.CUT.eval(x), a, b, self.TOL)
            assert error <= self.TOL
            assert abs(value - ref.value) <= self.TOL

    def test_budget_admits_exactly_the_batchs_work(self, monkeypatch):
        first = 15 * len(self.LO)
        nevals = self.batch_nevals(monkeypatch)
        assert nevals > 3 * first  # refined well past the first level
        monkeypatch.setattr(_kernels, "QUAD_BUDGET", nevals - first)
        assert self.batch_nevals(monkeypatch) == nevals
        monkeypatch.setattr(_kernels, "QUAD_BUDGET", nevals - first - 1)
        with pytest.raises(QuadratureError, match="budget"):
            self.batch_nevals(monkeypatch)
