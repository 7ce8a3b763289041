"""The O(N) kernels: the smoothed and alternating sums, and the plate-energy cell sweep.

Each is one vectorized pass.  ``smoothed`` asks the sums for at most 3,787 terms (the bump
below its expansion's threshold) and runs the sweep below N/lam ~ 641.80, so over at most
642 cells; the sums are tested here at sizes well past that, on every eta formula.
"""

import json
import math

import numpy as np
import pytest

from summa import _kernels
from summa.cutoffs import BUMP_EDGE, make_cutoff, sharp_indicator
from summa.errors import QuadratureError
from summa.quadrature import MID_NODE, _adapt, _gk15, integrate

BUMP = make_cutoff("bump")
# test ids name (family, order): 0-0 is the bump, 1-3 is poly:3
CUTOFFS = [pytest.param(BUMP, id="0-0"), pytest.param(make_cutoff("poly:3"), id="1-3")]
# sizes once either side of the streamed sums' chunk of 61,440 terms, kept as the test ids
SIZES = [61439, 61440, 61441, 122880.5, 184321]
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


def doubled(cut, N):
    """sum 2n eta(2n/N) in the form ``smoothed.scaling_counterexample`` computes it."""
    return 2.0 * _kernels.smoothed_sum_value(1, cut, N / 2.0)


def fresh_reference(terms, count):
    """np.sum of ``terms`` over one fresh arange of n = 1..count."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum(terms(np.arange(1, count + 1, dtype=float))))


def alternating_terms(cut, N):
    def terms(n):
        y = masked_eta(cut, n / N)
        odd, even = y[0::2], y[1::2]
        odd[:even.size] -= even
        return odd

    return terms


class TestStreamedSums:
    @pytest.mark.parametrize("cut", CUTOFFS)
    @pytest.mark.parametrize("N", SIZES)
    def test_smoothed_sum_matches_fsum_of_its_terms(self, cut, N):
        n = np.arange(1, math.ceil(N) + 1, dtype=float)
        for s in (0, 1):
            ref = math.fsum((cut.eval(n / N) * n**s).tolist())
            assert abs(_kernels.smoothed_sum_value(s, cut, N) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("cut", CUTOFFS)
    @pytest.mark.parametrize("N", SIZES)
    def test_alternating_sum_keeps_global_sign_parity(self, cut, N):
        # the +eta, -eta pairs subtract exactly: within rounding of the fsum itself
        terms = cut.eval(np.arange(1, math.ceil(N) + 1, dtype=float) / N).tolist()
        ref = math.fsum(t if n % 2 else -t for n, t in enumerate(terms, start=1))
        assert abs(_kernels.alternating_smoothed_value(cut, N) - ref) <= 1e-15

    @pytest.mark.parametrize("cut", CUTOFFS)
    @pytest.mark.parametrize("N", SIZES)
    def test_doubled_sum_matches_fsum_of_its_terms(self, cut, N):
        # the doubled sum sum 2n eta(2n/N) is twice the s = 1 sum at N/2
        n = np.arange(1, math.ceil(N / 2.0) + 1, dtype=float)
        ref = math.fsum((2.0 * n * cut.eval(2.0 * n / N)).tolist())
        assert abs(doubled(cut, N) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("cut", ALL_CUTOFFS)
    @pytest.mark.parametrize("N", SIZES + [153600.25])
    def test_buffered_sums_are_bit_identical_to_fresh_chunks(self, cut, N):
        # the in-place arithmetic against fresh arrays, over the one chunk the sums now take
        for s in range(5):
            ref = fresh_reference(lambda n: masked_eta(cut, n / N) * n**s, math.ceil(N))
            assert _kernels.smoothed_sum_value(s, cut, N).hex() == ref.hex(), s
        ref = fresh_reference(alternating_terms(cut, N), math.ceil(N))
        assert _kernels.alternating_smoothed_value(cut, N).hex() == ref.hex()
        ref = fresh_reference(lambda n: 2.0 * n * masked_eta(cut, 2.0 * n / N), math.ceil(N / 2.0))
        assert doubled(cut, N).hex() == ref.hex()

    def test_empty_range_is_zero(self):
        assert _kernels.smoothed_sum_value(1, BUMP, 0.0) == 0.0
        assert _kernels.alternating_smoothed_value(BUMP, 0.0) == 0.0

    def test_overflow_is_a_quiet_non_finite_value(self):
        # n^200 overflows float64: no RuntimeWarning escapes, the caller sees nan/inf
        assert not math.isfinite(_kernels.smoothed_sum_value(200, BUMP, 1000.0))

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

        monkeypatch.setattr(_kernels, "_adapt", recording)
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
