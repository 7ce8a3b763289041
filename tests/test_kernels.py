"""The streamed O(N) kernels: chunked sums and the chunked plate-energy cell sweep."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import summa
from summa import _kernels
from summa._kernels import CHUNK
from summa.cutoffs import make_cutoff
from summa.errors import QuadratureError
from summa.quadrature import MID_NODE, _adapt, _gk15

BUMP = make_cutoff("bump")
# test ids name (family, order): 0-0 is the bump, 1-3 is poly:3
CUTOFFS = [pytest.param(BUMP, id="0-0"), pytest.param(make_cutoff("poly:3"), id="1-3")]
SIZES = [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 0.5, 3 * CHUNK + 1]


def run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this summa, BLAS on one thread; returns stdout."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(summa.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


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
        n = np.arange(1, math.ceil(N / 2.0) + 1, dtype=float)
        ref = math.fsum((2.0 * n * cut.eval(2.0 * n / N)).tolist())
        assert abs(_kernels.doubled_smoothed_value(cut, N) - ref) <= 1e-12 * abs(ref)

    def test_empty_range_is_zero(self):
        assert _kernels.smoothed_sum_value(1, BUMP, 0.0) == 0.0
        assert _kernels.alternating_smoothed_value(BUMP, 0.0) == 0.0

    def test_overflow_is_a_quiet_non_finite_value(self):
        # n^200 overflows float64: no RuntimeWarning escapes, the caller sees nan/inf
        assert not math.isfinite(_kernels.smoothed_sum_value(200, BUMP, 1000.0))

    def test_term_cap(self):
        with pytest.raises(ValueError, match="MAX_TERMS"):
            _kernels.smoothed_sum_value(1, BUMP, _kernels.MAX_TERMS + 0.5)
        with pytest.raises(ValueError, match="MAX_TERMS"):
            _kernels.alternating_smoothed_value(BUMP, 1e300)

    def test_peak_memory_is_bounded_at_1e8_terms(self):
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


# --- the cell sweep ------------------------------------------------------------------


def one_shot_ut(cut, lam, N, tol):
    """The plate sweep with all cells in one batch: (value, error, nevals)."""
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

    share, min_width = tol / support, max(1e-14 * support, 5e-308)
    values, errors, nevals = [], [], 0
    while lo.size:
        val, err, floor = _gk15(saw, lo, hi)
        nevals += 15 * lo.size
        width = hi - lo
        split = (err > np.maximum(share * width, 2.0 * floor)) & (width > min_width)
        values += val[~split].tolist()
        errors += err[~split].tolist()
        lo, hi = lo[split], hi[split]
        mid = 0.5 * (lo + hi)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
    return math.fsum(values), math.fsum(errors), nevals


# (cutoff, lam, N): each spans at least three cell chunks
SWEEPS = [("bump", 1.0, 13000.0), ("poly:8", 0.5, 6600.5)]


def sweep_bits(spec, lam, N, tol=1e-9):
    """(chunked, one-shot) sweep results as hex strings."""
    assert math.ceil(N / lam) > 2 * (CHUNK // 15)
    cut = make_cutoff(spec)
    value, error = _kernels.ut_value(cut, lam, N, tol)
    ref_value, ref_error, _ = one_shot_ut(cut, lam, N, tol)
    return [value.hex(), error.hex()], [ref_value.hex(), ref_error.hex()]


class TestStreamedCellSweep:
    def test_bit_identical_to_one_shot_sweep(self):
        # BLAS on one thread: a multi-threaded gemv splits the one-shot batch at
        # thread-count-dependent rows, which changes the reference's own bits
        code = ("import importlib.util, json\n"
                f"spec = importlib.util.spec_from_file_location('tk', {str(Path(__file__))!r})\n"
                "tk = importlib.util.module_from_spec(spec); spec.loader.exec_module(tk)\n"
                "print(json.dumps([tk.sweep_bits(*args) for args in tk.SWEEPS]))\n")
        for args, (chunked, one_shot) in zip(SWEEPS, json.loads(run_fresh(code))):
            assert chunked == one_shot, args

    def test_cell_cap(self):
        with pytest.raises(ValueError, match="MAX_CELLS"):
            _kernels.ut_value(BUMP, 1e-9, 20.0, 1e-9)
        with pytest.raises(ValueError, match="MAX_CELLS"):
            _kernels.ut_value(BUMP, 1.0, float(_kernels.MAX_CELLS) + 0.5, 1e-9)


def kink(v):
    """|x - 1/3| in every unit cell: each cell needs several bisection levels."""
    return np.abs(v - np.floor(v[:, MID_NODE, None]) - 1.0 / 3.0)


def cell_batches(ncells, size):
    for start in range(0, ncells, size):
        lo = np.arange(start, min(start + size, ncells), dtype=float)
        yield lo, lo + 1.0


class TestAdaptBatches:
    NCELLS, TOL = 301, 1e-7

    def sweep(self, size, budget=10**7):
        return _adapt(kink, cell_batches(self.NCELLS, size), float(self.NCELLS), self.TOL, budget)

    def test_batches_do_the_same_work(self):
        value, error, nevals, npanels = self.sweep(self.NCELLS)
        assert nevals > 4 * 15 * self.NCELLS  # refined well past the first level
        many = self.sweep(64)
        assert many[2:] == (nevals, npanels)
        # refined panels may sit at another BLAS row position: last-ulp changes only
        assert many[0] == pytest.approx(value, rel=1e-14)
        assert many[1] == pytest.approx(error, rel=1e-12)

    def test_budget_is_shared_across_batches(self):
        # raises if and only if one batch of all cells would: the shared budget
        # admits exactly that sweep's work and not one evaluation less
        nevals = self.sweep(self.NCELLS)[2]
        assert self.sweep(64, budget=nevals)[2] == nevals
        with pytest.raises(QuadratureError, match="budget"):
            self.sweep(64, budget=nevals - 1)
