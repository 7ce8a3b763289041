import os
import subprocess
import sys
from pathlib import Path

import pytest

import summa


def _run_fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter on this summa, BLAS on one thread; returns stdout."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=str(Path(summa.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.fixture
def run_fresh():
    """The fresh-interpreter runner shared by every subprocess test."""
    return _run_fresh
