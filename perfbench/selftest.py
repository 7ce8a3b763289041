"""Self-test of the benchmark itself.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

1. Two traced runs with the same seed report identical counts on every
   workload (every per-layer metric whose unit is ``count``, among them
   cutoffs.eval_mp.calls, kernels.ut_value.calls, quadrature.nevals,
   quadrature.panels and kernels.sums.terms).
2. A different seed changes the generated inputs of every workload.

Exits 0 when both hold, 1 otherwise.  Takes about three minutes on two cores.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    ok = True
    for name, generate in workloads.WORKLOADS.items():
        first, second = traced_counts(name, SEED), traced_counts(name, SEED)
        differing = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        nonzero = sorted(k for k, v in first.items() if v)
        print(f"{name}: counts {'repeat' if not differing else 'DIFFER'} across two traced runs "
              f"with seed {SEED}; nonzero: {', '.join(nonzero)}")
        for key, (a, b) in differing.items():
            print(f"  {key}: {a} vs {b}")
        ok &= not differing

        names_a = [t.name for t in generate(random.Random(SEED))]
        names_b = [t.name for t in generate(random.Random(SEED + 1))]
        changed = sum(a != b for a, b in zip(names_a, names_b))
        print(f"{name}: seed {SEED + 1} changes {changed} of {len(names_a)} task inputs")
        ok &= changed > 0
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
