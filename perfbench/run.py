"""summa benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload library --seed 1 --seconds 50 --trace 0

Workloads: library (the plate sweep and the exact extraction as library calls
in this process, one caller in a closed loop, timed after one untimed warm
pass) and cli-calls (one ``summa`` subprocess at a time, cold by
construction).  A pass runs the
workload's task list and checks every output; passes repeat for
``--seconds``, the first one whole however long it takes.

``--trace 0`` prints the end-to-end metrics (run_s, task_p50_ms,
task_tail_ms, setup_s, peak_rss_mb, pass_ratio).  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of the traced
ones, plus trace.overhead_ratio; the spans are written to
``.perfbench_out/<workload>-spans.json.gz``.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

The program is imported from ``src/`` of the checkout; nothing is built or
installed.  Without ``src/summa`` the run exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

# One BLAS thread, here and in every child: the load is one caller on a shared
# host with few cores, where a second BLAS thread measures the scheduler.  Set
# before numpy is first imported (by oracles, through workloads).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 15
# In an in-process pass of an untraced run a task is called again, back to
# back, while its calls in this pass took less than REPEAT_BELOW_S and were
# fewer than REPEAT_MAX; its latency in the pass is the fastest call.  A short
# task then gets several samples per pass, as a long one gets from its length.
REPEAT_BELOW_S = 0.005
REPEAT_MAX = 10
# The host probe: a loop of PROBE_LOOPS steps, which takes about PROBE_REF_S
# on a quiet core of the machine in environment.json.
PROBE_LOOPS = 3000
PROBE_REF_S = 200e-6
CLI_TIMEOUT_S = 120
END_TO_END_UNITS = {"run_s": "s", "task_p50_ms": "ms", "task_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "ratio"}


def _die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Outcome:
    task: object
    seconds: float
    problem: Optional[str]  # None when the output matched its reference
    raised: bool  # the call raised, exited non-zero or timed out
    excused: bool = False  # a known defect's miss that stays within the defect's ceiling


class SetupTimer:
    """Times SETUP_REPEATS fresh interpreters importing ``modules``, spread over the run.

    Called between tasks, it takes one import whenever the next is due, so
    the imports sample the whole run rather than one moment of the host.
    ``seconds()`` takes any still missing and returns the fastest: the
    fastest, like every other timing here, because interference from the
    host only adds time.
    """

    def __init__(self, modules: str, start: float, span: float):
        self.modules, self.start, self.step = modules, start, span / SETUP_REPEATS
        self.times: list = []

    def _one(self):
        code = f"import time\nt = time.perf_counter()\nimport {self.modules}\nprint(time.perf_counter() - t)"
        proc = subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        if proc.returncode != 0:
            _die(f"importing {self.modules} failed:\n{proc.stderr}")
        self.times.append(float(proc.stdout.split()[-1]))

    def __call__(self):
        if (len(self.times) < SETUP_REPEATS
                and time.perf_counter() >= self.start + len(self.times) * self.step):
            self._one()

    def seconds(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self._one()
        return min(self.times)


class HostProbe:
    """The host's speed during the run, from a fixed summa-free loop timed between tasks.

    On a shared host the same code runs up to 1.5x slower for minutes at a
    time, with CPU time equal to wall time.  The loop's 10th-percentile time
    over the run, against PROBE_REF_S, gives the factor that scales the run's
    timings to a host of fixed speed; the program never runs inside the loop,
    so a change to the program moves the scaled timings as it moves the
    measured ones.
    """

    def __init__(self):
        self.times: list = []

    def __call__(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        self.times.append(time.perf_counter() - t0)

    def scale(self) -> float:
        return PROBE_REF_S / statistics.quantiles(self.times, n=10, method="inclusive")[0]


class InProcessRunner:
    def __init__(self, tracer):
        self.tracer = tracer

    def start_pass(self, traced: bool):
        if traced:
            self.tracer.reset()
            self.tracer.install()

    def end_pass(self, traced: bool):
        if not traced:
            return None
        self.tracer.uninstall()
        snap = self.tracer.snapshot()
        return [snap], []

    def __call__(self, task, traced: bool):
        if not traced:
            return task.call()
        idx = self.tracer.begin(tracing.TASK)
        try:
            return task.call()
        finally:
            self.tracer.end(idx)


class CliRunner:
    def __init__(self):
        self.spans_path = OUT / "child-spans.json"
        self.snaps: list = []
        self.times: list = []

    def start_pass(self, traced: bool):
        self.snaps, self.times = [], []

    def end_pass(self, traced: bool):
        return (self.snaps, self.times) if traced else None

    def __call__(self, task, traced: bool):
        if traced:
            argv = [sys.executable, str(HERE / "child.py"), str(self.spans_path)] + task.argv
        else:
            argv = [sys.executable, "-m", "summa.cli"] + task.argv
        self.spans_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        proc = subprocess.run(argv, env=_child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if traced:
            data = json.loads(self.spans_path.read_text())
            self.snaps.append(data["trace"])
            self.times.append((data["import_s"], data["run_s"], wall))
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            raise RuntimeError(f"exit code {proc.returncode}: {tail[0]}")
        return proc.stdout


def run_pass(tasks, runner, traced: bool, deadline: Optional[float] = None, repeat=False,
             between=None):
    """(seconds, outcomes, trace data, complete) of one pass over the task list.

    With a ``deadline`` the pass stops before the first task that would
    start after it, and ``complete`` is False.  With ``repeat`` short tasks
    are called again (see REPEAT_BELOW_S).  ``between`` is called before
    each task, outside its timing.
    """
    outcomes = []
    runner.start_pass(traced)
    t_pass = time.perf_counter()
    for task in tasks:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if between is not None:
            between()
        outs, times = [], []
        try:
            while not times or (repeat and sum(times) < REPEAT_BELOW_S and len(times) < REPEAT_MAX):
                t0 = time.perf_counter()
                outs.append(runner(task, traced))
                times.append(time.perf_counter() - t0)
        except Exception as exc:  # a failing task is a measured outcome, not a crash
            outcomes.append(Outcome(task, time.perf_counter() - t0,
                                    f"{type(exc).__name__}: {exc}", raised=True))
            continue
        seconds = min(times)
        try:
            problem = next(filter(None, map(task.check, outs)), None)
            excused = problem is not None and all(
                task.ceiling is not None and task.ceiling(out) is None for out in outs)
        except Exception as exc:  # output the check could not read
            problem, excused = f"unreadable output ({type(exc).__name__}: {exc})", False
        outcomes.append(Outcome(task, seconds, problem, raised=False, excused=excused))
    pass_s = time.perf_counter() - t_pass
    return pass_s, outcomes, runner.end_pass(traced), len(outcomes) == len(tasks)


def tail_percentile(n: int) -> int:
    """The highest of p95, p90, ..., p50 with at least 10 of ``n`` samples beyond it."""
    return next((pct for pct in range(95, 50, -5) if n * (100 - pct) / 100 >= 10), 50)


def end_to_end(workload, passes, setup_s, scale):
    """End-to-end metrics from each task's fastest latency over the passes.

    Interference from the host only ever adds time, and on a shared host it
    comes in spells of seconds during which everything runs up to 1.5x
    slower.  A whole pass, and a single sample of a task, lands in such a
    spell often; a task's fastest over many passes seldom does.  So each
    task's latency is its fastest over the passes, run_s is the sum of those
    over the task list (one pass with every task at its fastest), and the
    percentiles are taken over them.  A spell can also last the whole run,
    so every timing, setup_s too, is then multiplied by ``scale``, the host
    speed factor of HostProbe.  The timings before scaling, the fastest and
    median complete pass and the pooled median latency are printed for
    reference.
    """
    pass_times = [p[0] for p in passes if p[3]]
    outcomes = [o for p in passes for o in p[1]]
    by_task: dict = {}
    for o in outcomes:
        by_task.setdefault(id(o.task), []).append(o.seconds)
    best = [min(v) for v in by_task.values()]
    pct = tail_percentile(len(best))
    tail = statistics.quantiles(best, n=100, method="inclusive")[pct - 1]
    who = resource.RUSAGE_CHILDREN if workload == "cli-calls" else resource.RUSAGE_SELF
    print(f"# measured before scaling: run_s {sum(best)!r} task_p50_ms "
          f"{1e3 * statistics.median(best)!r} task_tail_ms {1e3 * tail!r} setup_s {setup_s!r}; "
          f"host scale {scale!r}")
    metrics = {
        "run_s": scale * sum(best),
        "task_p50_ms": scale * 1e3 * statistics.median(best),
        "task_tail_ms": scale * 1e3 * tail,
        "setup_s": scale * setup_s,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "pass_ratio": 1.0 - sum(o.problem is not None for o in outcomes) / len(outcomes),
    }
    print(f"# task latencies: best of {min(map(len, by_task.values()))}-{max(map(len, by_task.values()))} "
          f"runs for each of {len(best)} tasks; "
          f"task_tail_ms is their p{pct} ({sum(t > tail for t in best)} tasks beyond it)")
    print(f"# pass seconds: fastest {min(pass_times):.3f}, median {statistics.median(pass_times):.3f}; "
          f"pooled median task latency {1e3 * statistics.median(o.seconds for o in outcomes):.3f} ms")
    return metrics


def per_layer(passes):
    traced = [p for p in passes if p[2] is not None]
    untraced = [p for p in passes if p[2] is None and p[3]]
    metrics = tracing.median_metrics([tracing.pass_metrics(*p[2]) for p in traced])
    metrics["trace.overhead_ratio"] = (statistics.median(p[0] for p in traced)
                                       / statistics.median(p[0] for p in untraced))
    return metrics, [p[2][0] for p in traced]


def report_failures(outcomes):
    seen: dict = {}
    for o in outcomes:
        if o.problem is not None:
            seen.setdefault(o.task.name, [o, 0])[1] += 1
    runs = len(outcomes)
    misses = sum(count for _, count in seen.values())
    print(f"# fail_ratio = {misses}/{runs} = {misses / runs:.6f} "
          f"({sum(o.raised for o in outcomes)} raised or exited non-zero)")
    for name, (o, count) in sorted(seen.items()):
        defect = o.task.known_defect
        note = ""
        if defect:
            within = "within" if o.excused else "BEYOND"
            note = f" [known defect {defect}, {within} its ceiling: {workloads.KNOWN_DEFECTS[defect]}]"
        print(f"# FAIL x{count} {name}: {o.problem}{note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "summa" / "__init__.py").is_file():
        _die(f"no summa package under {SRC}; run from the root of a summa checkout")
    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    sys.path.insert(0, str(SRC))
    import numpy
    import mpmath
    import summa

    if Path(summa.__file__).resolve().parent != (SRC / "summa").resolve():
        _die(f"imported summa from {summa.__file__}, not from {SRC}")
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={platform.python_version()} numpy={numpy.__version__} "
          f"mpmath={mpmath.__version__} nproc={os.cpu_count()}")

    tasks = workloads.WORKLOADS[args.workload](random.Random(args.seed))
    rss_refs_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    OUT.mkdir(exist_ok=True)
    if args.workload == "cli-calls":
        runner = CliRunner()
    else:
        runner = InProcessRunner(tracing.Tracer())
        run_pass(tasks, runner, traced=False)  # warm-up: memos filled, lazy imports done

    # Passes repeat until the deadline.  The first pass, and every traced pass,
    # runs whole; a later untraced pass stops at the deadline.  A run therefore
    # lasts about --seconds however long a pass takes, and every task has at
    # least one latency.  With --trace 1 passes alternate, untraced first, and
    # the run ends only after a traced pass.
    passes = []
    start = time.perf_counter()
    deadline = start + args.seconds
    setup = None if args.trace else SetupTimer(workloads.SETUP_IMPORTS[args.workload], start,
                                               args.seconds)
    probe = HostProbe()

    def between():  # outside the tasks' timing
        probe()
        setup()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(run_pass(tasks, runner, traced, None if traced or not passes else deadline,
                               repeat=args.workload != "cli-calls" and not args.trace,
                               between=None if args.trace else between))
        if time.perf_counter() >= deadline and (traced or not args.trace):
            break

    outcomes = [o for p in passes for o in p[1]]
    print(f"# {len(tasks)} tasks per pass, {len(passes)} passes")
    report_failures(outcomes)
    if args.trace:
        metrics, snaps = per_layer(passes)
        with gzip.open(OUT / f"{args.workload}-spans.json.gz", "wt", compresslevel=1) as fh:
            json.dump(snaps, fh)
        units = tracing.PER_LAYER_UNITS
    else:
        metrics = end_to_end(args.workload, passes, setup.seconds(), probe.scale())
        units = END_TO_END_UNITS
        if args.workload != "cli-calls":  # there peak_rss_mb is the largest child's
            print(f"# resident high-water of this process once the references were built: "
                  f"{rss_refs_mb:.1f} MB, below peak_rss_mb when the peak is the program's")
    correct = all(o.problem is None or o.excused for o in outcomes)
    result = {
        "correct": bool(correct),
        "attempted": len(outcomes),
        "failed": sum(o.raised for o in outcomes),
        "metrics": {name: ({"value": metrics[name], "unit": unit} if metrics[name] is not None
                           else {"value": None, "unit": unit, "status": "absent"})
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
