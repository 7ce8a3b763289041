"""Seeded task lists of the two workloads, each task with its own check.

A task is one library call (library) or one ``summa``
subprocess (cli-calls).  Its check compares the output with a reference from
``oracles`` and returns None when the output is correct, else a message.

Parameters are drawn per stratum: each documented range is covered by a
fixed ladder of points, ends included, and the seed jitters the inner
points.  Where a task's cost jumps between nearby inputs (the oscillatory
pairings, the extraction grids) the ladder stays fixed and the seed varies
other inputs.  Every seed therefore covers the whole range while the work
in one pass, and the cost of the tasks that the median and tail latencies
land on, stay within a few percent of every other seed's; the spread of a
timing across seeds reflects the program and the host, not the draw.

Tasks whose parameters fall where the baseline program is known to miss its
reference carry a ``known_defect`` note and a ``ceiling``: a looser check
that bounds the known miss.  They are run and checked like every other task;
a miss counts against ``pass_ratio`` and is reported by name, and a miss
that also fails the ceiling makes the run incorrect.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracles

# The baseline misses by 5.0e-7, by up to 1.6%, and with rates up to +0.52.  Each
# ceiling, given after "ceiling:", sits about twice as far out as the miss, except
# that the rate-fit ceiling drops the rate check and keeps the one on the constant.
KNOWN_DEFECTS = {
    "dirichlet-patch": "the |x| < 1e-4 series patch of the Dirichlet kernel is inaccurate "
                       "for j above ~3000, so delta_pairing misses its requested tolerance "
                       "(ROADMAP item 2c); ceiling: within 1e-6 of the reference",
    "cell-sweep-floor": "u_t of the bump drifts beyond 1% of -1/360 once N/lambda exceeds "
                        "~2e4: every unit cell sits at its roundoff floor and the floors add "
                        "up; ceiling: within 2% of -1/360",
    "rate-fit-floor": "constant_extraction fits its decay rate to residuals that, for the "
                      "bump at s = 0 on grids past ~8000, sit at the mpmath working-precision "
                      "floor, so the fitted rate is noise above -0.9; ceiling: the constant "
                      "still within 1e-2 of -B_(s+1)/(s+1), the rate unchecked",
}


@dataclass
class Task:
    name: str
    check: Callable[[object], Optional[str]]
    call: Optional[Callable[[], object]] = None  # in-process library call
    argv: Optional[list] = None  # CLI arguments after the program name
    known_defect: Optional[str] = None  # a key of KNOWN_DEFECTS
    ceiling: Optional[Callable[[object], Optional[str]]] = None  # the defect's looser check


def _jitter(rng: random.Random, x: float, rel: float, lo: float, hi: float) -> float:
    """Uniform in x * [1 - rel, 1 + rel], cut to [lo, hi]."""
    return rng.uniform(max(lo, x * (1.0 - rel)), min(hi, x * (1.0 + rel)))


def _log_ladder(lo: float, hi: float, k: int) -> list:
    return [lo * (hi / lo) ** (i / (k - 1)) for i in range(k)]


def _rel_close(value, ref, rel, what="value"):
    if not math.isfinite(value) or abs(value - ref) > rel * abs(ref):
        return f"{what} {value!r} vs reference {ref!r} (relative tolerance {rel:g})"
    return None


def _abs_close(value, ref, tol, what="value"):
    if not math.isfinite(value) or abs(value - ref) > tol:
        return f"{what} {value!r} vs reference {ref!r} (absolute tolerance {tol:g})"
    return None


def _first(*messages):
    return next((m for m in messages if m), None)


# --- library, first half: the plate sweep -------------------------------------------


def plate_sweep(rng: random.Random):
    import summa.casimir as cs
    import summa.smoothed as sm
    from summa.cutoffs import make_cutoff, sharp_indicator

    tasks = []
    p = rng.randint(6, 10)
    cutoffs = {"bump": make_cutoff("bump"), f"poly:{p}": make_cutoff(f"poly:{p}")}
    limit = oracles.CASIMIR_LIMIT

    def ut_check(tol):
        return lambda r: _rel_close(r.value, limit, tol, "u_t")

    for label, cut in cutoffs.items():
        for N in [400.0 * 2**k for k in range(7)]:
            for lam in (0.5, _jitter(rng, 1.0, 0.1, 0.5, 2.0), 2.0):  # range ends always run
                cfg = cs.CasimirConfig(N=N, lam=lam, cutoff=cut, quad_tol=1e-9)
                defect = label == "bump" and N / lam >= 2e4
                tasks.append(Task(f"u_t[{label},N={N:g},lam={lam:.4f}]",
                                  ut_check(oracles.casimir_tolerance(N)),
                                  call=lambda cfg=cfg: cs.u_t_dimensionless(cfg),
                                  known_defect="cell-sweep-floor" if defect else None,
                                  ceiling=ut_check(0.02) if defect else None))

    for i, d0 in enumerate(_log_ladder(1e-7, 2e-6, 4)):
        d = _jitter(rng, d0, 0.1, 1e-7, 2e-6)
        label = list(cutoffs)[i % 2]
        N = (400.0, 800.0)[i // 2]
        lam = _jitter(rng, 1.0, 0.1, 0.5, 2.0)
        cfg = cs.CasimirConfig(d=d, N=N, lam=lam, cutoff=cutoffs[label], quad_tol=1e-9)
        tol = oracles.casimir_tolerance(N)
        e_ref, f_ref = oracles.energy_density(d), oracles.casimir_force(d)
        tag = f"{label},d={d:.4g},N={N:g},lam={lam:.4f}"
        tasks.append(Task(f"energy_density[{tag}]",
                          lambda v, e_ref=e_ref, tol=tol: _rel_close(v, e_ref, tol, "energy"),
                          call=lambda cfg=cfg: cs.energy_density(cfg)))
        tasks.append(Task(f"casimir_force[{tag}]",
                          lambda v, f_ref=f_ref, tol=tol: _rel_close(v, f_ref, tol, "force"),
                          call=lambda cfg=cfg, d=d: cs.casimir_force(d, cfg)))

    for label, cut in cutoffs.items():
        cfg = cs.CasimirConfig(N=50.0, lam=1.0, cutoff=cut, quad_tol=1e-9)
        for order in range(1, 6):
            tasks.append(Task(f"derivative_identities[{label},order={order}]",
                              lambda dev: _abs_close(dev, 0.0, 1e-4, "deviation"),
                              call=lambda cfg=cfg, order=order: cs.derivative_identities(cfg, order)))

    for N in (100.0, 200.0, 400.0):
        cfg = cs.CasimirConfig(N=N, lam=1.0, cutoff=sharp_indicator(), quad_tol=1e-9)
        ref = oracles.sharp_indicator_ut(int(N))
        tasks.append(Task(f"u_t[indicator,N={N:g}]",
                          lambda r, ref=ref: _rel_close(r.value, ref, 1e-9, "u_t"),
                          call=lambda cfg=cfg: cs.u_t_dimensionless(cfg, enforce_smoothness=False)))

    phis = {"centered": sm.centered_bump(), "offset": sm.offset_bump()}
    # a fixed ladder: the cost of an oscillatory pairing jumps between nearby j
    ladder = [round(j) for j in _log_ladder(25, 6000, 6)]
    for i, j in enumerate(ladder):
        dfn = "centered" if (len(ladder) - 1 - i) % 2 == 0 else "offset"
        ref = oracles.delta_pairing(j, dfn)
        defect = dfn == "centered" and j > 3000
        tasks.append(Task(f"delta_pairing[j={j},{dfn}]",
                          lambda v, ref=ref: _abs_close(v, ref, 1e-9, "pairing"),
                          call=lambda j=j, phi=phis[dfn]: sm.delta_pairing(j, phi),
                          known_defect="dirichlet-patch" if defect else None,
                          ceiling=(lambda v, ref=ref: _abs_close(v, ref, 1e-6, "pairing"))
                          if defect else None))
        for sfn in ("centered", "offset"):
            ref = oracles.sine_pairing(j, sfn)
            tasks.append(Task(f"sine_pairing[j={j},{sfn}]",
                              lambda v, ref=ref: _abs_close(v, ref, 1e-9, "pairing"),
                              call=lambda j=j, phi=phis[sfn]: sm.sine_pairing(j, phi)))
    return tasks


# --- library, second half: the exact extraction -------------------------------------


def exact_extract(rng: random.Random):
    import summa.asymptotics as asy
    import summa.euler_maclaurin as em
    import summa.exact as ex
    import summa.series as se
    import summa.smoothed as sm
    import summa.summation as su
    from summa.cutoffs import make_cutoff

    tasks = []
    s_values = (0, 1, 3, 5)

    def extract_check(s, rate=True):
        ref = float(oracles.zeta_constant(s))

        def check(fit):
            msg = _rel_close(fit.constant, ref, 1e-2, "constant")
            if not msg and rate and not fit.rate_exponent <= -0.9:
                msg = f"rate exponent {fit.rate_exponent:.3g} > -0.9"
            return msg
        return check

    # grid maxima per s: the mpmath (bump) and Fraction (poly) drift paths at
    # sizes from ROADMAP's 16000 down; p = s + 3 is the roughest poly allowed
    bump_sizes, poly_sizes = (16000, 16000, 4000, 2000), (8000, 4000, 2000, 1000)
    for s, mb, mp_ in zip(s_values, bump_sizes, poly_sizes):
        for label, size in (("bump", mb), (f"poly:{s + 3}", mp_)):
            top = size * rng.uniform(0.95, 1.0)
            grid = [top / 2**k for k in range(4, -1, -1)]
            cut = make_cutoff(label)
            defect = label == "bump" and s == 0 and top > 8000
            tasks.append(Task(f"constant_extraction[s={s},{label},max={top:.1f}]",
                              extract_check(s),
                              call=lambda s=s, cut=cut, grid=grid: sm.constant_extraction(s, cut, grid),
                              known_defect="rate-fit-floor" if defect else None,
                              ceiling=extract_check(s, rate=False) if defect else None))

    for k in [0, 1, 2, 4, rng.randrange(6, 30, 2), rng.randrange(30, 100, 2),
              rng.randrange(100, 200, 2), rng.randrange(3, 200, 2)]:
        ref = oracles.bernoulli(k)
        tasks.append(Task(f"bernoulli[{k}]",
                          lambda v, ref=ref: None if v == ref else f"{v} != {ref}",
                          call=lambda k=k: ex.bernoulli(k)))

    K = rng.randint(24, 48)
    refs = [oracles.bernoulli(j) / math.factorial(j) for j in range(K + 1)]
    tasks.append(Task(f"genfun_coefficients[{K}]",
                      lambda c, refs=refs: None if list(c) == refs else "coefficients differ from B_j/j!",
                      call=lambda K=K: ex.genfun_coefficients(K)))

    for s0, N0 in ((2, 1000), (6, 2500), (12, 5000)):
        s, N = s0 + rng.randint(-1, 1), round(_jitter(rng, N0, 0.1, 100, 5000))
        ref = oracles.power_sum(s, N)
        tasks.append(Task(f"faulhaber[s={s},N={N}]",
                          lambda v, ref=ref: None if v == ref else f"{v} != {ref}",
                          call=lambda s=s, N=N: ex.faulhaber(s, N)))

    for T, n0 in enumerate((3, 10, 25, 45), start=1):
        n = round(_jitter(rng, n0, 0.2, 2, 50))
        gap_ref, bound = oracles.stirling_gap(n, T), oracles.stirling_bound(n, T)

        def stirling_check(gap, gap_ref=gap_ref, bound=bound):
            if not gap_ref <= bound:
                return f"reference gap {gap_ref:.3e} above the bound {float(bound):.3e}"
            return _rel_close(gap, gap_ref, 1e-9, "gap")
        tasks.append(Task(f"stirling_gap[n={n},terms={T}]", stirling_check,
                          call=lambda n=n, T=T: em.stirling_gap(n, T)))

    for n in (1, 3, 5):
        max_terms = 4 * n + 10
        m_star, terms = oracles.divergence_onset(n, max_terms)
        tasks.append(Task(f"em_divergence_demo[n={n}]",
                          lambda r, m=m_star, t=terms: None if (r.m_star, list(r.terms)) == (m, t)
                          else f"m* = {r.m_star}, expected {m}",
                          call=lambda n=n, mt=max_terms: em.em_divergence_demo(n, mt)))

    alpha = Fraction(1, 137)
    ref = oracles.optimal_truncation(alpha)
    tasks.append(Task("optimal_truncation[1/137]",
                      lambda v, ref=ref: None if v == ref else f"N* = {v}, expected {ref}",
                      call=lambda: asy.optimal_truncation(alpha)))

    def ledger_check(rep):
        row = rep.by_identity("S1' = -(1/3)(1-2+3-4+...)")
        ok = (row.rule_a, row.rule_b, row.clash, len(rep.clashes)) == (
            Fraction(-1, 6), Fraction(-1, 12), True, 1)
        return None if ok else f"S1' row {row}, {len(rep.clashes)} clashes"
    tasks.append(Task("inconsistency_ledger", ledger_check, call=lambda: su.inconsistency_ledger()))

    for n in (round(_jitter(rng, 2000, 0.1, 1000, 100000)),
              round(_jitter(rng, 10000, 0.1, 1000, 100000)), 50000):
        ref = oracles.cesaro_grandi(n)
        tasks.append(Task(f"cesaro_sum[grandi,n={n}]",
                          lambda o, ref=ref: _first(o.verdict != "finite" and f"verdict {o.verdict}",
                                                    o.verdict == "finite" and _rel_close(o.value, ref, 1e-12)),
                          call=lambda n=n: su.cesaro_sum(se.get_series("grandi"), n)))

    for s in (0, -1, -rng.randint(2, 6), -8):  # range ends always run
        key = "grandi" if s == 0 else f"alt-zeta:{s}"
        ref = oracles.altzeta(s)
        tasks.append(Task(f"abel_sum[{key}]",
                          lambda o, ref=ref: _first(o.verdict != "finite" and f"verdict {o.verdict}",
                                                    o.verdict == "finite" and _abs_close(o.value, ref, 1e-8)),
                          call=lambda key=key: su.abel_sum(se.get_series(key))))

    for s in (2, -1, -rng.randint(2, 6), -8):
        ref = oracles.zeta(s)
        tol = 1e-8 * max(1.0, abs(ref))
        tasks.append(Task(f"zeta_via_eta[{s}]",
                          lambda o, ref=ref, tol=tol: _first(
                              o.verdict != "finite" and f"verdict {o.verdict}",
                              o.verdict == "finite" and _abs_close(o.value, ref, tol)),
                          call=lambda s=s: su.zeta_via_eta(s)))

    for s in (rng.randint(0, 4), rng.randint(5, 12)):
        ref = oracles.zeta_constant(s)
        tasks.append(Task(f"ramanujan_monomial[{s}]",
                          lambda v, ref=ref: None if v == ref else f"{v} != {ref}",
                          call=lambda s=s: su.ramanujan_monomial(s)))
    return tasks


# --- cli-calls --------------------------------------------------------------------


def _parse(fmt: str, text: str):
    """JSON: the ``result`` object.  CSV: the data rows as dicts of strings."""
    if fmt == "json":
        return json.loads(text)["result"]
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _num(v) -> float:
    return float(Fraction(v)) if isinstance(v, str) else float(v)


def _value(fmt, res, key="value"):
    return res[key] if fmt == "json" else res[0][key]


def _cli_examples(rng: random.Random):
    """(argv, check(fmt, parsed)) for every README example, parameters seeded."""
    ex = []

    k = rng.randint(2, 60)
    ref_b = oracles.bernoulli(k)
    ex.append((["bernoulli", "--k", str(k)],
               lambda f, r, ref=ref_b: None if Fraction(_value(f, r)) == ref else "wrong B_k"))

    s, N = rng.randint(0, 10), rng.randint(1, 1000)
    ref_f = oracles.power_sum(s, N)
    ex.append((["faulhaber", "--s", str(s), "--N", str(N)],
               lambda f, r, ref=ref_f: None if Fraction(_value(f, r)) == ref else "wrong power sum"))

    def verdict_value(f, r):
        verdict = r["verdict"] if f == "json" else r[0]["verdict"]
        return verdict, (_value(f, r) if verdict == "finite" else None)

    def sum_check(ref, tol):
        def check(f, r):
            verdict, v = verdict_value(f, r)
            return _first(verdict != "finite" and f"verdict {verdict}",
                          v is not None and _abs_close(_num(v), ref, tol))
        return check

    key = rng.choice(["grandi", "alt-zeta:0", "alt-zeta:-1", "alt-zeta:-2", "alt-zeta:-3"])
    ex.append((["sum", "--method", "abel", "--series", key],
               sum_check(oracles.altzeta(0 if key == "grandi" else int(key.split(":")[1])), 1e-8)))

    n = rng.randint(1000, 20000)
    ex.append((["sum", "--method", "cesaro", "--series", "grandi", "--n", str(n)],
               sum_check(oracles.cesaro_grandi(n), 1e-12)))

    s = rng.randint(0, 9)
    key = {0: "S0", 1: "S1"}.get(s, f"monomial:{s}")
    ref_r = oracles.zeta_constant(s)
    ex.append((["sum", "--method", "ramanujan", "--series", key],
               lambda f, r, ref=ref_r: None if Fraction(verdict_value(f, r)[1]) == ref else "wrong value"))

    s = -rng.randint(1, 7)
    ref_z = oracles.zeta(s)
    ex.append((["sum", "--method", "zeta-eta", "--series", f"alt-zeta:{s}"],
               sum_check(ref_z, 1e-8 * max(1.0, abs(ref_z)))))

    def ledger_check(f, r):
        if f == "json":
            rows, clashes = r["rows"], r["clash_count"]
            clash = lambda row: row["clash"]
        else:
            rows = r
            clash = lambda row: row["clash"] == "True"
            clashes = sum(clash(row) for row in rows)
        row = next(row for row in rows if row["identity"].startswith("S1'"))
        ok = (Fraction(row["rule_a"]), Fraction(row["rule_b"]), clash(row), clashes) == (
            Fraction(-1, 6), Fraction(-1, 12), True, 1)
        return None if ok else f"ledger row {row}, {clashes} clashes"
    ex.append((["ledger"], ledger_check))

    s, N = rng.randint(0, 3), rng.randint(500, 5000)
    cut = rng.choice(["bump", f"poly:{rng.randint(1, 6)}"])
    ref_s = oracles.smoothed_sum(s, cut, N)
    ex.append((["smoothed", "--s", str(s), "--cutoff", cut, "--N", str(N)],
               lambda f, r, ref=ref_s: _rel_close(_num(_value(f, r)), ref, 1e-10)))

    s = rng.randint(0, 1)
    base = rng.uniform(100, 120)
    grid = ",".join(f"{base * 2**i:.3f}" for i in range(5))
    ref_c = float(oracles.zeta_constant(s))

    def extract_check(f, r, ref=ref_c):
        if f == "json":
            return _first(_rel_close(r["constant"], ref, 1e-2, "constant"),
                          r["rate_exponent"] > -0.9 and f"rate {r['rate_exponent']:.3g} > -0.9")
        xs = [math.log(float(row["N"])) for row in r]
        ys = [math.log(max(float(row["residual"]), 1e-300)) for row in r]
        mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
        slope = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                 / sum((x - mx) ** 2 for x in xs))
        return None if slope <= -0.9 else f"residual decay rate {slope:.3g} > -0.9"
    ex.append((["extract", "--s", str(s), "--cutoff", "bump", "--grid", grid], extract_check))

    N = rng.randint(10**4, 10**5)
    ref_g = oracles.grandi_smoothed("bump", N)
    ex.append((["grandi", "--cutoff", "bump", "--N", str(N)],
               lambda f, r, ref=ref_g: _first(_abs_close(_num(_value(f, r)), 0.5, 2e-4, "Grandi"),
                                            _abs_close(_num(_value(f, r)), ref, 1e-10))))

    p, N = rng.randint(1, 4), rng.randint(2, 200)
    ex.append((["scaling-demo", "--cutoff", f"poly:{p}", "--N", str(N)],
               _scaling_check(f"poly:{p}", N)))

    j, fn = rng.randint(100, 400), rng.choice(["centered", "offset"])
    ref_d = oracles.delta_pairing(j, fn)
    ex.append((["delta-seq", "--j", str(j), "--testfn", fn],
               lambda f, r, ref=ref_d: _abs_close(_num(_value(f, r)), ref, 1e-9, "pairing")))

    s, N = rng.randint(1, 3), rng.randint(60, 200)
    ref_lhs, ref_series = oracles.em_tail_lhs(s, "bump", N), float(oracles.bernoulli(s + 1) / (s + 1))
    tol = 1e-9 + 1e-14 * N ** (s + 1)

    def em_tail_check(f, r, ref_lhs=ref_lhs, ref_series=ref_series, tol=tol):
        row = r if f == "json" else r[0]
        return _first(_abs_close(_num(row["series"]), ref_series, 1e-15, "series"),
                      _abs_close(_num(row["lhs"]), ref_lhs, tol, "lhs"))
    ex.append((["em-tail", "--s", str(s), "--cutoff", "bump", "--N", str(N)], em_tail_check))

    n, T, table = rng.randint(5, 30), rng.randint(1, 4), rng.random() < 0.5
    ns = range(2, n + 1) if table else [n]
    ref_rows = {m: (oracles.stirling_g(m), oracles.stirling_gap(m, T),
                    oracles.stirling_bound(m, T), sum(oracles.stirling_terms(m, T))) for m in ns}

    def stirling_check(f, r, ref_rows=ref_rows):
        rows = r["rows"] if f == "json" else r
        if sorted(int(row["n"]) for row in rows) != sorted(ref_rows):
            return "wrong set of rows"
        for row in rows:
            g, gap, bound, series = ref_rows[int(row["n"])]
            msg = _first(gap > bound and "reference gap above the bound",
                         _rel_close(_num(row["g"]), g, 1e-12, "g"),
                         _rel_close(_num(row["value"]), float(series), 1e-14, "series value"),
                         _rel_close(_num(row["bound"]), float(bound), 1e-14, "bound"))
            if msg:
                return f"n={row['n']}: {msg}"
        return None
    argv = ["stirling", "--n", str(n), "--terms", str(T)] + (["--table"] if table else [])
    ex.append((argv, stirling_check))

    n = rng.randint(1, 4)
    m_star, terms = oracles.divergence_onset(n, 4 * n + 10)

    def diverge_check(f, r, m_star=m_star, terms=terms):
        got = ([Fraction(t) for t in r["terms"]] if f == "json"
               else [Fraction(row["term"]) for row in r])
        if f == "json" and r["m_star"] != m_star:
            return f"m* = {r['m_star']}, expected {m_star}"
        return None if got == terms else "terms differ"
    ex.append((["em-diverge", "--n", str(n), "--max-terms", str(4 * n + 10)], diverge_check))

    d, N = float(f"{math.exp(rng.uniform(math.log(1e-7), math.log(2e-6))):.6e}"), rng.choice([400, 800])
    cut, lam = rng.choice(["bump", f"poly:{rng.randint(6, 8)}"]), round(rng.uniform(0.5, 2.0), 6)
    tol = oracles.casimir_tolerance(N)

    def casimir_check(f, r, d=d, N=N, tol=tol):
        if f == "json":
            return _first(_rel_close(r["limit"], oracles.energy_density(d), tol, "energy"),
                          _rel_close(r["closed_form"], oracles.energy_density(d), 1e-12, "closed form"),
                          _rel_close(r["u_t"], oracles.CASIMIR_LIMIT, tol, "u_t"))
        last = max(r, key=lambda row: float(row["N"]))
        return _rel_close(float(last["value"]), oracles.CASIMIR_LIMIT, tol, "u_t")
    ex.append((["casimir", "--d", repr(d), "--N", str(N), "--cutoff", cut, "--lambda", repr(lam)],
               casimir_check))

    d2, N2 = float(f"{math.exp(rng.uniform(math.log(1e-7), math.log(2e-6))):.6e}"), rng.choice([800, 1600])
    ref_force = oracles.casimir_force(d2)
    ex.append((["casimir-force", "--d", repr(d2), "--N", str(N2)],
               lambda f, r, ref=ref_force: _rel_close(_num(_value(f, r, "force")), ref, 0.01, "force")))

    q = rng.randint(20, 300)

    def truncate_check(f, r, q=q):
        n_star = r["n_star"] if f == "json" else len(r) - 5
        return None if n_star == q else f"N* = {n_star}, expected {q}"
    ex.append((["truncate", "--alpha", f"1/{q}"], truncate_check))

    x = round(rng.uniform(0.05, 0.5), 6)
    ref_borel = oracles.borel_euler(x)
    ex.append((["borel", "--coeffs", "euler", "--x", str(x)],
               lambda f, r, ref=ref_borel: _abs_close(_num(_value(f, r)), ref, 1e-6)))

    alpha, order = round(rng.uniform(1e-3, 1e-2), 10), rng.randint(1, 2)
    ref_gyro = oracles.gyro(alpha, order)
    ex.append((["gyro", "--alpha", str(alpha), "--order", str(order)],
               lambda f, r, ref=ref_gyro: _rel_close(_num(_value(f, r)), ref, 1e-12)))

    beta, n = round(rng.uniform(0.3, 0.9), 6), rng.randint(1, 3)
    hs = [1e-2, 1e-3, 1e-4, 1e-5, 1e-6]
    refs = [oracles.flat_probe(beta, n, h) for h in hs]

    def flat_check(f, r, refs=refs):
        probes = r["probes"] if f == "json" else [float(row["probe"]) for row in r]
        for got, (ref, scale) in zip(probes, refs):
            msg = _abs_close(float(got), ref, 1e-12 * scale + 1e-300, "probe")
            if msg:
                return msg
        return None if len(probes) == len(refs) else "wrong number of probes"
    ex.append((["flat-check", "--beta", str(beta), "--n", str(n)], flat_check))
    return ex


def _scaling_check(cut: str, N: float):
    lhs_ref = oracles.smoothed_sum(1, cut, N, step=2)
    rhs_ref = 2.0 * oracles.smoothed_sum(1, cut, N)
    gap = abs(lhs_ref - rhs_ref)
    threshold = 1e-12 * max(1.0, abs(rhs_ref))
    clear = gap > 10 * threshold or gap < threshold / 10

    def check(f, r):
        row = r if f == "json" else r[0]
        differ = row["differ"] if f == "json" else row["differ"] == "True"
        return _first(_abs_close(_num(row["lhs"]), lhs_ref, 1e-10 * max(1.0, abs(lhs_ref)), "lhs"),
                      _abs_close(_num(row["rhs"]), rhs_ref, 1e-10 * max(1.0, abs(rhs_ref)), "rhs"),
                      clear and differ != (gap > threshold) and f"differ = {differ}")
    return check


def _cli_heavy(rng: random.Random):
    """The cold Bernoulli fill and the N = 1e7 array sums, each with a seeded variant.

    Run in both formats they make 12 of the heaviest calls, so the tail
    percentile, which has at least 10 tasks beyond it, lands among them.
    """
    ex = []
    for k in (400, rng.randrange(390, 412, 2)):
        ref = oracles.bernoulli(k)
        ex.append((["bernoulli", "--k", str(k)],
                   lambda f, r, ref=ref: None if Fraction(_value(f, r)) == ref else "wrong B_k"))
    N = 1e7
    for s in (0, 1):
        cut = rng.choice(["bump", f"poly:{rng.randint(1, 6)}"])
        ref_s = oracles.smoothed_sum(s, cut, N)
        ex.append((["smoothed", "--s", str(s), "--cutoff", cut, "--N", "1e7"],
                   lambda f, r, ref=ref_s: _rel_close(_num(_value(f, r)), ref, 1e-10)))
    ref_g = oracles.grandi_smoothed("bump", N)
    ex.append((["grandi", "--cutoff", "bump", "--N", "1e7"],
               lambda f, r, ref=ref_g: _first(_abs_close(_num(_value(f, r)), 0.5, 2e-4, "Grandi"),
                                            _abs_close(_num(_value(f, r)), ref, 1e-10))))
    cut = rng.choice(["bump", f"poly:{rng.randint(1, 6)}"])
    ex.append((["scaling-demo", "--cutoff", cut, "--N", "1e7"], _scaling_check(cut, N)))
    return ex


def cli_calls(rng: random.Random):
    return [Task(f"{fmt}:{' '.join(argv)}", _cli_check(fmt, check), argv=["--format", fmt] + argv)
            for argv, check in _cli_examples(rng) + _cli_heavy(rng)
            for fmt in ("json", "csv")]


def _cli_check(fmt, check):
    return lambda stdout: check(fmt, _parse(fmt, stdout))


def library(rng: random.Random):
    """The plate sweep, then the exact extraction, in one pass of library calls."""
    return plate_sweep(rng) + exact_extract(rng)


WORKLOADS = {
    "library": library,
    "cli-calls": cli_calls,
}

# modules each workload imports; setup_s times importing them in a fresh interpreter
SETUP_IMPORTS = {
    "library": "summa, summa.casimir, summa.euler_maclaurin, summa.asymptotics",
    "cli-calls": "summa, summa.cli",
}
