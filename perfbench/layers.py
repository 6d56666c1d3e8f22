"""Which package functions the traced run times, and the per-layer metrics.

Layer names are the package's module names: primes, characters, bounds,
scan, lemmas, rounding.  Each wrapper sits on the attribute its caller
looks up (see tracer.py); a function a later version removes simply reads
as zero.
"""

from __future__ import annotations

import os
import statistics

from tracer import Tracer

# lemma name in the verify report -> sweep function run_verification calls
SWEEPS = {
    "stirling": "sweep_stirling",
    "totient": "sweep_totient",
    "convexity": "sweep_convexity",
    "s-upper": "sweep_s_upper",
    "disjointness": "sweep_disjointness",
    "proposition": "sweep_proposition",
    "sum-chi": "sweep_shifted_sum",
}
ROUNDING = ("lower_fraction", "upper_fraction", "iv_from_fraction")


def install(tr: Tracer) -> None:
    """Put the timing wrappers in place on the imported package."""
    from nonresidues import bounds as bd
    from nonresidues import characters as ch
    from nonresidues import lemmas as lm
    from nonresidues import primes as pr
    from nonresidues import rounding as rd
    from nonresidues import scan as sc

    def sieved(args, kwargs, result):
        lo, hi = args[:2]
        tr.count("primes.sieved_ints", max(0, hi - lo + 1))

    def found(args, kwargs, result):
        tr.count("characters.nonresidues_found", len(result))

    def committed(args, kwargs, result):
        tr.count("scan.checkpoint_bytes", os.path.getsize(args[0]))

    def instances(lemma):
        return lambda args, kwargs, report: tr.count(
            f"lemmas.{lemma}.instances", report.instances_run)

    tr.wrap(pr, "primes_in_range", "primes.range_sieve", on_call=sieved)
    tr.wrap(pr, "iter_primes", "primes.prime_streams", leaf=True)
    tr.wrap(pr, "factorize", "primes.factorize")
    for mod in (ch, sc, lm):
        tr.wrap(mod, "prime_nonresidues", "characters.nonresidues",
                keep_durations=True, on_call=found)
    tr.wrap(ch, "is_kernel", "characters.kernel_tests", leaf=True)
    tr.wrap(ch.CharacterSpec, "value_table", "characters.value_table")
    for mod in (bd, sc):
        tr.wrap(mod, "compute_g", "bounds.compute_g")
    tr.wrap(sc, "run_scan", "scan.run")
    # shard compute is its own span so that it is not counted as run_scan's
    # own (other) time
    tr.wrap(sc, "_compute_shard", "scan.shard")
    tr.wrap(sc, "_bound_ok", "scan.bound_check", leaf=True)
    tr.wrap(sc.ScanRecord, "to_jsonl", "scan.serialize", leaf=True)
    tr.wrap(sc.Aggregate, "add", "scan.aggregate", leaf=True)
    tr.wrap(sc.ScanTask, "task_hash", "scan.task_hash", leaf=True)
    tr.wrap(sc, "_write_checkpoint", "scan.checkpoint", on_call=committed)
    for lemma, fn in SWEEPS.items():
        tr.wrap(lm, fn, f"lemmas.{lemma}", on_call=instances(lemma))
    tr.wrap(lm, "check_S_upper", "lemmas.check_S_upper")
    tr.wrap(lm, "_sum_S_multi", "lemmas.window_sum")
    for fn in ROUNDING:  # lemmas imports these by name; others call rounding.*
        for mod in (lm, rd):
            tr.wrap(mod, fn, f"rounding.{fn}", leaf=True)


def _percentile_us(durations: list[float], pct: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e6
    return statistics.quantiles(durations, n=100, method="inclusive")[pct - 1] * 1e6


def snapshot(tr: Tracer) -> dict[str, float]:
    """Per-layer numbers of one traced job (names as in BENCHMARK.json)."""
    st, ct = tr.stat, tr.counters
    m: dict[str, float] = {}
    for name in ("primes.range_sieve", "primes.factorize", "bounds.compute_g",
                 *(f"rounding.{fn}" for fn in ROUNDING)):
        m[f"{name}.calls"] = st(name).calls
        m[f"{name}.self_s"] = st(name).self_s
    m["primes.sieved_ints"] = ct.get("primes.sieved_ints", 0)
    m["primes.prime_streams"] = st("primes.prime_streams").calls

    nr = st("characters.nonresidues")
    tests = st("characters.kernel_tests").calls
    m["characters.nonresidues.calls"] = nr.calls
    m["characters.nonresidues.self_s"] = nr.self_s
    m["characters.nonresidues.p50_us"] = _percentile_us(nr.durations, 50)
    m["characters.nonresidues.p99_us"] = _percentile_us(nr.durations, 99)
    m["characters.kernel_tests"] = tests
    m["characters.nonresidue_yield"] = (
        ct.get("characters.nonresidues_found", 0) / tests if tests else 0.0)
    m["characters.value_table.self_s"] = st("characters.value_table").self_s

    m["scan.serialize.self_s"] = st("scan.serialize").self_s
    m["scan.aggregate.self_s"] = st("scan.aggregate").self_s
    m["scan.bound_check.self_s"] = st("scan.bound_check").self_s
    m["scan.task_hash.calls"] = st("scan.task_hash").calls
    m["scan.checkpoint.commits"] = st("scan.checkpoint").calls
    m["scan.checkpoint_bytes"] = ct.get("scan.checkpoint_bytes", 0)
    m["scan.other_self_s"] = st("scan.run").self_s

    for lemma in SWEEPS:
        m[f"lemmas.{lemma}.wall_s"] = st(f"lemmas.{lemma}").total_s
        m[f"lemmas.{lemma}.instances"] = ct.get(f"lemmas.{lemma}.instances", 0)
    m["lemmas.check_S_upper.self_s"] = st("lemmas.check_S_upper").self_s
    m["lemmas.window_sum.self_s"] = st("lemmas.window_sum").self_s
    return m
