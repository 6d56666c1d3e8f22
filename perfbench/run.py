"""Benchmark of the nonresidues package: scans and lemma verification.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout; the package is imported from its src/.
Each run first computes a 1-worker reference of the job and checks it
against the independent checks in check.py; every later job must then
reproduce the reference byte for byte.

--trace 0 repeats the job at the workload's worker count for S seconds,
with a fixed reference job (reference.py) before the first job and after
each one, and reports the end-to-end metrics: each job's time over the
mean time of the reference jobs on either side of it (median over the
jobs), plus set-up time and peak memory from fresh interpreters
(setup_probe.py).  The jobs' own wall and CPU times are printed as well.

--trace 1 interleaves untraced 1-worker jobs, traced 1-worker jobs and
(scans only) untraced 2-worker jobs for S seconds, and reports the
per-layer metrics (medians over the traced jobs) and the tracing
overhead.  The spans of the last traced job go to
.perfbench_out/spans-WORKLOAD-seedN.jsonl.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when every
output check passed, 1 when one failed and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SPEC_PATH = ROOT / "BENCHMARK.json"

MIN_ROUNDS = 3        # rounds of timed jobs, even past the time budget
MAX_ROUNDS = 400
SETUP_PROBES = 9      # fresh interpreters timed for setup_s


@dataclass
class Tally:
    """Operations attempted and failed, and the problems behind failures."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, res, ref_digest: str, what: str) -> None:
        self.attempted += res.attempted
        self.failed += res.failed
        if res.failed:
            self.problems.append(f"{what}: {res.failed} failed operations")
        if res.digest != ref_digest:
            self.failed += res.attempted
            self.problems.append(f"{what}: output differs from the 1-worker reference")


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def run_rounds(wl, inputs, built, arms, workdir, seconds, ref_digest, tally,
               speed_probe=False):
    """Run one job per arm, round after round, for `seconds` (at least MIN_ROUNDS rounds).

    Arms are (label, workers, traced); interleaving them exposes every arm
    to the same drift in machine speed.  A traced job gets a fresh Tracer
    whose wrappers are in place only for that job, and re-creates the task
    inside the traced region so that set-up calls (compute_g) count.

    With speed_probe, a reference job runs before the first job and after
    each one; a sample then also holds ref_wall_s and ref_cpu_s, the mean
    times of the reference jobs on either side of it.

    Returns ({label: samples}, the last Tracer).  A sample holds wall_s,
    cpu_s (parent plus reaped workers), parent_cpu_s and, when traced, the
    per-layer snapshot.
    """
    import layers
    import reference
    from tracer import Tracer

    samples = {label: [] for label, _, _ in arms}
    tr = None
    before = reference.timed() if speed_probe else None
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or (time.perf_counter() < deadline and rounds < MAX_ROUNDS):
        rounds += 1
        # alternate the order, so that no arm always runs right after another
        for label, workers, traced in (arms if rounds % 2 else arms[::-1]):
            job = built
            if traced:
                tr = Tracer()
                layers.install(tr)
            try:
                if traced:
                    job = wl.build(inputs)
                c0, k0, t0 = time.process_time(), children_cpu(), time.perf_counter()
                raw = wl.execute(job, workers, workdir)
                t1, c1, k1 = time.perf_counter(), time.process_time(), children_cpu()
            finally:
                if traced:
                    tr.unwrap_all()
            sample = {"wall_s": t1 - t0, "cpu_s": (c1 - c0) + (k1 - k0),
                      "parent_cpu_s": c1 - c0}
            if traced:
                sample["layers"] = layers.snapshot(tr)
            if speed_probe:
                after = reference.timed()
                sample["ref_wall_s"] = (before[0] + after[0]) / 2
                sample["ref_cpu_s"] = (before[1] + after[1]) / 2
                before = after
            tally.add(wl.collect(raw, workdir), ref_digest, label)
            samples[label].append(sample)
    return samples, tr


def median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def median_ratio(samples, key, ref_key):
    return statistics.median(s[key] / s[ref_key] for s in samples)


def setup_probes(wl, seed, workdir, ref_digest, tally):
    """setup_s samples from fresh interpreters, and peak RSS from one job."""
    import workloads

    probe = str(Path(__file__).resolve().parent / "setup_probe.py")
    setups, rss_mb = [], None
    for i in range(SETUP_PROBES + 1):
        cmd = [sys.executable, probe, workloads.to_json(wl), str(seed)]
        if i == 0:
            cmd += ["--job", workdir]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            tally.failed += 1
            tally.problems.append(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
            continue
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if i == 0:
            rss_mb = max(out["maxrss_kb"], out["children_maxrss_kb"]) / 1024
            if out["digest"] != ref_digest:
                tally.failed += 1
                tally.problems.append("fresh-interpreter job differs from the reference")
        else:
            setups.append(out["setup_s"])
    return setups, rss_mb


def provenance(wl) -> dict:
    """What produced a result: code version, library versions, machine."""
    import mpmath
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "nonresidues").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "workers": wl.workers,
        "machine": platform.machine(),
    }


def untraced(wl, seed, seconds, inputs, built, ref, workdir, tally):
    arm = f"{wl.workers}-worker job"
    jobs = run_rounds(wl, inputs, built, [(arm, wl.workers, False)], workdir, seconds,
                      ref.digest, tally, speed_probe=True)[0][arm]
    setups, rss_mb = setup_probes(wl, seed, workdir, ref.digest, tally)
    n = len(jobs)
    metrics = {
        "wall_ref": (median_ratio(jobs, "wall_s", "ref_wall_s"), n),
        "cpu_ref": (median_ratio(jobs, "cpu_s", "ref_cpu_s"), n),
        "setup_s": (statistics.median(setups) if setups else 0.0, len(setups)),
        "peak_rss_mb": (rss_mb or 0.0, 1),
        # the jobs' own times, printed but not compared: they carry the drift
        # in machine speed that the ratios above cancel
        "wall_s": (median_of(jobs, "wall_s"), n),
        "cpu_s": (median_of(jobs, "cpu_s"), n),
        "reference_s": (median_of(jobs, "ref_wall_s"), n),
    }
    return metrics, {"jobs": jobs, "setup_s": setups}


def traced(wl, seed, seconds, inputs, built, ref, workdir, tally):
    import workloads

    k = workloads.max_workers()
    arms = [("1-worker job", 1, False), ("traced job", 1, True)]
    if wl.kind == "scan":
        arms.append((f"{k}-worker job", k, False))
    jobs, tr = run_rounds(wl, inputs, built, arms, workdir, seconds, ref.digest, tally)
    plain, traced_jobs = jobs["1-worker job"], jobs["traced job"]
    pooled = jobs.get(f"{k}-worker job", [])
    OUT_DIR.mkdir(exist_ok=True)
    tr.dump_spans(str(OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl"))

    n = len(traced_jobs)
    metrics = {name: (statistics.median(j["layers"][name] for j in traced_jobs), n)
               for name in traced_jobs[0]["layers"]}
    wall_1 = median_of(plain, "wall_s")
    metrics["scan.record_bytes"] = (len(ref.output.get("records", b"")), 1)
    metrics["scan.parent_cpu_s"] = (
        median_of(pooled, "parent_cpu_s") if pooled else 0.0, len(pooled))
    metrics["scan.pool.scaling_eff"] = (
        wall_1 / (k * median_of(pooled, "wall_s")) if pooled else 0.0, len(pooled))
    # pair each traced job with the untraced one of its round, so that drift
    # in machine speed between rounds cancels
    metrics["trace.overhead_frac"] = (statistics.median(
        t["wall_s"] / p["wall_s"] for t, p in zip(traced_jobs, plain)) - 1, n)
    if tr.missing:
        print(f"note: not in this version, read as 0: {', '.join(tr.missing)}",
              file=sys.stderr)
    return metrics, {label: [{key: v for key, v in j.items() if key != "layers"}
                             for j in js] for label, js in jobs.items()}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_one(wl, seed, seconds, trace, spec) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT_DIR)
    tally = Tally()
    try:
        inputs = wl.inputs(seed)
        built = wl.build(inputs)
        ref = wl.collect(wl.execute(built, 1, workdir), workdir)  # reference, warm-up
        tally.attempted += ref.attempted
        tally.failed += ref.failed
        found = wl.check(ref, built)
        tally.failed += len(found)
        tally.problems += found
        run = traced if trace else untraced
        metrics, samples = run(wl, seed, seconds, inputs, built, ref, workdir, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    also = {} if trace else {k: {"value": v, "unit": "s", "samples": n}
                             for k, (v, n) in metrics.items() if k not in wanted}
    return {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "inputs": inputs, "reference_digest": ref.digest,
        "provenance": provenance(wl),
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems[:20],
        "metrics": {k: {"value": metrics[k][0], "unit": unit, "samples": metrics[k][1]}
                    for k, unit in wanted.items()},
        "also": also,
        "samples": samples,
    }


def report(result) -> None:
    """Human-readable lines; the caller prints the JSON line after them."""
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']} "
          f"provenance={json.dumps(result['provenance'], sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"{result['workload']:>15} {name:<38} {m['value']:>14.6g} {m['unit']:<6} "
              f"(n={m['samples']})")
    if result["also"]:
        print(f"{result['workload']:>15} not compared: " + ", ".join(
            f"{k} {m['value']:.6g} {m['unit']} (n={m['samples']})"
            for k, m in result["also"].items()))
    frac = result["failed"] / max(1, result["attempted"])
    print(f"{result['workload']:>15} failed/attempted = {result['failed']}/"
          f"{result['attempted']} = {frac:.6g}   correct={result['correct']}")
    for p in result["problems"]:
        print(f"PROBLEM: {p}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SPEC_PATH.is_file() and (SRC / "nonresidues" / "__init__.py").is_file()):
        print(f"error: {ROOT} needs BENCHMARK.json and src/nonresidues; "
              f"run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nonresidues

    if Path(nonresidues.__file__).resolve().parent != (SRC / "nonresidues").resolve():
        print(f"error: imported {nonresidues.__file__}, not the checkout's", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names) or args.seconds <= 0:
        print(f"error: unknown workload {args.workload!r}; choose one of "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    correct = True
    for name in names:
        res = run_one(WORKLOADS[name], args.seed, args.seconds, args.trace, spec)
        (OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(res, indent=1, sort_keys=True))
        report(res)
        print(json.dumps({
            "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in res["metrics"].items()},
        }), flush=True)
        correct = correct and res["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
