"""The benchmark's workloads: inputs from a seed, one job, and its checks.

Every workload is a closed loop with a single caller: one job runs to
completion before the next starts.  The seed only picks inputs; work per
job stays comparable across seeds.

This module does not import the package at load time, so the set-up probe
can time that import itself.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass

import check

VERIFY_GRID = {
    "stirling_r_max": 120,
    "totient_x_max": 120,
    "convexity_h_max": 40,
    "convexity_r_max": 40,
    "s_upper_p_max": 37,
    "s_upper_h_max": 8,
    "s_upper_r_max": 6,
    "disjoint_trials": 16,
    "disjoint_p_max": 10**4,
    "proposition_instances": 16,
    "proposition_p_limit": 10**4,
    "shifted_p_limit": 200,
    "shifted_max_instances": 30,
}


@dataclass
class JobResult:
    digest: str      # hash of every deterministic output byte
    attempted: int   # records or lemma instances
    failed: int      # violations, cap exhaustions or failed instances
    output: dict     # what the checks read


@dataclass(frozen=True)
class ScanWorkload:
    name: str
    base: int             # p_lo before the seed offset
    width: int            # primes scanned lie in [p_lo, p_lo + width)
    d_max: int | None     # None: quadratic policy; else orders d <= d_max
    n_max: int
    p0: float
    shard_width: int
    workers: int
    kind: str = "scan"

    def inputs(self, seed: int) -> dict:
        # shift p_lo by less than a quarter of the width, so that ranges of
        # different seeds share most of their primes and cost about the same
        p_lo = self.base + (seed * 7919) % (self.width // 4)
        return {"p_lo": p_lo, "p_hi": p_lo + self.width - 1}

    def build(self, inputs: dict):
        from nonresidues import scan as sc

        policy = (sc.OrderPolicy.quadratic() if self.d_max is None
                  else sc.OrderPolicy.divisors_up_to(self.d_max))
        return sc.ScanTask.make(inputs["p_lo"], inputs["p_hi"], policy=policy,
                                n_max=self.n_max, n0=self.n_max, p0=self.p0,
                                shard_width=self.shard_width)

    def execute(self, task, workers: int, workdir: str):
        """One scan with records and a checkpoint; returns its summary."""
        from nonresidues import scan as sc

        ckpt = os.path.join(workdir, "checkpoint.json")
        if os.path.exists(ckpt):
            os.remove(ckpt)
        return sc.run_scan(task, out_path=os.path.join(workdir, "records.jsonl"),
                           workers=workers, checkpoint_path=ckpt,
                           raise_on_violation=False)

    def collect(self, summary, workdir: str) -> JobResult:
        with open(os.path.join(workdir, "records.jsonl"), "rb") as fh:
            records = fh.read()
        summary_json = summary.to_json()
        agg = summary.aggregate
        return JobResult(
            digest=hashlib.sha256(records + b"\0" + summary_json.encode()).hexdigest(),
            attempted=agg.records,
            failed=agg.violations + agg.cap_exhausted,
            output={"records": records, "summary": json.loads(summary_json)},
        )

    def check(self, result: JobResult, task) -> list[str]:
        return check.check_scan(result.output["records"].decode().splitlines(),
                                result.output["summary"],
                                task.p_lo, task.p_hi, self.d_max, self.n_max, task.c)


@dataclass(frozen=True)
class VerifyWorkload:
    name: str
    grid: dict
    # (instances_run, vacuous_skips) of the construction sweeps on `grid`,
    # which have no closed form; they do not depend on the seed
    frozen_counts: dict
    workers: int = 1
    kind: str = "verify"

    def inputs(self, seed: int) -> dict:
        return dict(self.grid, seed=seed)

    def build(self, inputs: dict):
        from nonresidues import lemmas as lm

        return lm.VerifyConfig(**inputs)

    def execute(self, cfg, workers: int, workdir: str) -> dict:
        """One verification run; returns its report."""
        from nonresidues import lemmas as lm

        return lm.run_verification(config=cfg)

    def collect(self, report: dict, workdir: str) -> JobResult:
        reps = report["lemmas"].values()
        return JobResult(
            digest=check.verify_digest(report),
            attempted=sum(r["instances_run"] for r in reps),
            failed=sum(r["failures"] for r in reps),
            output={"report": report},
        )

    def check(self, result: JobResult, cfg) -> list[str]:
        return check.check_verify(result.output["report"], cfg.to_json_obj(),
                                  self.frozen_counts)


def to_json(wl) -> str:
    """The workload's definition, for handing to a fresh interpreter."""
    return json.dumps(dataclasses.asdict(wl))


def from_json(text: str):
    fields = json.loads(text)
    return (ScanWorkload if fields["kind"] == "scan" else VerifyWorkload)(**fields)


def max_workers() -> int:
    return min(2, len(os.sched_getaffinity(0)))


WORKLOADS = {
    w.name: w
    for w in (
        ScanWorkload("scan-quadratic", base=10**7, width=2 * 10**5, d_max=None,
                     n_max=1, p0=1e7, shard_width=10_000, workers=1),
        ScanWorkload("scan-orders", base=10**12, width=10**4, d_max=12,
                     n_max=3, p0=1e12, shard_width=1_000, workers=max_workers()),
        VerifyWorkload("verify-small", grid=VERIFY_GRID,
                       frozen_counts={"proposition": (16, 0), "sum-chi": (50, 18)}),
    )
}
