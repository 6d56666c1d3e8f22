"""Empirical verification of the frozen nonresidue bound over prime ranges.

A scan fixes a reference constant C = g(n0, p0) and walks all primes p in
[p_lo, p_hi] (p_lo >= p0), computing for each character order d the list
q_1 < ... < q_{n_max} of smallest prime nonresidues, the normalized ratios
q_n / (p^(1/4) (log p)^((n+1)/2)), and whether q_n <= C p^(1/4)
(log p)^((n+1)/2).  The bound is a theorem on this range, so any violation
means an implementation bug; the scanner halts on one by default, with a
reproducer.

Determinism is a hard requirement: the prime range is split into
fixed-width shards, each shard is processed independently (segmented sieve,
then per-prime kernel tests), and shard outputs are written in shard order.
The record stream and the summary are byte-identical for any worker count,
and a checkpointed run resumed from interruption reproduces the
uninterrupted output exactly (the checkpoint stores the output byte
offset, and resume truncates back to it).

Border arithmetic: ratios are stored as doubles, but the bound decision
compares the exact integer q_n against a two-sided float enclosure of the
bound, falling back to high-precision arithmetic when q_n lands between
the endpoints.  Rounding can therefore never manufacture a violation.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import mpmath

from . import primes as pr
from .bounds import bound_shape, compute_g, reference_validity
from .characters import SearchCapExceededError, prime_nonresidues

__all__ = [
    "Aggregate",
    "OrderPolicy",
    "ScanRecord",
    "ScanSummary",
    "ScanViolationError",
    "TaskMismatchError",
    "ScanTask",
    "run_scan",
    "scan_records",
]

CHECKPOINT_VERSION = 1
DEFAULT_SHARD_WIDTH = 10_000


class ScanViolationError(AssertionError):
    """A record violated the frozen bound: reproducer for a package bug."""

    def __init__(self, record: "ScanRecord", c: float):
        self.record = record
        super().__init__(
            f"bound violated at p={record.p}, d={record.d}: q={record.q} "
            f"with C={c}; this signals an implementation bug"
        )


class TaskMismatchError(RuntimeError):
    """Checkpoint cannot be resumed: it belongs to another task definition,
    or its record file is missing or shorter than the committed offset."""


@dataclass(frozen=True)
class OrderPolicy:
    """Which character orders to scan for each prime p.

    quadratic       -> d = 2 only (the classical least-nonresidue case)
    divisors-up-to  -> every d | p-1 with 2 <= d <= limit (tested directly,
                       so p-1 is never factorized)
    fixed-set       -> the listed d that happen to divide p-1
    """

    kind: str
    limit: int | None = None
    orders: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("quadratic", "divisors-up-to", "fixed-set"):
            raise ValueError(f"unknown order policy kind {self.kind!r}")
        if self.kind == "divisors-up-to" and (self.limit is None or self.limit < 2):
            raise ValueError("divisors-up-to needs a limit >= 2")
        if self.kind == "fixed-set" and not self.orders:
            raise ValueError("fixed-set needs a nonempty order list")

    @classmethod
    def quadratic(cls) -> "OrderPolicy":
        return cls(kind="quadratic")

    @classmethod
    def divisors_up_to(cls, limit: int) -> "OrderPolicy":
        return cls(kind="divisors-up-to", limit=limit)

    @classmethod
    def fixed_set(cls, orders: Sequence[int]) -> "OrderPolicy":
        return cls(kind="fixed-set", orders=tuple(sorted(set(orders))))

    def orders_for(self, p: int) -> list[int]:
        if p == 2:
            return []
        if self.kind == "quadratic":
            return [2]
        if self.kind == "fixed-set":
            return [d for d in self.orders if d >= 2 and (p - 1) % d == 0]
        return [d for d in range(2, self.limit + 1) if (p - 1) % d == 0]

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "limit": self.limit,
            "orders": list(self.orders) if self.orders else None,
        }


@dataclass(frozen=True)
class ScanTask:
    """A fully specified scan; hashable so checkpoints can refuse strangers.

    c is the frozen constant; it may be None when the bound is not checked.
    """

    p_lo: int
    p_hi: int
    policy: OrderPolicy
    n_max: int
    n0: int
    p0: float
    c: float | None
    search_cap: int = 10**6
    shard_width: int = DEFAULT_SHARD_WIDTH
    check_bound: bool = True

    def __post_init__(self) -> None:
        if self.p_lo > self.p_hi:
            raise ValueError(f"empty-range bounds must still be ordered: "
                             f"{self.p_lo} > {self.p_hi}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.shard_width < 1:
            raise ValueError("shard_width must be positive")
        if self.p_hi >= 3:  # 3 is the least prime with a record
            bound_shape(self.n_max, self.p_hi)  # the largest shape; refuses overflow
        if self.check_bound:
            if self.n_max > self.n0:
                raise ValueError(
                    f"n_max={self.n_max} exceeds the reference n0={self.n0}"
                )
            if self.p_lo < self.p0:
                raise ValueError(
                    f"p_lo={self.p_lo} is below the reference p0={self.p0}; "
                    f"the frozen constant only covers p >= p0"
                )
            ok, failed = reference_validity(self.n0, self.p0)
            if not ok:
                raise ValueError(
                    f"reference pair (n0={self.n0}, p0={self.p0}) is not "
                    f"valid: failed {failed}"
                )
            g_ref = compute_g(self.n0, self.p0).g
            if not self.c >= g_ref - 1e-9 or self.c > g_ref + 0.001 + 1e-9:
                raise ValueError(
                    f"c={self.c} is not a rounding-up of g(n0,p0)={g_ref:.6f}"
                )

    @classmethod
    def make(
        cls,
        p_lo: int,
        p_hi: int,
        policy: OrderPolicy | None = None,
        n_max: int = 1,
        n0: int | None = None,
        p0: float | None = None,
        c: float | None = None,
        **kw,
    ) -> "ScanTask":
        """Task with defaults: quadratic policy, reference (n_max, p_lo).

        Without a bound check no constant is needed, so c stays as given.
        """
        n0 = n0 if n0 is not None else n_max
        p0 = p0 if p0 is not None else float(p_lo)
        if c is None and kw.get("check_bound", True):
            g = compute_g(n0, p0).g
            if g is None:
                raise ValueError(f"g(n0={n0}, p0={p0}) is undefined")
            c = math.ceil(g * 1000) / 1000  # freeze rounded up, as published
        return cls(
            p_lo=p_lo, p_hi=p_hi, policy=policy or OrderPolicy.quadratic(),
            n_max=n_max, n0=n0, p0=p0, c=c, **kw,
        )

    def to_json_obj(self) -> dict:
        return {
            "p_lo": self.p_lo,
            "p_hi": self.p_hi,
            "policy": self.policy.to_json_obj(),
            "n_max": self.n_max,
            "n0": self.n0,
            "p0": repr(self.p0),
            "c": None if self.c is None else repr(self.c),
            "search_cap": self.search_cap,
            "shard_width": self.shard_width,
            "check_bound": self.check_bound,
        }

    def task_hash(self) -> str:
        blob = json.dumps(self.to_json_obj(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    @property
    def shard_count(self) -> int:
        span = self.p_hi - self.p_lo + 1
        return max(0, (span + self.shard_width - 1) // self.shard_width)

    def shard_range(self, i: int) -> tuple[int, int]:
        lo = self.p_lo + i * self.shard_width
        return lo, min(lo + self.shard_width - 1, self.p_hi)


@dataclass(frozen=True)
class ScanRecord:
    """One (p, d) result: q-list, normalized ratios, per-n bound outcome."""

    p: int
    d: int
    q: tuple[int, ...]
    ratio: tuple[float, ...]
    bound_ok: tuple[bool, ...]
    cap_exhausted: bool = False

    def to_json_obj(self) -> dict:
        return {
            "p": self.p,
            "d": self.d,
            "q": list(self.q),
            "ratio": list(self.ratio),
            "bound_ok": list(self.bound_ok),
            "cap_exhausted": self.cap_exhausted,
        }

    def to_jsonl(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    def to_csv_row(self, n_max: int) -> str:
        qs = [str(self.q[i]) if i < len(self.q) else "" for i in range(n_max)]
        rs = [repr(self.ratio[i]) if i < len(self.ratio) else "" for i in range(n_max)]
        all_ok = all(self.bound_ok) if self.bound_ok else True
        return ",".join(
            [str(self.p), str(self.d), *qs, *rs,
             str(all_ok).lower(), str(self.cap_exhausted).lower()]
        )


def csv_header(n_max: int) -> str:
    qs = [f"q_{i}" for i in range(1, n_max + 1)]
    rs = [f"ratio_{i}" for i in range(1, n_max + 1)]
    return ",".join(["p", "d", *qs, *rs, "bound_ok", "cap_exhausted"])


def _bound_ok(q_n: int, n: int, p: int, c: float) -> bool:
    """Exact integer q_n against the real bound; never a false violation."""
    b = c * bound_shape(n, p)
    if q_n <= b * (1.0 - 1e-9):
        return True
    if q_n > b * (1.0 + 1e-9):
        return False
    with mpmath.workdps(50):
        exact = (
            mpmath.mpf(c)
            * mpmath.mpf(p) ** mpmath.mpf("0.25")
            * mpmath.log(p) ** (mpmath.mpf(n + 1) / 2)
        )
        return mpmath.mpf(q_n) <= exact


def _record_for(task: ScanTask, p: int, d: int) -> ScanRecord:
    try:
        q = prime_nonresidues(p, d, task.n_max, search_cap=task.search_cap)
        cap = False
    except SearchCapExceededError as e:
        q = e.found
        cap = True
    ratio = tuple(q[n - 1] / bound_shape(n, p) for n in range(1, len(q) + 1))
    if task.check_bound:
        ok = tuple(
            _bound_ok(q[n - 1], n, p, task.c) for n in range(1, len(q) + 1)
        )
    else:
        ok = tuple(True for _ in q)
    return ScanRecord(p=p, d=d, q=tuple(q), ratio=ratio, bound_ok=ok,
                      cap_exhausted=cap)


def _compute_shard(task: ScanTask, i: int) -> list[ScanRecord]:
    lo, hi = task.shard_range(i)
    out = []
    for p in map(int, pr.primes_in_range(lo, hi)):
        for d in task.policy.orders_for(p):
            out.append(_record_for(task, p, d))
    return out


def _shard_worker(args: tuple[ScanTask, int]) -> tuple[int, list[ScanRecord]]:
    task, i = args
    return i, _compute_shard(task, i)


def _iter_shards(
    task: ScanTask, workers: int, first_shard: int = 0
) -> Iterator[tuple[int, list[ScanRecord]]]:
    """Shard results in shard order, regardless of worker count."""
    shards = range(first_shard, task.shard_count)
    if workers <= 1:
        for i in shards:
            yield i, _compute_shard(task, i)
        return
    # the task pickles as it is: a worker does not validate it again
    with ProcessPoolExecutor(max_workers=workers) as ex:
        yield from ex.map(_shard_worker, [(task, i) for i in shards], chunksize=1)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _beats(value, witness, best, best_witness) -> bool:
    """Whether (value, witness) replaces the running maximum (best, its
    witness, None before the first record): a larger value wins, and equal
    values go to the smaller witness."""
    return best is None or value > best or (value == best and witness < best_witness)


@dataclass
class PerNStats:
    n: int
    count: int = 0
    max_q: int | None = None
    max_q_witness: tuple[int, int] | None = None
    max_ratio: float | None = None
    max_ratio_witness: tuple[int, int] | None = None

    def add(self, rec: ScanRecord) -> None:
        if len(rec.q) < self.n:
            return
        q = rec.q[self.n - 1]
        ratio = rec.ratio[self.n - 1]
        wit = (rec.p, rec.d)
        self.count += 1
        if _beats(q, wit, self.max_q, self.max_q_witness):
            self.max_q, self.max_q_witness = q, wit
        if _beats(ratio, wit, self.max_ratio, self.max_ratio_witness):
            self.max_ratio, self.max_ratio_witness = ratio, wit

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "count": self.count,
            "max_q": self.max_q,
            "max_q_witness": list(self.max_q_witness) if self.max_q_witness else None,
            "max_ratio": self.max_ratio,
            "max_ratio_witness": (
                list(self.max_ratio_witness) if self.max_ratio_witness else None
            ),
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "PerNStats":
        return cls(
            n=obj["n"],
            count=obj["count"],
            max_q=obj["max_q"],
            max_q_witness=tuple(obj["max_q_witness"]) if obj["max_q_witness"] else None,
            max_ratio=obj["max_ratio"],
            max_ratio_witness=(
                tuple(obj["max_ratio_witness"]) if obj["max_ratio_witness"] else None
            ),
        )


@dataclass
class Aggregate:
    """Extremal statistics over scan records, built by add.

    run_scan adds records in shard order whatever the worker count, and a
    resumed scan reloads the aggregate from its checkpoint and goes on
    adding, so identical record streams give identical summaries.
    """

    n_max: int
    records: int = 0
    cap_exhausted: int = 0
    violations: int = 0
    violation_examples: list = field(default_factory=list)
    per_n: list[PerNStats] = field(default_factory=list)

    @classmethod
    def empty(cls, n_max: int) -> "Aggregate":
        return cls(n_max=n_max, per_n=[PerNStats(n) for n in range(1, n_max + 1)])

    def add(self, rec: ScanRecord) -> None:
        self.records += 1
        if rec.cap_exhausted:
            self.cap_exhausted += 1
        if not all(rec.bound_ok):
            self.violations += 1
            if len(self.violation_examples) < 10:
                self.violation_examples.append(rec.to_json_obj())
        for stats in self.per_n:
            stats.add(rec)

    @classmethod
    def from_records(cls, records: Sequence[ScanRecord], n_max: int) -> "Aggregate":
        agg = cls.empty(n_max)
        for rec in records:
            agg.add(rec)
        return agg

    def to_json_obj(self) -> dict:
        return {
            "n_max": self.n_max,
            "records": self.records,
            "cap_exhausted": self.cap_exhausted,
            "violations": self.violations,
            "violation_examples": self.violation_examples,
            "per_n": [s.to_json_obj() for s in self.per_n],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Aggregate":
        return cls(
            n_max=obj["n_max"],
            records=obj["records"],
            cap_exhausted=obj["cap_exhausted"],
            violations=obj["violations"],
            violation_examples=list(obj["violation_examples"]),
            per_n=[PerNStats.from_json_obj(s) for s in obj["per_n"]],
        )


@dataclass
class ScanSummary:
    """Single JSON document summarizing a finished scan (no timing fields,
    so two equivalent runs serialize byte-identically)."""

    task_hash: str
    p_lo: int
    p_hi: int
    n_max: int
    c: float | None
    aggregate: Aggregate

    def to_json_obj(self) -> dict:
        return {
            "task_hash": self.task_hash,
            "p_lo": self.p_lo,
            "p_hi": self.p_hi,
            "n_max": self.n_max,
            "c": self.c,
            **self.aggregate.to_json_obj(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


# ---------------------------------------------------------------------------
# Orchestration: streaming, output files, checkpoint/resume
# ---------------------------------------------------------------------------


def scan_records(task: ScanTask, workers: int = 1) -> Iterator[ScanRecord]:
    """All records of the task in deterministic (p, d) order."""
    for _, records in _iter_shards(task, workers):
        yield from records


def _write_checkpoint(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(payload, fh, sort_keys=True)
    os.replace(tmp, path)


def _load_checkpoint(path: str, task: ScanTask, fmt: str) -> dict | None:
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        obj = json.load(fh)
    if obj.get("version") != CHECKPOINT_VERSION:
        raise TaskMismatchError(f"unsupported checkpoint version {obj.get('version')}")
    if obj.get("task_hash") != task.task_hash():
        raise TaskMismatchError(
            "checkpoint belongs to a different task definition; refusing to resume"
        )
    if obj.get("format") != fmt:
        raise TaskMismatchError(
            f"checkpoint format {obj.get('format')!r} does not match {fmt!r}"
        )
    return obj


def run_scan(
    task: ScanTask,
    out_path: str | None = None,
    fmt: str = "jsonl",
    workers: int = 1,
    checkpoint_path: str | None = None,
    stop_after_shards: int | None = None,
    raise_on_violation: bool = True,
) -> ScanSummary:
    """Run (or resume) a scan, streaming records to out_path.

    With a checkpoint path, progress is committed after every shard; an
    interrupted run resumed with identical arguments produces output files
    byte-identical to an uninterrupted run.  stop_after_shards exists to
    exercise exactly that (it simulates an interruption).
    """
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"format must be jsonl or csv, got {fmt!r}")

    first_shard = 0
    agg = Aggregate.empty(task.n_max)
    byte_offset = None

    ckpt = _load_checkpoint(checkpoint_path, task, fmt) if checkpoint_path else None
    if ckpt is not None:
        first_shard = ckpt["next_shard"]
        agg = Aggregate.from_json_obj(ckpt["aggregate"])
        byte_offset = ckpt["byte_offset"]

    out = None
    if out_path is not None:
        if ckpt is None:
            out = open(out_path, "w")
            if fmt == "csv":
                out.write(csv_header(task.n_max) + "\n")
        else:
            # replay-safe resume: drop anything written past the last commit,
            # but never pad a file that lost committed records
            if byte_offset is None:
                raise TaskMismatchError(
                    "checkpoint was written without a record file; refusing "
                    f"to resume into {out_path!r}"
                )
            if not os.path.exists(out_path) or os.path.getsize(out_path) < byte_offset:
                raise TaskMismatchError(
                    f"record file {out_path!r} is missing or shorter than the "
                    f"records the checkpoint committed; refusing to resume"
                )
            out = open(out_path, "r+")
            out.truncate(byte_offset)
            out.seek(byte_offset)

    shards_done = 0
    try:
        for i, records in _iter_shards(task, workers, first_shard):
            for rec in records:
                if out is not None:
                    line = rec.to_jsonl() if fmt == "jsonl" else rec.to_csv_row(task.n_max)
                    out.write(line + "\n")
                agg.add(rec)
                if raise_on_violation and not all(rec.bound_ok):
                    raise ScanViolationError(rec, task.c)
            if out is not None:
                out.flush()
            if checkpoint_path is not None:
                _write_checkpoint(
                    checkpoint_path,
                    {
                        "version": CHECKPOINT_VERSION,
                        "task_hash": task.task_hash(),
                        "format": fmt,
                        "shards_total": task.shard_count,
                        "next_shard": i + 1,
                        "byte_offset": out.tell() if out is not None else None,
                        "aggregate": agg.to_json_obj(),
                    },
                )
            shards_done += 1
            if stop_after_shards is not None and shards_done >= stop_after_shards:
                break
    finally:
        if out is not None:
            out.close()

    return ScanSummary(
        task_hash=task.task_hash(),
        p_lo=task.p_lo,
        p_hi=task.p_hi,
        n_max=task.n_max,
        c=task.c,
        aggregate=agg,
    )
