"""Empirical verification of the frozen nonresidue bound over prime ranges.

A scan fixes a reference constant C = g(n0, p0) and walks all primes p in
[p_lo, p_hi] (p_lo >= p0), computing for each character order d the list
q_1 < ... < q_{n_max} of smallest prime nonresidues, the normalized ratios
q_n / (p^(1/4) (log p)^((n+1)/2)), and whether q_n <= C p^(1/4)
(log p)^((n+1)/2).  The bound is a theorem on this range, so any violation
means an implementation bug; the scanner halts on one by default, with a
reproducer.

Determinism is a hard requirement: the prime range is split into
fixed-width shards, the unit of output and of resume, and shard outputs
are written and aggregated in shard order.  Shards are computed in
batches of consecutive shards, at most 2^17 integers each whatever the
worker count: the unit of work, of pool traffic and of checkpoint commits.
Only a scan of two batches or more starts a pool, of at most one process
per batch.  A batch works on whole columns, with no Python call per cell:
a segmented sieve over its joint range that strikes larger base primes one
octave per numpy scatter, one batched nonresidue search, the bound's
shapes (bit for bit those of bound_shape), vectorised ratios and bound
filter, and one formatting pass: each row's %-template is chosen by one
int64 key, and each ratio is written from its shortest round-trip digits,
computed for the whole column in numpy (_shortest; repr writes the few
values that it cannot certify).  The batch is then split back into
shards, their text cut at the shards' first rows.  No row depends on
another, so a shard's bytes do not depend on the batch it was computed
in.  ScanRecord is the row view, and its to_jsonl and to_csv_row define
the bytes each line must equal.  The record stream and the summary are
byte-identical for any worker count, and a checkpointed run resumed from
interruption reproduces the uninterrupted output exactly (the checkpoint
stores the output byte offset and the next shard, and resume truncates
back to it).

Border arithmetic: ratios are stored as doubles, but the bound decision
compares the exact integer q_n against a two-sided float enclosure of the
bound, and a q_n between its endpoints goes to an interval certificate
(_bound_ok), so rounding can never manufacture or hide a violation.  A
record certifies the double c that the task holds (its repr is in the task
hash and the summary), not a decimal that c was parsed from.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from itertools import repeat
from typing import Iterator, Sequence

import numpy as np

from . import primes as pr
from ._shortest import NOTATIONS, notation, repr_cells
from .bounds import bound_shape, bound_shapes, ceil_3dp, certify_freeze, reference_g
from .characters import DEFAULT_SEARCH_CAP, nonresidue_table
from .rounding import DEFAULT_PREC, certify, interval_context, lower, upper

__all__ = [
    "Aggregate",
    "OrderPolicy",
    "ScanRecord",
    "ScanSummary",
    "Shard",
    "ScanViolationError",
    "TaskMismatchError",
    "ScanTask",
    "run_scan",
    "scan_records",
]

CHECKPOINT_VERSION = 1
DEFAULT_SHARD_WIDTH = 10_000
# integers per batch of shards, at most (a batch holds at least one shard):
# large enough to spread a sieve's, a search's and a commit's fixed costs,
# small enough to add only a few MB of columns
_BATCH_SPAN = 1 << 17


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
    a key it needs is missing or has the wrong type or range, or its record
    file is missing or shorter than the committed offset."""


@dataclass(frozen=True)
class OrderPolicy:
    """Which character orders to scan for each prime p (rows: for all the
    primes of a shard; orders_for: for one).

    quadratic       -> d = 2 only (the classical least-nonresidue case)
    divisors-up-to  -> every d | p-1 with 2 <= d <= limit (tested directly,
                       so p-1 is never factorized)
    fixed-set       -> the listed d (each >= 2) that happen to divide p-1
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
        if self.kind == "fixed-set" and min(self.orders) < 2:
            raise ValueError(f"fixed-set orders must be >= 2, got {list(self.orders)}")

    @classmethod
    def quadratic(cls) -> "OrderPolicy":
        return cls(kind="quadratic")

    @classmethod
    def divisors_up_to(cls, limit: int) -> "OrderPolicy":
        return cls(kind="divisors-up-to", limit=limit)

    @classmethod
    def fixed_set(cls, orders: Sequence[int]) -> "OrderPolicy":
        return cls(kind="fixed-set", orders=tuple(sorted(set(orders))))

    @property
    def _candidates(self) -> tuple[int, ...]:
        if self.kind == "quadratic":
            return (2,)
        if self.kind == "fixed-set":
            return self.orders
        return tuple(range(2, self.limit + 1))

    def orders_for(self, p: int) -> list[int]:
        return [d for d in self._candidates if p != 2 and (p - 1) % d == 0]

    def rows(self, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (p, d) rows of increasing primes, in (p, d) order: one vector
        (P - 1) % d == 0 per candidate order d over the odd primes P."""
        odd = primes[primes > 2]
        hits = [np.flatnonzero((odd - 1) % d == 0) for d in self._candidates]
        at = np.concatenate([np.zeros(0, np.int64), *hits])
        d = np.repeat(np.array(self._candidates, np.int64), [len(h) for h in hits])
        order = np.argsort(at, kind="stable")  # d already increases within a p
        return odd[at[order]], d[order]


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
    search_cap: int = DEFAULT_SEARCH_CAP
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
        if self.search_cap < 1:
            raise ValueError(f"search_cap must be >= 1, got {self.search_cap}")
        if self.p_hi >= 3:  # 3 is the least prime with a record
            bound_shape(self.n_max, self.p_hi)  # the largest shape; refuses overflow
        if self.c is not None and not math.isfinite(self.c):
            raise ValueError(f"c must be a finite number, got {self.c!r}")
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
            # certify_freeze below decides every condition of this check too,
            # but in time linear in n0 (about 0.3 s at n0 = 1,000); this one
            # refuses an invalid pair in one enclosure, whatever n0 is
            g_ref, failed = reference_g(self.n0, self.p0)
            if failed:
                raise ValueError(
                    f"reference pair (n0={self.n0}, p0={self.p0}) is not "
                    f"valid: failed {failed}"
                )
            if self.c is None:
                raise ValueError("a bound-checked scan needs the frozen constant c")
            # below: a certificate that g(n, p) <= c for all p >= p0, n <= n0.
            # above: a ceiling that ceil_3dp(g_ref) = k/1000 always meets in
            # doubles: the double (k-1)/1000 is below g_ref, so (k-1)/1000 <
            # g_ref exactly (rounding is monotone); the double 0.001 exceeds
            # 1/1000, so g_ref + 0.001 > k/1000 exactly and rounds to at least
            # its double
            cert = certify_freeze(self.n0, self.p0, self.c)
            if not cert.ok or self.c > g_ref + 0.001:
                raise ValueError(
                    f"c={self.c} is not a rounding-up of g(n0,p0)={g_ref:.6f}"
                    + (f": failed {list(cert.failed)}" if cert.failed else "")
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
        """Task with defaults: quadratic policy, reference (n_max, p_lo),
        with p0 the largest double <= p_lo, and c = ceil_3dp(reference_g).

        Without a bound check no constant is needed, so c stays as given.
        """
        n0 = n0 if n0 is not None else n_max
        if p0 is None:  # float(p_lo) may round up from 2^53 on
            p0 = float(p_lo)
            p0 = p0 if p0 <= p_lo else math.nextafter(p0, 0)
        if c is None and kw.get("check_bound", True):
            g, _ = reference_g(n0, p0)
            # freeze rounded up, as published; an invalid pair has no g,
            # and __post_init__ refuses it by the conditions it fails
            c = None if g is None else ceil_3dp(g)
        return cls(
            p_lo=p_lo, p_hi=p_hi, policy=policy or OrderPolicy.quadratic(),
            n_max=n_max, n0=n0, p0=p0, c=c, **kw,
        )

    def to_json_obj(self) -> dict:
        """The fields, with p0 and c as reprs (c None stays None)."""
        return {**asdict(self), "p0": repr(self.p0),
                "c": None if self.c is None else repr(self.c)}

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
        return asdict(self)

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
    """Whether q_n <= c p^(1/4) (log p)^((n+1)/2) for the double c > 0,
    certified as q_n^4 <= c^4 p (log p)^(2n+2) against both endpoints of an
    interval enclosure of log p.  The precision doubles from DEFAULT_PREC
    until one endpoint decides, which must happen: q_n^4 / (c^4 p) is
    rational and a power of log p is transcendental."""
    cn, cd = c.as_integer_ratio()
    q4, k, prec = (q_n**4, 1), 2 * n + 2, DEFAULT_PREC
    while True:
        log_p = interval_context(prec).log(p)
        (lo, lo_d), (hi, hi_d) = lower(log_p), upper(log_p)
        if certify(q4, (cn**4 * p * lo**k, cd**4 * lo_d**k))[0]:
            return True
        if not certify(q4, (cn**4 * p * hi**k, cd**4 * hi_d**k))[0]:
            return False
        prec *= 2


def _template(fmt: str, n_max: int, d: int, ok: list[bool], ids: list[int]) -> str:
    """The %-template of a row of order d with len(ok) cells, their bound
    verdicts ok and their ratios' notation ids (see Shard.format)."""
    k = len(ok)
    ok_words = ["true" if v else "false" for v in ok]
    cap = "true" if k < n_max else "false"
    ratios = [notation(i) for i in ids]
    if fmt == "csv":
        blank = [""] * (n_max - k)
        return ",".join(["%d", str(d), *["%d"] * k, *blank, *ratios, *blank,
                         "true" if all(ok) else "false", cap]) + "\n"
    return (f'{{"bound_ok": [{", ".join(ok_words)}], "cap_exhausted": {cap}, '
            f'"d": {d}, "p": %d, "q": [{", ".join(["%d"] * k)}], '
            f'"ratio": [{", ".join(ratios)}]}}\n')


def _row_keys(parts: Sequence[tuple[np.ndarray, int]]) -> np.ndarray:
    """One int64 per row, equal for two rows iff all their parts are: the
    parts (columns of ints in [0, radix)) packed in mixed radix, renumbered
    densely first wherever the next part would overflow."""
    key, size = np.zeros(len(parts[0][0]), np.int64), 1
    for col, radix in parts:
        if size > (1 << 62) // radix:
            uniq, key = np.unique(key, return_inverse=True)
            size = len(uniq)
        key, size = key * radix + col, size * radix
    return key


@dataclass
class Shard:
    """One shard's results as columns, one row per (p, d) in (p, d) order.

    q, ratio and ok are n_max wide; cells past a row's count (a search
    that reached the cap) hold 0, 0.0 and True.  text is the rows'
    JSONL or CSV lines (see format), each ending in a newline, or "" if no
    format was asked for.
    """

    p: np.ndarray
    d: np.ndarray
    q: np.ndarray
    count: np.ndarray
    ratio: np.ndarray
    ok: np.ndarray
    text: str = ""

    @property
    def cap(self) -> np.ndarray:
        """Whether each row's search reached the cap before n_max."""
        return self.count < self.q.shape[1]

    @classmethod
    def from_records(cls, records: Sequence[ScanRecord], n_max: int) -> "Shard":
        q = np.zeros((len(records), n_max), dtype=np.int64)
        ratio = np.zeros(q.shape)
        ok = np.ones(q.shape, dtype=bool)
        for r, rec in enumerate(records):
            k = len(rec.q)
            q[r, :k], ratio[r, :k], ok[r, :k] = rec.q, rec.ratio, rec.bound_ok
        return cls(p=np.array([rec.p for rec in records], dtype=np.int64),
                   d=np.array([rec.d for rec in records], dtype=np.int64), q=q,
                   count=np.array([len(rec.q) for rec in records], dtype=np.int64),
                   ratio=ratio, ok=ok)

    def record(self, r: int) -> ScanRecord:
        k = int(self.count[r])
        return ScanRecord(
            p=int(self.p[r]), d=int(self.d[r]), q=tuple(self.q[r, :k].tolist()),
            ratio=tuple(self.ratio[r, :k].tolist()),
            bound_ok=tuple(self.ok[r, :k].tolist()), cap_exhausted=bool(self.cap[r]),
        )

    def format(self, fmt: str, cuts: Sequence[int] = ()) -> list[str]:
        """The text of the rows before cuts[0], between consecutive cuts
        and from cuts[-1] on (all rows if no cuts): lines each equal to
        ScanRecord.to_jsonl or to_csv_row of its row.  _compute_shards
        formats a batch once and cuts it at its shards' first rows; a
        piece is the text of its rows formatted alone, since no row's
        text depends on another's.

        Each row takes a %-template chosen by one int64 key (_row_keys)
        of its count, d, and per cell its bound verdict and its ratio's
        notation (_shortest.repr_cells, from the shortest digits of the
        whole column, or %r for a ratio whose digits it cannot certify).
        The cap flag, the verdicts as the words true and false, and d are
        literal text in the template, and so are the commas of the CSV
        cells past the count.  Only p, the q values and the ratios' digit
        integers (or a %r ratio itself) are %-cells, in that order in both
        formats, so a piece is one %-format of its rows' templates,
        joined, over its slice of one cell list.
        """
        n_max, rows = self.q.shape[1], len(self.p)
        present = np.arange(n_max) < self.count[:, None]
        ids, head, tail = repr_cells(self.ratio)
        ds, d_at = np.unique(self.d, return_inverse=True)
        key = _row_keys([(self.count, n_max + 1), (d_at, max(len(ds), 1)),
                         *zip(np.where(present, 1 + self.ok + 2 * ids, 0).T,
                              repeat(2 * NOTATIONS + 1))])
        _, first, which = np.unique(key, return_index=True, return_inverse=True)
        templates = [_template(fmt, n_max, int(self.d[r]), self.ok[r, :k].tolist(),
                               ids[r, :k].tolist())
                     for r, k in zip(first.tolist(), self.count[first].tolist())]
        # cells in template order: p, the q values, each ratio's head and tail
        ratio_cells = np.stack([head, tail], axis=2).reshape(rows, 2 * n_max)
        cells = np.concatenate([self.p[:, None], self.q, ratio_cells], axis=1)
        keep = np.concatenate([np.ones((rows, 1), bool), present,
                               np.repeat(present, 2, axis=1)], axis=1)
        keep[:, n_max + 2::2] &= tail >= 0
        values = cells[keep].tolist()
        at = np.flatnonzero(keep.ravel()).searchsorted
        for r, n in zip(*np.nonzero(present & (ids == 0))):  # %r: the ratio itself
            values[at(r * keep.shape[1] + n_max + 1 + 2 * n)] = self.ratio[r, n].item()
        lines = list(map(templates.__getitem__, which.tolist()))
        ends = [0, *keep.sum(axis=1).cumsum().tolist()]  # values before each row
        bounds = [0, *cuts, rows]
        return ["".join(lines[a:b]) % tuple(values[ends[a]:ends[b]])
                for a, b in zip(bounds, bounds[1:])]


def _compute_shards(task: ScanTask, shards: range, fmt: str | None = None) -> list[Shard]:
    """The shards in the nonempty range shards, each with its text in the
    format fmt (None: none), computed as one batch: one sieve over their
    joint range, one rows call, one nonresidue search, one shapes pass,
    one bound filter and one Shard.format of all the rows (ratio digits
    from one numpy pass, repr for what that cannot certify), then split
    into shards at each shard's lower end, with the text cut there.
    No row's result depends on another row, so each shard equals the one
    that a one-shard batch gives.

    The bound is checked by a float filter: b = c * S, with S the shape
    bound_shape(n, p) (from bound_shapes, which equals it bit for bit),
    decides every q_n outside b (1 -/+ 10^-9), and only q_n inside goes to
    _bound_ok.  Why no q_n above c*S passes the filter (and none below
    fails it), for S = p^(1/4) (log p)^k with k = (n+1)/2, u = 2^-53, q_n <
    2^53 exact as a double, and log and pow within 1 ulp (2u), as glibc
    documents for both:
      * p^(1/4): p to a double (u), times 1/4, and the pow (2u): 2.25u;
      * log p: p to a double (u, over log p >= 1) and the log (2u): 3u;
        raised to k, 3ku; that pow, 2u;
      * the product p^(1/4) * (log p)^k, the multiply by c, 1 -/+ 10^-9
        as a double and the multiply by it: u each.
    So the filter's threshold is within (3k + 8.25)u, plus second-order
    terms, of c*S*(1 -/+ 10^-9).  ScanTask refuses a scan whose
    (log p_hi)^((n_max+1)/2) overflows, and (log p)^k >= (log 3)^k for
    p >= 3, so k < 1024 log 2 / log log 3 < 7552 for every n it admits
    (a bound-checked scan, with log p > 8(n0 - 1), has k <= 3.8 below
    2^63).  The error is then below 2.3*10^4 u < 2.6*10^-12 << 10^-9.
    """
    los = [task.shard_range(i)[0] for i in shards]
    p, d = task.policy.rows(pr.primes_in_range(los[0], task.shard_range(shards[-1])[1]))
    q, count = nonresidue_table(p, d, task.n_max, task.search_cap)
    primes, at = np.unique(p, return_inverse=True)
    shape = np.array(bound_shapes(primes.tolist(), task.n_max))
    shape = shape.reshape(task.n_max, len(primes)).T[at]
    ok = np.ones(q.shape, dtype=bool)
    if task.check_bound:
        b = task.c * shape
        ok = (np.arange(task.n_max) >= count[:, None]) | (q <= b * (1.0 - 1e-9))
        for r, n in zip(*np.nonzero(~ok & (q <= b * (1.0 + 1e-9)))):
            ok[r, n] = _bound_ok(int(q[r, n]), int(n) + 1, int(p[r]), task.c)
    cols = (p, d, q, count, q / shape, ok)
    cuts = np.searchsorted(p, los[1:]).tolist()
    texts = Shard(*cols).format(fmt, cuts) if fmt else repeat("")
    return [Shard(*(col[a:b] for col in cols), text=text)
            for a, b, text in zip([0, *cuts], [*cuts, len(p)], texts)]


def _batches(task: ScanTask, shards: range) -> list[range]:
    """shards cut into consecutive batches of _BATCH_SPAN integers at most,
    and at least one shard each, whatever the worker count."""
    size = max(1, _BATCH_SPAN // task.shard_width)
    return [shards[a : a + size] for a in range(0, len(shards), size)]


def _iter_batches(task: ScanTask, workers: int, shards: range,
                  fmt: str | None = None) -> Iterator[tuple[range, list[Shard]]]:
    """(batch, its shards) for the batches of shards in shard order, with
    each shard's text in the format fmt (None: no text), as a generator that
    the caller may close.  A pool of min(workers, batches) processes computes
    them if that is 2 or more, else this process does.  Refuses workers
    below 1 at the call, before any shard is computed."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    batches = _batches(task, shards)
    return _batch_stream(task, min(workers, len(batches)), batches, fmt)


def _batch_stream(task: ScanTask, workers: int, batches: list[range],
                  fmt: str | None) -> Iterator[tuple[range, list[Shard]]]:
    args = (repeat(task), batches, repeat(fmt))
    if workers < 2:
        yield from zip(batches, map(_compute_shards, *args))
        return
    # the task pickles as it is: a worker does not validate it again
    with ProcessPoolExecutor(max_workers=workers) as ex:
        yield from zip(batches, ex.map(_compute_shards, *args))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _beats(value, witness, best, best_witness) -> bool:
    """Whether (value, witness) replaces the running maximum (best, its
    witness, None before the first record): a larger value wins, and equal
    values go to the smaller witness."""
    return best is None or value > best or (value == best and witness < best_witness)


# Aggregate's and PerNStats' annotations -> whether a JSON value has that
# type; the int checks go by exact type, since bool is an int subclass
_JSON_TYPES = {
    "int": lambda v: type(v) is int,
    "int | None": lambda v: v is None or type(v) is int,
    "float | None": lambda v: v is None or type(v) is float,
    "tuple[int, int] | None": lambda v: v is None or (
        type(v) is list and len(v) == 2 and all(type(x) is int for x in v)),
    "list": lambda v: type(v) is list,
    "list[PerNStats]": lambda v: type(v) is list,
}


@dataclass
class PerNStats:
    n: int
    count: int = 0
    max_q: int | None = None
    max_q_witness: tuple[int, int] | None = None
    max_ratio: float | None = None
    max_ratio_witness: tuple[int, int] | None = None

    def add(self, shard: Shard) -> None:
        """Count the shard's rows with an n-th q and update both running
        maxima: a larger value wins, and equal values go to the smaller
        witness (p, d), so the result does not depend on how rows are
        split into shards."""
        rows = np.flatnonzero(shard.count >= self.n)
        self.count += rows.size
        if not rows.size:
            return
        for col, attr in ((shard.q, "max_q"), (shard.ratio, "max_ratio")):
            vals = col[rows, self.n - 1]
            top = rows[vals == vals.max()]
            r = top[np.lexsort((shard.d[top], shard.p[top]))[0]]
            value, wit = col[r, self.n - 1].item(), (int(shard.p[r]), int(shard.d[r]))
            if _beats(value, wit, getattr(self, attr), getattr(self, attr + "_witness")):
                setattr(self, attr, value)
                setattr(self, attr + "_witness", wit)


@dataclass
class Aggregate:
    """Extremal statistics over scan records, built by adding shards.

    run_scan adds shards in shard order whatever the worker count, and a
    resumed scan reloads the aggregate from its checkpoint and goes on
    adding, so identical record streams give identical summaries.
    """

    records: int = 0
    cap_exhausted: int = 0
    violations: int = 0
    violation_examples: list = field(default_factory=list)
    per_n: list[PerNStats] = field(default_factory=list)

    @classmethod
    def empty(cls, n_max: int) -> "Aggregate":
        return cls(per_n=[PerNStats(n) for n in range(1, n_max + 1)])

    def add(self, shard: Shard) -> None:
        self.records += len(shard.p)
        self.cap_exhausted += int(shard.cap.sum())
        bad = np.flatnonzero(~shard.ok.all(axis=1))
        self.violations += bad.size
        room = max(0, 10 - len(self.violation_examples))
        self.violation_examples += [shard.record(r).to_json_obj() for r in bad[:room]]
        for stats in self.per_n:
            stats.add(shard)

    @classmethod
    def from_records(cls, records: Sequence[ScanRecord], n_max: int) -> "Aggregate":
        agg = cls.empty(n_max)
        agg.add(Shard.from_records(records, n_max))
        return agg

    def to_json_obj(self) -> dict:
        """The fields, copied one level deep: this runs once per batch for
        the checkpoint, where asdict's deep copy costs over 25 times as much."""
        return dict(vars(self), per_n=[dict(vars(s)) for s in self.per_n])

    @classmethod
    def from_json_obj(cls, obj) -> "Aggregate":
        """The inverse of to_json_obj after a JSON round trip.  Anything
        but a JSON object, or a missing or mistyped field, refuses the
        checkpoint instead of taking a default or failing in a later
        comparison; keys that are not fields are ignored.  Witnesses come
        back as tuples, since _beats compares them."""
        def load(kind, o):
            types = {f.name: f.type for f in fields(kind)}
            if bad := [k for k, t in types.items() if not isinstance(o, dict)
                       or k not in o or not _JSON_TYPES[t](o[k])]:
                raise TaskMismatchError(
                    f"checkpoint aggregate lacks or mistypes {bad}; refusing to resume")
            return kind(**{k: o[k] for k in types})

        agg = load(cls, obj)
        agg.per_n = [load(PerNStats, s) for s in agg.per_n]
        for st in agg.per_n:
            st.max_q_witness = st.max_q_witness and tuple(st.max_q_witness)
            st.max_ratio_witness = st.max_ratio_witness and tuple(st.max_ratio_witness)
        return agg


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
        """The fields, with the aggregate's spliced in at the top level."""
        obj = dict(vars(self))
        obj.update(obj.pop("aggregate").to_json_obj())
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


# ---------------------------------------------------------------------------
# Orchestration: streaming, output files, checkpoint/resume
# ---------------------------------------------------------------------------


def scan_records(task: ScanTask, workers: int = 1) -> Iterator[ScanRecord]:
    """All records of the task in deterministic (p, d) order."""
    for _, shards in _iter_batches(task, workers, range(task.shard_count)):
        for shard in shards:
            yield from map(shard.record, range(len(shard.p)))


def _write_checkpoint(path: str, payload: dict) -> None:
    """Commit payload to path: its sorted-key JSON, written whole to a .tmp
    file that then replaces path (one write; json.dump writes piecemeal)."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(json.dumps(payload, sort_keys=True))
    os.replace(tmp, path)


def _load_checkpoint(path: str, task: ScanTask, task_hash: str,
                     fmt: str) -> tuple[int, int | None, Aggregate] | None:
    """(next shard, byte offset, aggregate) of the checkpoint at path (None
    if there is none), refused with TaskMismatchError unless it belongs to
    this task and format, its own keys have the types and ranges that
    run_scan reads, and its aggregate loads (Aggregate.from_json_obj) with
    per-n stats for n = 1..n_max in order."""
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except ValueError:
            obj = None
    if not isinstance(obj, dict):
        raise TaskMismatchError("checkpoint is not a JSON object; refusing to resume")
    if obj.get("version") != CHECKPOINT_VERSION:
        raise TaskMismatchError(f"unsupported checkpoint version {obj.get('version')}")
    if obj.get("task_hash") != task_hash:
        raise TaskMismatchError(
            "checkpoint belongs to a different task definition; refusing to resume"
        )
    if obj.get("format") != fmt:
        raise TaskMismatchError(
            f"checkpoint format {obj.get('format')!r} does not match {fmt!r}"
        )
    # bool is an int subclass, so the int checks go by exact type
    next_shard, offset, agg = map(obj.get, ("next_shard", "byte_offset", "aggregate"))
    if type(next_shard) is not int or not 0 <= next_shard <= task.shard_count:
        raise TaskMismatchError(
            f"checkpoint next_shard {next_shard!r} is not an int in "
            f"[0, {task.shard_count}]; refusing to resume")
    if "byte_offset" not in obj or offset is not None and (
            type(offset) is not int or offset < 0):
        raise TaskMismatchError(
            f"checkpoint byte_offset {offset!r} is neither null nor an int >= 0; "
            f"refusing to resume")
    agg = Aggregate.from_json_obj(agg)
    if (ns := [st.n for st in agg.per_n]) != list(range(1, task.n_max + 1)):
        raise TaskMismatchError(f"checkpoint aggregate has per_n for n = {ns}, not "
                                f"1..{task.n_max} in order; refusing to resume")
    return next_shard, offset, agg


def run_scan(
    task: ScanTask,
    out_path: str | None = None,
    fmt: str = "jsonl",
    workers: int = 1,
    checkpoint_path: str | None = None,
    stop_after_shards: int | None = None,
    raise_on_violation: bool = True,
) -> ScanSummary:
    """Run (or resume) a scan, streaming records to out_path a shard at a
    time; a violation halts it after writing the records up to and
    including the violating one.

    Shards are computed in batches (see _batches), in this process unless
    there are two or more (see _iter_batches).  The record file is flushed
    and, with a checkpoint path, progress committed at the end of every
    batch, and before a violation halt, so that the checkpoint then names
    the violating shard.  An interrupted run resumed with identical
    arguments produces output files byte-identical to an uninterrupted run.
    stop_after_shards exists to exercise exactly that (it simulates an
    interruption): no shard past the stop is computed.
    """
    if fmt not in ("jsonl", "csv"):
        raise ValueError(f"format must be jsonl or csv, got {fmt!r}")
    if stop_after_shards is not None and stop_after_shards < 1:
        raise ValueError(f"stop_after_shards must be >= 1, got {stop_after_shards}")

    task_hash = task.task_hash()
    ckpt = (_load_checkpoint(checkpoint_path, task, task_hash, fmt)
            if checkpoint_path else None)
    first_shard, byte_offset, agg = ckpt or (0, None, Aggregate.empty(task.n_max))
    last_shard = task.shard_count
    if stop_after_shards is not None:
        last_shard = min(last_shard, first_shard + stop_after_shards)
    # bad workers are refused before the record file is opened; no file, no text
    batches = _iter_batches(task, workers, range(first_shard, last_shard),
                            None if out_path is None else fmt)

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

    def commit(next_shard: int) -> None:
        """Flush the records and checkpoint all shards before next_shard."""
        if out is not None:
            out.flush()
        if checkpoint_path is not None:
            _write_checkpoint(
                checkpoint_path,
                {
                    "version": CHECKPOINT_VERSION,
                    "task_hash": task_hash,
                    "format": fmt,
                    "shards_total": task.shard_count,
                    "next_shard": next_shard,
                    "byte_offset": out.tell() if out is not None else None,
                    "aggregate": agg.to_json_obj(),
                },
            )

    try:
        for batch, shards in batches:
            for i, shard in zip(batch, shards):
                bad = np.flatnonzero(~shard.ok.all(axis=1)) if raise_on_violation else ()
                if len(bad):  # records up to and including the first violation
                    commit(i)
                    if out is not None:
                        out.write("".join(shard.text.splitlines(True)[: bad[0] + 1]))
                    raise ScanViolationError(shard.record(bad[0]), task.c)
                if out is not None:
                    out.write(shard.text)
                agg.add(shard)
            commit(batch.stop)
    finally:
        batches.close()  # a pool stops with the scan, not when the frame is freed
        if out is not None:
            out.close()

    return ScanSummary(task_hash=task_hash, p_lo=task.p_lo, p_hi=task.p_hi,
                       n_max=task.n_max, c=task.c, aggregate=agg)
