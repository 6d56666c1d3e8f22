"""Output checks that share no code with the package.

Every scan record is re-derived here from first principles: a plain
bytearray sieve for the primes of the range, trial division of p-1 for
the character orders, and one `pow` per candidate for the kernel test.
A change that makes the program fast but wrong therefore fails the run.
"""

from __future__ import annotations

import hashlib
import json
import math


def plain_sieve(limit: int) -> list[int]:
    """Primes <= limit by the sieve of Eratosthenes on a bytearray."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return [i for i in range(limit + 1) if flags[i]]


def primes_between(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi] by a plain segmented sieve."""
    lo = max(lo, 2)
    if hi < lo:
        return []
    flags = bytearray([1]) * (hi - lo + 1)
    for q in plain_sieve(math.isqrt(hi)):
        start = max(q * q, (lo + q - 1) // q * q)
        flags[start - lo :: q] = bytes(len(range(start, hi + 1, q)))
    return [lo + i for i, f in enumerate(flags) if f]


def expected_keys(p_lo: int, p_hi: int, d_max: int | None) -> list[tuple[int, int]]:
    """(p, d) for every record a scan of [p_lo, p_hi] must emit, in order.

    d_max None means the quadratic policy; otherwise every d | p-1 with
    2 <= d <= d_max.
    """
    keys = []
    for p in primes_between(p_lo, p_hi):
        if p == 2:
            continue
        if d_max is None:
            keys.append((p, 2))
        else:
            keys.extend((p, d) for d in range(2, d_max + 1) if (p - 1) % d == 0)
    return keys


def smallest_nonresidues(p: int, d: int, count: int, small_primes: list[int]) -> list[int]:
    """The `count` least primes q != p with q^((p-1)/d) != 1 mod p."""
    e = (p - 1) // d
    out = []
    for q in small_primes:
        if q != p and pow(q, e, p) != 1:
            out.append(q)
            if len(out) == count:
                return out
    raise ValueError(f"no {count} nonresidues below {small_primes[-1]} for p={p}, d={d}")


def check_scan(lines: list[str], summary: dict, p_lo: int, p_hi: int,
               d_max: int | None, n_max: int, c: float) -> list[str]:
    """Problems found in one scan's records and summary (empty when correct)."""
    problems = []
    recs = [json.loads(line) for line in lines]
    keys = [(r["p"], r["d"]) for r in recs]
    want = expected_keys(p_lo, p_hi, d_max)
    if keys != want:
        problems.append(f"record keys differ from the plain sieve: {len(keys)} vs {len(want)}")
    for r in recs:
        if r["cap_exhausted"]:
            problems.append(f"cap exhausted at p={r['p']}, d={r['d']}")
        if len(r["q"]) != n_max or not all(r["bound_ok"]):
            problems.append(f"violation or short q-list at p={r['p']}, d={r['d']}")
    if summary.get("records") != len(recs):
        problems.append(f"summary counts {summary.get('records')} records, "
                        f"the file has {len(recs)}")
    if summary.get("violations") or summary.get("cap_exhausted"):
        problems.append("summary reports violations or cap exhaustions")
    for n, stats in enumerate(summary.get("per_n", []), start=1):
        full = [r for r in recs if len(r["q"]) >= n]
        top = max((r["q"][n - 1] for r in full), default=None)
        if stats.get("count") != len(full) or stats.get("max_q") != top:
            problems.append(f"summary per_n[{n}] disagrees with the records")

    small = plain_sieve(10_000)
    for r in recs:
        p, d = r["p"], r["d"]
        try:
            q = smallest_nonresidues(p, d, n_max, small)
        except ValueError as e:
            problems.append(str(e))
            continue
        ratio = [q[n - 1] / (p**0.25 * math.log(p) ** ((n + 1) / 2.0))
                 for n in range(1, n_max + 1)]
        if r["q"] != q or r["ratio"] != ratio:
            problems.append(f"record differs from plain pow at p={p}, d={d}: {r['q']} vs {q}")
        elif any(x > c * (1 - 1e-9) for x in ratio):
            problems.append(f"q above the frozen bound at p={p}, d={d}")
    return problems


def expected_instances(cfg: dict) -> dict[str, int]:
    """Instance counts that a VerifyConfig grid implies, for the closed-form sweeps."""
    s_upper = 0
    for p in plain_sieve(cfg["s_upper_p_max"]):
        if p == 2:
            continue
        orders = [d for d in range(2, p) if (p - 1) % d == 0]
        for _ in orders:
            for h in range(1, min(cfg["s_upper_h_max"], p - 1) + 1):
                s_upper += min(cfg["s_upper_r_max"], 9 * h)
    return {
        "stirling": cfg["stirling_r_max"],
        "totient": cfg["totient_x_max"] * 10 - 10,
        "convexity": sum(h // 8 + 1 for h in range(1, cfg["convexity_h_max"] + 1))
        * cfg["convexity_r_max"],
        "s-upper": s_upper,
        "disjointness": cfg["disjoint_trials"],
        "proposition": cfg["proposition_instances"],
    }


def check_verify(report: dict, cfg: dict, frozen: dict[str, tuple[int, int]]) -> list[str]:
    """Problems in a verification report: failures or unexpected instance counts.

    `frozen` gives (instances_run, vacuous_skips) for the construction
    sweeps whose counts have no closed form.
    """
    problems = []
    if not report.get("all_passed"):
        problems.append("verification report is not all_passed")
    lemmas = report.get("lemmas", {})
    want = expected_instances(cfg)
    for name, rep in lemmas.items():
        if rep["passes"] + rep["failures"] + rep["vacuous_skips"] != rep["instances_run"]:
            problems.append(f"{name}: outcome counts do not add up")
        if rep["failures"]:
            problems.append(f"{name}: {rep['failures']} failures")
    for name, n in want.items():
        got = lemmas.get(name, {}).get("instances_run")
        if got != n:
            problems.append(f"{name}: {got} instances, config implies {n}")
    for name, (n, vac) in frozen.items():
        rep = lemmas.get(name, {})
        got = (rep.get("instances_run"), rep.get("vacuous_skips"))
        if got != (n, vac):
            problems.append(f"{name}: {got} (instances, vacuous), expected {(n, vac)}")
    return problems


def verify_digest(report: dict) -> str:
    """Hash of a verification report with its timing fields removed."""
    clean = dict(report, lemmas={
        name: {k: v for k, v in rep.items() if k != "elapsed_s"}
        for name, rep in report.get("lemmas", {}).items()
    })
    return hashlib.sha256(json.dumps(clean, sort_keys=True).encode()).hexdigest()
