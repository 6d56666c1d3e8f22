import json
import math
import pathlib
import sys
from types import SimpleNamespace

import jsonschema
import mpmath
import numpy as np
import pytest

from nonresidues import bounds as bd
from nonresidues import cli
from nonresidues import primes as pr
from nonresidues import scan as sc
from nonresidues.bounds import bound_shape
from nonresidues.characters import DEFAULT_SEARCH_CAP


def small_task(**kw):
    defaults = dict(p_lo=10**7, p_hi=10**7 + 3000, n_max=1, n0=1, p0=1e7,
                    c=1.530, shard_width=1000)
    defaults.update(kw)
    return sc.ScanTask.make(**defaults)


@pytest.fixture(scope="module")
def records():
    return list(sc.scan_records(small_task()))


def test_records_are_ordered_and_clean(records):
    keys = [(r.p, r.d) for r in records]
    assert keys == sorted(keys)
    assert all(pr.is_prime(r.p) for r in records)
    for r in records:
        assert list(r.q) == sorted(r.q)
        assert all(pr.is_prime(q) for q in r.q)
        assert all(r.bound_ok)
        assert not r.cap_exhausted


def test_records_match_primes_in_range(records):
    expected = [int(p) for p in pr.primes_in_range(10**7, 10**7 + 3000)]
    assert [r.p for r in records] == expected
    assert all(r.d == 2 for r in records)


def test_ratio_definition(records):
    r = records[0]
    n = 1
    expected = r.q[0] / (r.p**0.25 * math.log(r.p) ** ((n + 1) / 2))
    assert r.ratio[0] == pytest.approx(expected, rel=1e-15)


def _modexp_by_hand(a, e, p):
    # square-and-multiply written out, sharing nothing with builtin pow
    result = 1 % p
    base = a % p
    while e:
        if e & 1:
            result = result * base % p
        base = base * base % p
        e >>= 1
    return result


def test_independent_q_recomputation(records):
    # 100 sampled records recomputed through a hand-rolled modexp and an
    # independent prime source; must agree exactly with the scanner
    import random

    rng = random.Random(42)
    sample = rng.sample(records, min(100, len(records)))
    primes = [int(q) for q in pr.sieve(1000)]
    for rec in sample:
        e = (rec.p - 1) // rec.d
        q1 = next(
            q for q in primes
            if q != rec.p and _modexp_by_hand(q, e, rec.p) != 1
        )
        assert rec.q[0] == q1


def test_independent_q_recomputation_power_table():
    # small moduli: the kernel is literally the set {a^d mod p}, so build it
    # by direct enumeration and rescan without any modular exponentiation
    task = sc.ScanTask(
        p_lo=100, p_hi=600, policy=sc.OrderPolicy.divisors_up_to(6), n_max=2,
        n0=2, p0=100.0, c=1.0, check_bound=False,
    )
    primes = [int(q) for q in pr.sieve(200)]
    for rec in sc.scan_records(task):
        kernel = {pow(a, rec.d, rec.p) for a in range(1, rec.p)}
        expected = [q for q in primes if q != rec.p and q % rec.p not in kernel]
        assert list(rec.q) == expected[: len(rec.q)]


def test_worker_counts_agree(monkeypatch, pool_starts):
    monkeypatch.setattr(sc, "_BATCH_SPAN", 1000)  # 4 batches of one shard
    task = small_task()
    s1 = sc.run_scan(task, workers=1)
    s2 = sc.run_scan(task, workers=2)
    s4 = sc.run_scan(task, workers=4)
    assert pool_starts == [2, 4]
    assert s1.to_json() == s2.to_json() == s4.to_json()
    assert s1.aggregate.violations == 0


def test_record_streams_identical_across_workers(tmp_path, monkeypatch, pool_starts):
    monkeypatch.setattr(sc, "_BATCH_SPAN", 2000)  # 2 batches of 2 shards
    task = small_task()
    blobs = []
    for w in (1, 2, 4, 8):
        path = tmp_path / f"records_w{w}.jsonl"
        sc.run_scan(task, out_path=str(path), workers=w)
        blobs.append(path.read_bytes())
    assert pool_starts == [2, 2, 2]  # one process per batch at most
    assert all(b == blobs[0] for b in blobs)


def test_orders_scan_identical_across_workers_and_resume(tmp_path, monkeypatch,
                                                         pool_starts):
    # p near 10^12: every base prime above 1000 takes the one-multiple strike
    monkeypatch.setattr(sc, "_BATCH_SPAN", 1000)  # one shard a batch
    task = sc.ScanTask.make(10**12, 10**12 + 3999,
                            policy=sc.OrderPolicy.divisors_up_to(12), n_max=3,
                            shard_width=1000)
    blobs = []
    for w in (1, 2, 4, 8):
        path = tmp_path / f"records_w{w}.jsonl"
        sc.run_scan(task, out_path=str(path), workers=w)
        blobs.append(path.read_bytes())
    part, ck = tmp_path / "part.jsonl", tmp_path / "ck.json"
    sc.run_scan(task, out_path=str(part), workers=2, checkpoint_path=str(ck),
                stop_after_shards=1)
    sc.run_scan(task, out_path=str(part), workers=8, checkpoint_path=str(ck))
    blobs.append(part.read_bytes())
    # 4 batches at 2, 4 and 8 workers; none for the stop's 1; 3 on resume
    assert pool_starts == [2, 4, 4, 3]
    assert blobs[0] and all(b == blobs[0] for b in blobs)


def test_checkpoint_resume_byte_identical(tmp_path):
    task = small_task()
    full = tmp_path / "full.jsonl"
    part = tmp_path / "part.jsonl"
    ck = tmp_path / "ck.json"
    s_full = sc.run_scan(task, out_path=str(full))
    sc.run_scan(task, out_path=str(part), checkpoint_path=str(ck), stop_after_shards=2)
    s_res = sc.run_scan(task, out_path=str(part), checkpoint_path=str(ck))
    assert full.read_bytes() == part.read_bytes()
    assert s_res.to_json() == s_full.to_json()


def test_checkpoint_truncates_uncommitted_tail(tmp_path):
    task = small_task()
    part = tmp_path / "part.jsonl"
    ck = tmp_path / "ck.json"
    sc.run_scan(task, out_path=str(part), checkpoint_path=str(ck), stop_after_shards=1)
    with open(part, "a") as fh:
        fh.write("garbage that was never committed\n")
    s_res = sc.run_scan(task, out_path=str(part), checkpoint_path=str(ck))
    full = tmp_path / "full.jsonl"
    s_full = sc.run_scan(task, out_path=str(full))
    assert part.read_bytes() == full.read_bytes()
    assert s_res.to_json() == s_full.to_json()


def test_resume_refuses_missing_or_short_record_file(tmp_path):
    task = small_task()
    part, ck = tmp_path / "part.jsonl", tmp_path / "ck.json"
    sc.run_scan(task, out_path=str(part), checkpoint_path=str(ck), stop_after_shards=2)
    short = part.read_bytes()[:-1]
    part.write_bytes(short)
    with pytest.raises(sc.TaskMismatchError):
        sc.run_scan(task, out_path=str(part), checkpoint_path=str(ck))
    assert part.read_bytes() == short  # neither padded nor truncated
    part.unlink()
    with pytest.raises(sc.TaskMismatchError):
        sc.run_scan(task, out_path=str(part), checkpoint_path=str(ck))
    assert not part.exists()


def test_resume_refuses_checkpoint_without_record_offset(tmp_path):
    task = small_task()
    part, ck = tmp_path / "part.jsonl", tmp_path / "ck.json"
    sc.run_scan(task, checkpoint_path=str(ck), stop_after_shards=1)
    with pytest.raises(sc.TaskMismatchError):
        sc.run_scan(task, out_path=str(part), checkpoint_path=str(ck))


@pytest.mark.parametrize("path", [("records",), ("per_n", 0, "max_q")],
                         ids=["records", "max_q"])
def test_resume_refuses_checkpoint_missing_an_aggregate_field(tmp_path, path):
    # a field filled in by its default would corrupt the summary
    task = small_task()
    part, ck = tmp_path / "part.jsonl", tmp_path / "ck.json"
    sc.run_scan(task, out_path=str(part), checkpoint_path=str(ck), stop_after_shards=2)
    saved = json.loads(ck.read_text())
    node = saved["aggregate"]
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    ck.write_text(json.dumps(saved))
    written = part.read_bytes()
    with pytest.raises(sc.TaskMismatchError, match=path[-1]):
        sc.run_scan(task, out_path=str(part), checkpoint_path=str(ck))
    assert part.read_bytes() == written


def test_resume_refuses_per_n_stats_out_of_order(tmp_path):
    # per_n[0] for n = 2 and per_n[1] for n = 1 resumed, and the summary's
    # n = 1 stats went on counting q_2
    task = small_task(n_max=2, n0=2, c=None)
    part, ck = tmp_path / "part.jsonl", tmp_path / "ck.json"
    sc.run_scan(task, out_path=str(part), checkpoint_path=str(ck), stop_after_shards=1)
    saved = json.loads(ck.read_text())
    per_n = saved["aggregate"]["per_n"]
    per_n[0]["n"], per_n[1]["n"] = 2, 1
    ck.write_text(json.dumps(saved))
    written = part.read_bytes()
    with pytest.raises(sc.TaskMismatchError, match=r"\[2, 1\].*refusing to resume"):
        sc.run_scan(task, out_path=str(part), checkpoint_path=str(ck))
    assert part.read_bytes() == written


def test_resume_refuses_modified_task(tmp_path):
    task = small_task()
    ck = tmp_path / "ck.json"
    out = tmp_path / "r.jsonl"
    sc.run_scan(task, out_path=str(out), checkpoint_path=str(ck), stop_after_shards=1)
    other = small_task(n_max=1, shard_width=500)
    with pytest.raises(sc.TaskMismatchError):
        sc.run_scan(other, out_path=str(out), checkpoint_path=str(ck))
    fmt_clash = small_task()
    with pytest.raises(sc.TaskMismatchError):
        sc.run_scan(fmt_clash, out_path=str(out), fmt="csv", checkpoint_path=str(ck))


def test_fresh_state_starts_at_p_lo(tmp_path):
    task = small_task()
    out = tmp_path / "r.jsonl"
    sc.run_scan(task, out_path=str(out), checkpoint_path=str(tmp_path / "c.json"))
    first = json.loads(out.read_text().splitlines()[0])
    assert first["p"] == 10000019  # first prime at or above 1e7


def test_empty_range():
    task = small_task(p_lo=10**7 + 18, p_hi=10**7 + 18)  # composite singleton
    s = sc.run_scan(task)
    assert s.aggregate.records == 0
    assert all(stats.max_q is None for stats in s.aggregate.per_n)


def test_task_validation():
    with pytest.raises(ValueError):
        small_task(p_lo=10**6)  # below p0
    with pytest.raises(ValueError):
        small_task(n_max=2)  # n_max > n0
    with pytest.raises(ValueError):
        small_task(c=1.4)  # below g(n0, p0)
    with pytest.raises(ValueError):
        small_task(c=2.0)  # not a rounding of g(n0, p0)
    with pytest.raises(ValueError):
        sc.ScanTask.make(10**7, 10**7 + 10, n_max=1, n0=3, p0=1e7, c=1.0)  # invalid ref
    with pytest.raises(ValueError, match=r"not valid: failed \('xstar_gt_3.8',\)"):
        sc.ScanTask.make(10**7, 10**7 + 10, n_max=1, n0=3, p0=1e7)  # no g to freeze
    with pytest.raises(ValueError, match="needs the frozen constant c"):  # was an AttributeError
        sc.ScanTask(p_lo=10**7, p_hi=10**7 + 100, policy=sc.OrderPolicy.quadratic(),
                    n_max=1, n0=1, p0=1e7, c=None)


def test_no_bound_check_allows_low_range():
    task = sc.ScanTask(
        p_lo=100, p_hi=200, policy=sc.OrderPolicy.quadratic(), n_max=2,
        n0=2, p0=100.0, c=1.0, check_bound=False,
    )
    recs = list(sc.scan_records(task))
    assert [r.p for r in recs] == [int(p) for p in pr.primes_in_range(100, 200)]


def test_make_without_bound_check_computes_no_constant(pool_starts):
    # g(3, 1e7) is undefined, which must not matter when nothing is checked
    task = sc.ScanTask.make(10**7, 10**7 + 100, n_max=3, check_bound=False)
    assert task.c is None
    summary = sc.run_scan(task, workers=2)
    assert pool_starts == []  # one batch: 2 workers start no pool
    assert summary.aggregate.records > 0 and summary.aggregate.violations == 0
    assert json.loads(summary.to_json())["c"] is None


def test_cap_exhaustion_recorded_not_fatal():
    task = sc.ScanTask(
        p_lo=10**7, p_hi=10**7 + 60, policy=sc.OrderPolicy.quadratic(),
        n_max=3, n0=3, p0=1e7, c=1.0, search_cap=2, check_bound=False,
    )
    recs = list(sc.scan_records(task))
    assert recs and all(r.cap_exhausted for r in recs)
    assert all(len(r.q) < 3 for r in recs)
    s = sc.run_scan(task)
    assert s.aggregate.cap_exhausted == len(recs)


def test_order_policies():
    quad = sc.OrderPolicy.quadratic()
    assert quad.orders_for(11) == [2]
    upto = sc.OrderPolicy.divisors_up_to(6)
    assert upto.orders_for(13) == [2, 3, 4, 6]
    fixed = sc.OrderPolicy.fixed_set([2, 5, 9])
    assert fixed.orders_for(11) == [2, 5]
    assert fixed.orders_for(13) == [2]
    with pytest.raises(ValueError):
        sc.OrderPolicy(kind="bogus")


@pytest.mark.parametrize("orders", [[1], [0, -4], [2, 1], [-3, 5]])
def test_fixed_set_refuses_orders_below_2(orders):
    # such an order was dropped without a word, and set:1 scanned nothing
    with pytest.raises(ValueError, match=">= 2"):
        sc.OrderPolicy.fixed_set(orders)


def test_scan_records_refuses_workers_below_one(tmp_path):
    task = sc.ScanTask(p_lo=101, p_hi=140, policy=sc.OrderPolicy.quadratic(),
                       n_max=1, n0=1, p0=101.0, c=None, check_bound=False)
    for workers in (0, -3):  # -3 ran serially and yielded 9 records
        with pytest.raises(ValueError, match="workers"):
            list(sc.scan_records(task, workers=workers))
    # run_scan refuses before it touches the record file
    out = tmp_path / "records.jsonl"
    out.write_text("kept\n")
    with pytest.raises(ValueError, match="workers"):
        sc.run_scan(task, out_path=str(out), workers=0)
    assert out.read_text() == "kept\n"


def test_scan_task_refuses_a_constant_below_g(monkeypatch):
    g_hi, _ = bd.reference_g(1, 1e7)
    task = small_task(c=bd.ceil_3dp(g_hi))
    # the first two were once let through by a 1e-9 allowance; g evaluated
    # in doubles, 1.529478876435229, lies 2.7e-16 below the true g(1, 10^7),
    # and was once accepted and published
    g = 1.529478876435229
    for c in (g - 5e-10, math.nextafter(g, 0), g):
        with pytest.raises(ValueError, match=r"rounding-up.*g_le_c"):
            sc.ScanTask(**dict(task.__dict__, c=c))
    assert not bd.certify_freeze(1, 10**7, g).ok
    assert g < g_hi and sc.ScanTask(**dict(task.__dict__, c=g_hi)).c == g_hi
    # the ceiling g_hi + 0.001 has no allowance: ceil_3dp(g_hi) always meets it
    top = g_hi + 0.001
    assert sc.ScanTask(**dict(task.__dict__, c=top)).c == top
    with pytest.raises(ValueError, match="rounding-up"):
        sc.ScanTask(**dict(task.__dict__, c=math.nextafter(top, 2)))
    # the default freeze rounds g up with ceil_3dp, never below g: for g one
    # ulp above the double 1.126, g * 1000 rounds to 1126 exactly (the
    # certificate is stubbed to g's side, since this g is not g(1, 10^7))
    g = math.nextafter(1.126, 2)
    monkeypatch.setattr(sc, "reference_g", lambda n0, p0: (g, ()))
    monkeypatch.setattr(sc, "certify_freeze", lambda n0, p0, c: SimpleNamespace(
        ok=c >= g, failed=()))
    assert small_task(c=None).c == bd.ceil_3dp(g) == 1.127


def test_search_cap_defaults_are_the_package_default():
    task = sc.ScanTask(p_lo=10**7, p_hi=10**7 + 100, policy=sc.OrderPolicy.quadratic(),
                       n_max=1, n0=1, p0=1e7, c=None, check_bound=False)
    assert task.search_cap == DEFAULT_SEARCH_CAP
    for argv in (["scan", "--p-lo", "1", "--p-hi", "2"],
                 ["nonresidues", "--p", "7", "--d", "2", "--n", "1"]):
        assert cli.build_parser().parse_args(argv).cap == DEFAULT_SEARCH_CAP


def test_default_p0_is_the_largest_double_at_or_below_p_lo():
    # float(10**17 + 13) is 10^17 + 16: the default p0 refused its own p_lo
    task = sc.ScanTask.make(10**17 + 13, 10**17 + 200)
    assert task.p0 == 1e17 and math.nextafter(task.p0, math.inf) > task.p_lo
    assert sc.ScanTask.make(2**53 + 1, 2**53 + 100).p0 == 2.0**53
    assert sc.ScanTask.make(10**7 + 1, 10**7 + 10).p0 == 10**7 + 1  # exact below 2^53


def test_scan_task_refuses_an_invalid_reference_pair_before_certifying(monkeypatch):
    # certify_freeze would refuse this pair too, but in time linear in n0
    # (about 30 s at n0 = 10^5): reference_g must refuse it first
    def certify_freeze(n0, p0, c):
        raise AssertionError("certify_freeze ran on an invalid reference pair")

    monkeypatch.setattr(sc, "certify_freeze", certify_freeze)
    with pytest.raises(ValueError, match=r"reference pair \(n0=100000, p0=10000000.0\)"):
        sc.ScanTask.make(10**7, 10**7 + 10, n_max=1, n0=10**5, p0=1e7, c=2.0)


@pytest.mark.parametrize("check_bound", [True, False])
@pytest.mark.parametrize("c", [math.inf, -math.inf, math.nan])
def test_scan_task_refuses_a_non_finite_constant(c, check_bound):
    # c = inf overflowed in certify_freeze; unchecked, inf and nan were
    # written into the summary, which is then not JSON
    with pytest.raises(ValueError, match="finite"):
        sc.ScanTask.make(10**7, 10**7 + 10, c=c, check_bound=check_bound)


def test_scan_refuses_bad_counts():
    task = sc.ScanTask(p_lo=101, p_hi=140, policy=sc.OrderPolicy.quadratic(),
                       n_max=1, n0=1, p0=101.0, c=None, check_bound=False)
    for cap in (0, -5):
        with pytest.raises(ValueError, match="search_cap"):
            sc.ScanTask(**dict(task.__dict__, search_cap=cap))
    for kw in ({"workers": 0}, {"workers": -3},
               {"stop_after_shards": 0}, {"stop_after_shards": -2}):
        with pytest.raises(ValueError, match=next(iter(kw))):
            sc.run_scan(task, **kw)


def test_divisor_policy_matches_divisors_of_p_minus_1():
    for limit in (2, 12, 60):
        policy = sc.OrderPolicy.divisors_up_to(limit)
        for p in map(int, pr.sieve(10**5)[1:]):
            expected = [d for d in pr.divisors(p - 1) if 2 <= d <= limit]
            assert policy.orders_for(p) == expected


def test_scan_with_divisor_policy():
    task = sc.ScanTask(
        p_lo=101, p_hi=140, policy=sc.OrderPolicy.divisors_up_to(8), n_max=1,
        n0=1, p0=101.0, c=1.0, check_bound=False,
    )
    recs = list(sc.scan_records(task))
    for rec in recs:
        assert (rec.p - 1) % rec.d == 0 and 2 <= rec.d <= 8
    assert len({r.p for r in recs}) == len(list(pr.primes_in_range(101, 140)))


def test_bound_ok_exact_decision():
    assert sc._bound_ok(10, 1, 10**7, 1.53)
    # brute borderline: constant tuned so the bound sits almost exactly at q
    p, n = 10**7 + 19, 1
    q = 11
    c_tight = q / (p**0.25 * math.log(p) ** ((n + 1) / 2))
    assert sc._bound_ok(q, n, p, c_tight * (1 + 1e-12))
    assert not sc._bound_ok(q, n, p, c_tight * (1 - 1e-12))


def _bound_ok_50_digits(q_n, n, p, c):
    """The border rule the scan used before its interval enclosure: a float
    filter at b (1 -/+ 10^-9), then one 50-digit point evaluation."""
    b = c * bound_shape(n, p)
    if q_n <= b * (1.0 - 1e-9):
        return True
    if q_n > b * (1.0 + 1e-9):
        return False
    with mpmath.workdps(50):
        exact = (mpmath.mpf(c) * mpmath.mpf(p) ** mpmath.mpf("0.25")
                 * mpmath.log(p) ** (mpmath.mpf(n + 1) / 2))
        return mpmath.mpf(q_n) <= exact


BORDER_PRIMES = (1000003, 10**7 + 19, 10**9 + 7, 10**12 + 39, 2**61 - 1)
BORDER_DELTAS = (0.0, 1e-16, -1e-16, 1e-14, -1e-14, 1e-12, -1e-12, 1e-10, -1e-10,
                 5e-9, -5e-9)


def test_bound_ok_agrees_with_the_50_digit_rule_on_border_cases():
    cases = verdicts = 0
    for p in BORDER_PRIMES:
        for n in range(1, 9):
            for q in (2, 3, 11, 997, 65537, 10**6):
                c_tight = q / (p**0.25 * math.log(p) ** ((n + 1) / 2))
                for delta in BORDER_DELTAS:
                    c = c_tight * (1 + delta)
                    got = sc._bound_ok(q, n, p, c)
                    assert got == _bound_ok_50_digits(q, n, p, c), (q, n, p, delta)
                    cases += 1
                    verdicts += got
    assert cases == 5 * 8 * 6 * 11 and 0 < verdicts < cases


def test_bound_ok_raises_the_precision_until_the_enclosure_decides(monkeypatch):
    precs = []
    context = sc.interval_context
    monkeypatch.setattr(sc, "interval_context",
                        lambda prec: precs.append(prec) or context(prec))
    monkeypatch.setattr(sc, "DEFAULT_PREC", 10)
    p, n, q = 10**7 + 19, 2, 11
    c_tight = q / (p**0.25 * math.log(p) ** ((n + 1) / 2))
    for delta in (1e-12, -1e-12):
        precs.clear()
        c = c_tight * (1 + delta)
        assert sc._bound_ok(q, n, p, c) == _bound_ok_50_digits(q, n, p, c) == (delta > 0)
        assert precs[:3] == [10, 20, 40]  # two doublings at least


def test_violation_halts_with_reproducer():
    # a constant below g(n0, p0) cannot pass task validation, so forge one
    # to exercise the halt-with-reproducer machinery
    task = small_task(p_hi=10**7 + 100)
    object.__setattr__(task, "c", 1e-6)
    with pytest.raises(sc.ScanViolationError) as exc:
        sc.run_scan(task)
    assert exc.value.record.p == 10000019
    s = sc.run_scan(task, raise_on_violation=False)
    assert s.aggregate.violations == s.aggregate.records > 0


# -- aggregates ---------------------------------------------------------------


def test_aggregate_single_record(records):
    agg = sc.Aggregate.from_records(records[:1], 1)
    r = records[0]
    assert agg.records == 1
    assert agg.per_n[0].max_q == r.q[0]
    assert agg.per_n[0].max_ratio == r.ratio[0]
    assert agg.per_n[0].max_ratio_witness == (r.p, r.d)


def test_per_n_stats_tie_break_through_add():
    # equal max_q and ratio on three witnesses: the smallest (p, d) wins
    recs = [sc.ScanRecord(p=p, d=2, q=(5,), ratio=(0.5,), bound_ok=(True,))
            for p in (13, 11, 17)]
    added = sc.PerNStats(1)
    for rec in recs:
        added.add(sc.Shard.from_records([rec], 1))
    assert added.max_q_witness == added.max_ratio_witness == (11, 2)
    assert added.count == 3


def test_aggregate_json_roundtrip(records):
    agg = sc.Aggregate.from_records(records, 1)
    rt = sc.Aggregate.from_json_obj(json.loads(json.dumps(agg.to_json_obj())))
    assert rt.to_json_obj() == agg.to_json_obj()


def test_csv_format(tmp_path):
    task = small_task(p_hi=10**7 + 300)
    path = tmp_path / "r.csv"
    sc.run_scan(task, out_path=str(path), fmt="csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "p,d,q_1,ratio_1,bound_ok,cap_exhausted"
    cells = lines[1].split(",")
    assert cells[0] == "10000019" and cells[1] == "2"
    assert cells[4] == "true" and cells[5] == "false"


# -- columnar shards ----------------------------------------------------------

POLICIES = [sc.OrderPolicy.quadratic(), sc.OrderPolicy.divisors_up_to(12),
            sc.OrderPolicy.fixed_set([2, 3, 5, 7, 1000])]


def pow_loop_nonresidues(p, d, count, small_primes):
    """Reference search written out with builtin pow."""
    out = []
    for q in small_primes:
        if len(out) == count:
            break
        if q != p and pow(q, (p - 1) // d, p) != 1:
            out.append(q)
    return out


@pytest.mark.parametrize("n_max", [1, 3, 5])
@pytest.mark.parametrize("policy", POLICIES, ids=lambda pol: pol.kind)
def test_scan_small_primes_against_pow_loop(policy, n_max):
    # every prime in [3, 600], so that q = p arises and is skipped
    task = sc.ScanTask(p_lo=2, p_hi=600, policy=policy, n_max=n_max, n0=n_max,
                       p0=2.0, c=None, check_bound=False, shard_width=97)
    small = [int(q) for q in pr.sieve(5000)]
    recs = list(sc.scan_records(task))
    assert [(r.p, r.d) for r in recs] == [
        (p, d) for p in map(int, pr.sieve(600)) for d in policy.orders_for(p)]
    for r in recs:
        assert list(r.q) == pow_loop_nonresidues(r.p, r.d, n_max, small)
        assert r.ratio == tuple(q / (r.p**0.25 * math.log(r.p) ** ((n + 1) / 2))
                                for n, q in enumerate(r.q, start=1))
        assert r.bound_ok == (True,) * n_max and not r.cap_exhausted


@pytest.mark.parametrize("policy", POLICIES, ids=lambda pol: pol.kind)
def test_policy_rows_match_orders_for(policy):
    for lo, hi in ((2, 3000), (10**7, 10**7 + 2000), (10**12, 10**12 + 2000)):
        primes = pr.primes_in_range(lo, hi)
        p, d = policy.rows(primes)
        assert p.dtype == d.dtype == np.int64
        assert list(zip(p.tolist(), d.tolist())) == [
            (x, y) for x in map(int, primes) for y in policy.orders_for(x)]


def _capped_task(n_max=3, cap=7):
    # caps at 7 and divisor orders: full rows, short rows and empty rows
    return sc.ScanTask(p_lo=10**7, p_hi=10**7 + 3000,
                       policy=sc.OrderPolicy.divisors_up_to(6), n_max=n_max,
                       n0=n_max, p0=1e7, c=None, search_cap=cap,
                       check_bound=False, shard_width=1000)


def _forged_task():
    # a forged constant: some rows pass and some violate
    task = small_task(shard_width=1000)
    object.__setattr__(task, "c", 0.015)
    return task


@pytest.mark.parametrize("make_task", [
    _capped_task, _forged_task,
    lambda: sc.ScanTask.make(10**12, 10**12 + 1999,
                             policy=sc.OrderPolicy.divisors_up_to(12), n_max=3,
                             shard_width=1000),
    # one template per cell count: every count 0..n_max occurs
    lambda: _capped_task(n_max=1, cap=3),
    lambda: _capped_task(n_max=5, cap=11),
], ids=["capped", "forged", "orders-1e12", "capped-n1", "capped-n5"])
def test_shard_text_equals_row_serializers(make_task):
    task = make_task()
    seen = set()
    for i in range(task.shard_count):
        jsonl = sc._compute_shards(task, range(i, i + 1), "jsonl")[0]
        csv = sc._compute_shards(task, range(i, i + 1), "csv")[0]
        recs = [jsonl.record(r) for r in range(len(jsonl.p))]
        assert jsonl.text.splitlines() == [
            json.dumps(rec.to_json_obj(), sort_keys=True) for rec in recs]
        assert csv.text.splitlines() == [rec.to_csv_row(task.n_max) for rec in recs]
        assert jsonl.text.endswith("\n") == bool(recs) and csv.text.count("\n") == len(recs)
        seen |= {(len(r.q), r.cap_exhausted, all(r.bound_ok)) for r in recs}
    if make_task is _capped_task:
        assert {(0, True, True), (2, True, True), (3, False, True)} <= seen
    if not task.check_bound:
        assert {k for k, _, _ in seen} == set(range(task.n_max + 1))
    if make_task is _forged_task:
        assert {(1, False, True), (1, False, False)} <= seen


def _ulps(v):
    return [float(np.nextafter(v, 0)), v, float(np.nextafter(v, np.inf))]


# ratios that no golden holds (they all lie in (4.7e-8, 0.02))
ODD_RATIOS = [
    1.0, 2.0, 3.5, 10.0, 123456.789, 2.0**52 + 0.5, 2.0**53, 9999999999999998.0,
    1e16, 1.5e16, 1e22, 1e300, 1e-6, 4.7e-7, 1e-7, 3.3e-12, 1e-300,
    5e-324, sys.float_info.max, 2.2250738585072014e-308,
    1125899906842624.25, 2179511128021389.75,  # ties, left to repr
    *[x for k in (-60, -40, -21, -20, -1, 0, 1, 30, 52, 53, 60) for x in _ulps(2.0**k)],
    *[x for k in (-9, -6, -5, -4, -1, 0, 1, 15, 16, 17) for x in _ulps(10.0**k)],
]


def test_row_keys_are_equal_iff_rows_are_past_the_int64_range():
    # three parts of radix 2^32 span 2^96 keys: packed without renumbering,
    # (1, 0, 0) would wrap onto (0, 0, 0)
    rows = np.array([[0, 0, 0], [1, 0, 0], [0, 0, 1], [1, 0, 0],
                     [0, 2**32 - 1, 2**32 - 1], [2**32 - 1, 0, 0]], np.int64)
    key = sc._row_keys([(col, 2**32) for col in rows.T]).tolist()
    assert [[a == b for b in key] for a in key] == [
        [(x == y).all() for y in rows] for x in rows]


@pytest.mark.parametrize("n_max", [1, 3, 8])
def test_shard_text_equals_row_serializers_on_ratios_no_scan_makes(n_max):
    # rows of every count 0..n_max, mixed verdicts, several d and p up to
    # 2^63, over ratios that a scan never writes; at n_max 8 the row keys
    # outgrow an int64 and are renumbered on the way
    rng = np.random.default_rng(n_max)
    rows = -(-len(ODD_RATIOS) // n_max) + n_max + 1
    count = np.concatenate([np.full(rows - n_max - 1, n_max), np.arange(n_max + 1)])
    present = np.arange(n_max) < count[:, None]
    ratio = np.zeros((rows, n_max))
    ratio[present] = (ODD_RATIOS * 2)[: present.sum()]
    shard = sc.Shard(p=np.sort(rng.integers(3, 2**63 - 1, rows)),
                     d=rng.choice([2, 3, 12, 1000], rows),
                     q=rng.integers(2, 10**6, (rows, n_max)), count=count, ratio=ratio,
                     ok=(rng.random((rows, n_max)) < 0.7) | ~present)
    assert set(ODD_RATIOS) <= set(shard.ratio[present].tolist())
    recs = [shard.record(r) for r in range(rows)]
    for fmt, line in (("jsonl", sc.ScanRecord.to_jsonl),
                      ("csv", lambda rec: rec.to_csv_row(n_max))):
        (text,) = shard.format(fmt)
        assert text.splitlines() == list(map(line, recs))
        # cut anywhere, each piece is the text of its rows alone
        cuts = [0, 5, 5, 11, rows - 1]
        pieces = shard.format(fmt, cuts)
        assert "".join(pieces) == text and pieces[0] == pieces[2] == ""
        for a, b, piece in zip([0, *cuts], [*cuts, rows], pieces):
            rows_alone = sc.Shard(*(getattr(shard, c)[a:b] for c in
                                    ("p", "d", "q", "count", "ratio", "ok")))
            assert rows_alone.format(fmt) == [piece]


@pytest.mark.parametrize("lo", [10**7, 2**31 - 500, 10**12, 2**63 - 1001])
def test_shard_shapes_are_bound_shape_bit_for_bit(lo):
    # a shard's shapes come from one comprehension per n, which must round
    # exactly as bound_shape does, or the ratios would change
    task = sc.ScanTask(p_lo=lo, p_hi=lo + 1000, policy=sc.OrderPolicy.quadratic(),
                       n_max=8, n0=8, p0=float(lo), c=None, check_bound=False,
                       shard_width=1001)
    primes = pr.primes_in_range(lo, lo + 1000).tolist()
    assert bd.bound_shapes(primes, 8) == [
        [bound_shape(n, p) for p in primes] for n in range(1, 9)]
    shard = sc._compute_shards(task, range(1))[0]
    assert shard.p.tolist() == primes and (shard.count == 8).all()
    assert shard.ratio.tolist() == [
        [q / bound_shape(n, p) for n, q in enumerate(qs, 1)]
        for p, qs in zip(primes, shard.q.tolist())]


def test_shard_bound_filter_sends_only_border_cells_to_bound_ok(monkeypatch):
    task = small_task(p_hi=10**7 + 100)
    rec = next(sc.scan_records(task))
    p, n, q = rec.p, 1, rec.q[0]
    c_tight = q / (p**0.25 * math.log(p) ** ((n + 1) / 2))
    calls = []
    bound_ok = sc._bound_ok

    def counted(*args):
        calls.append(args)
        return bound_ok(*args)

    monkeypatch.setattr(sc, "_bound_ok", counted)
    for forged, verdict in ((c_tight * (1 + 1e-12), True), (c_tight * (1 - 1e-12), False)):
        object.__setattr__(task, "c", forged)
        calls.clear()
        shard = sc._compute_shards(task, range(1))[0]
        assert calls == [(q, n, p, forged)]
        assert shard.p[0] == p and shard.ok[0, 0] == verdict
        for r in range(len(shard.p)):  # the filter agrees with _bound_ok everywhere
            assert shard.ok[r, 0] == bound_ok(int(shard.q[r, 0]), 1, int(shard.p[r]), forged)


def _per_row_aggregate(records, n_max):
    """The aggregate as a record-at-a-time loop: a larger value wins, equal
    values go to the smaller (p, d)."""
    agg = {"records": 0, "cap_exhausted": 0, "violations": 0, "violation_examples": [],
           "per_n": [dict(n=n, count=0, max_q=None, max_q_witness=None, max_ratio=None,
                          max_ratio_witness=None) for n in range(1, n_max + 1)]}
    for rec in records:
        agg["records"] += 1
        agg["cap_exhausted"] += rec.cap_exhausted
        if not all(rec.bound_ok):
            agg["violations"] += 1
            if len(agg["violation_examples"]) < 10:
                agg["violation_examples"].append(rec.to_json_obj())
        for st in agg["per_n"]:
            if len(rec.q) < st["n"]:
                continue
            st["count"] += 1
            wit = [rec.p, rec.d]
            for key, value in (("max_q", rec.q[st["n"] - 1]), ("max_ratio", rec.ratio[st["n"] - 1])):
                best, best_wit = st[key], st[key + "_witness"]
                if best is None or value > best or (value == best and wit < best_wit):
                    st[key], st[key + "_witness"] = value, wit
    return agg


def test_shard_aggregate_equals_per_row_addition_on_ties():
    import random

    rng = random.Random(7)
    n_max = 3
    recs = []
    for p in (101, 103, 107, 109, 113, 127, 131, 137, 139, 149):
        for d in (2, 3, 5):
            k = rng.choice([0, 1, 2, 3, 3, 3])
            q = tuple(sorted(rng.sample([5, 7, 11, 13], k)))
            ratio = tuple(rng.choice([0.25, 0.5]) for _ in q)
            ok = tuple(rng.random() < 0.6 for _ in q)
            recs.append(sc.ScanRecord(p=p, d=d, q=q, ratio=ratio, bound_ok=ok,
                                      cap_exhausted=k < n_max))
    assert sum(not all(r.bound_ok) for r in recs) > 10  # the example list fills up
    for order in (recs, recs[::-1], rng.sample(recs, len(recs))):
        want = json.dumps(_per_row_aggregate(order, n_max), sort_keys=True)
        whole = sc.Aggregate.from_records(order, n_max)
        rows = sc.Aggregate.empty(n_max)
        for rec in order:
            rows.add(sc.Shard.from_records([rec], n_max))
        split = sc.Aggregate.empty(n_max)
        for part in (order[:5], order[5:6], [], order[6:]):
            split.add(sc.Shard.from_records(part, n_max))
        for agg in (whole, rows, split):
            assert json.dumps(agg.to_json_obj(), sort_keys=True) == want


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("make_task", [_capped_task, _forged_task], ids=["capped", "forged"])
def test_resume_carries_caps_violations_and_tied_maxima(tmp_path, make_task, fmt):
    # after 2 of 4 shards the checkpoint holds cap counts (capped) or
    # violation examples (forged), and maxima that a later shard ties: the
    # resumed run must go on from them, witnesses compared as tuples again
    task = make_task()
    full, part = tmp_path / f"full.{fmt}", tmp_path / f"part.{fmt}"
    ck = tmp_path / "ck.json"
    s_full = sc.run_scan(task, out_path=str(full), fmt=fmt, raise_on_violation=False)
    sc.run_scan(task, out_path=str(part), fmt=fmt, checkpoint_path=str(ck),
                stop_after_shards=2, raise_on_violation=False)
    saved = json.loads(ck.read_text())
    with open(cli.schema_path("checkpoint")) as fh:
        jsonschema.validate(saved, json.load(fh))
    agg = saved["aggregate"]
    assert agg["cap_exhausted"] if make_task is _capped_task else agg["violation_examples"]
    tail = sc._compute_shards(task, range(2, task.shard_count))
    assert any(st["max_q"] in sh.q[sh.count >= st["n"], st["n"] - 1]
               for st in agg["per_n"] for sh in tail)
    s_res = sc.run_scan(task, out_path=str(part), fmt=fmt, checkpoint_path=str(ck),
                        raise_on_violation=False)
    assert part.read_bytes() == full.read_bytes()
    assert s_res.to_json() == s_full.to_json()


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_violation_halt_writes_through_the_first_violation(tmp_path, monkeypatch,
                                                           pool_starts, fmt):
    monkeypatch.setattr(sc, "_BATCH_SPAN", 2000)  # the halt stops a pool of 2
    task = _forged_task()
    full = tmp_path / f"full.{fmt}"
    sc.run_scan(task, out_path=str(full), fmt=fmt, raise_on_violation=False)
    recs = list(sc.scan_records(task))
    first = next(i for i, r in enumerate(recs) if not all(r.bound_ok))
    assert first >= 62  # past the first shard, inside a later one
    part = tmp_path / f"part.{fmt}"
    with pytest.raises(sc.ScanViolationError) as exc:
        sc.run_scan(task, out_path=str(part), fmt=fmt, workers=2)
    assert pool_starts == [2]
    assert exc.value.record == recs[first]
    head = 1 if fmt == "csv" else 0
    lines = full.read_text().splitlines(keepends=True)
    assert part.read_text() == "".join(lines[: head + first + 1])


# Records and summaries of two scans, written before border cells moved from
# a 50-digit point evaluation to an interval enclosure: every byte must stay.
# Each data file is run_scan's output for ScanTask.make(**GOLDEN_SCANS[name]),
# and the .summary.json file is its ScanSummary.to_json().
GOLDEN_SCANS = {
    "scan_quadratic_1e7": dict(p_lo=10**7, p_hi=10**7 + 5000, n_max=1, shard_width=1000,
                               policy=sc.OrderPolicy.quadratic()),
    "scan_upto12_1e12": dict(p_lo=10**12, p_hi=10**12 + 1000, n_max=3, shard_width=250,
                             policy=sc.OrderPolicy.divisors_up_to(12)),
    # quadratic searches decided by reciprocity, at p around 2^31, 10^12 and 2^63
    "scan_quadratic_2e31": dict(p_lo=2**31 - 3000, p_hi=2**31 + 3000, n_max=3,
                                shard_width=1000, policy=sc.OrderPolicy.quadratic()),
    "scan_quadratic_1e12": dict(p_lo=10**12, p_hi=10**12 + 3000, n_max=3,
                                shard_width=1000, policy=sc.OrderPolicy.quadratic()),
    "scan_quadratic_2e63": dict(p_lo=2**63 - 3000, p_hi=2**63 - 2, n_max=3,
                                shard_width=1000, policy=sc.OrderPolicy.quadratic()),
    # shards of int64 kernel tests below 2^50, of pow above, and one across 2^50
    "scan_upto12_2e50": dict(p_lo=2**50 - 2500, p_hi=2**50 + 1499, n_max=3,
                             shard_width=1000, policy=sc.OrderPolicy.divisors_up_to(12)),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SCANS))
def test_scan_outputs_match_golden(name, tmp_path):
    data = pathlib.Path(__file__).parent / "data"
    task = sc.ScanTask.make(**GOLDEN_SCANS[name])
    for fmt in ("jsonl", "csv"):
        out = tmp_path / f"{name}.{fmt}"
        summary = sc.run_scan(task, out_path=str(out), fmt=fmt)
        assert out.read_bytes() == (data / f"{name}.{fmt}").read_bytes(), fmt
        assert summary.to_json() == (data / f"{name}.summary.json").read_text()


@pytest.mark.parametrize("workers", [1, 2])
def test_orders_scan_matches_golden_at_any_worker_count(workers, tmp_path, monkeypatch,
                                                        pool_starts):
    # the scan-orders benchmark's seed-0 range: 1,309 rows of orders d | 12 on
    # 335 primes, whose searches mix d = 2 and d > 2 rows in each kernel call;
    # written before the kernel's windowed chain and split quadratic cells
    data = pathlib.Path(__file__).parent / "data"
    name = "scan_upto12_1e12_10k"
    monkeypatch.setattr(sc, "_BATCH_SPAN", 2000)  # 5 batches of 2 shards
    task = sc.ScanTask.make(10**12, 10**12 + 9999, n_max=3, shard_width=1000,
                            policy=sc.OrderPolicy.divisors_up_to(12))
    assert task.shard_count == 10
    for fmt in ("jsonl", "csv"):
        out = tmp_path / f"{name}.{fmt}"
        summary = sc.run_scan(task, out_path=str(out), fmt=fmt, workers=workers)
        assert out.read_bytes() == (data / f"{name}.{fmt}").read_bytes(), fmt
        assert summary.to_json() == (data / f"{name}.summary.json").read_text()
    assert summary.aggregate.records == 1309
    assert pool_starts == ([] if workers == 1 else [2, 2])  # a pool per format


def _sparse_task():
    # 17-wide shards near 10^7, some of them without a prime
    return sc.ScanTask(p_lo=10**7, p_hi=10**7 + 400, policy=sc.OrderPolicy.divisors_up_to(4),
                       n_max=2, n0=2, p0=1e7, c=None, check_bound=False, shard_width=17)


def _assert_same_shard(a, b):
    for name in ("p", "d", "q", "count", "ratio", "ok", "cap"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape and (x == y).all(), name
    assert a.text == b.text


@pytest.mark.parametrize("make_task", [
    _capped_task, _forged_task, _sparse_task,
    # int64 kernel tests below 2^50 and pow above, in one batch
    lambda: sc.ScanTask.make(**GOLDEN_SCANS["scan_upto12_2e50"]),
], ids=["capped", "forged", "sparse", "across-2e50"])
def test_batched_shards_equal_one_shard_batches(make_task):
    task = make_task()
    n = task.shard_count
    for fmt in ("jsonl", "csv", None):
        alone = [sc._compute_shards(task, range(i, i + 1), fmt)[0] for i in range(n)]
        if make_task is _sparse_task:
            assert 0 in [len(s.p) for s in alone[1:-1]]  # empty shards inside a batch
        for batch in (range(n), range(1, n - 1), range(n - 2, n)):
            shards = sc._compute_shards(task, batch, fmt)
            assert len(shards) == len(batch)
            for i, shard in zip(batch, shards):
                _assert_same_shard(shard, alone[i])


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("make_task", [_sparse_task, _forged_task], ids=["sparse", "forged"])
def test_batch_text_is_cut_at_shards_as_each_shard_formats_alone(
        tmp_path, monkeypatch, pool_starts, make_task, workers, fmt):
    # a batch is formatted once and cut at its shards' first rows: each
    # shard's text, and the file that run_scan writes up to a violation
    # halt, must be what formatting each shard alone gives
    task = make_task()
    monkeypatch.setattr(sc, "_BATCH_SPAN", 2 * task.shard_width)  # batches of 2
    everything = range(task.shard_count)
    alone = [shard.format(fmt)[0] for shard in sc._compute_shards(task, everything)]
    assert [shard.text for shard in sc._compute_shards(task, everything, fmt)] == alone
    if make_task is _sparse_task:
        assert "" in alone[1:-1]  # shards with no prime, inside a batch
    recs = list(sc.scan_records(task))
    bad = [i for i, rec in enumerate(recs) if not all(rec.bound_ok)]
    assert bool(bad) == (make_task is _forged_task)
    out = tmp_path / f"r.{fmt}"
    try:
        sc.run_scan(task, out_path=str(out), fmt=fmt, workers=workers)
    except sc.ScanViolationError as exc:
        assert exc.record == recs[bad[0]]
    lines = "".join(alone).splitlines(keepends=True)
    head = sc.csv_header(task.n_max) + "\n" if fmt == "csv" else ""
    assert out.read_text() == head + "".join(lines[: bad[0] + 1] if bad else lines)
    assert pool_starts == ([2] if workers == 2 else [])


def test_batch_sizes():
    # the range alone decides the batches; the worker count does not enter
    def sizes(p_lo, p_hi, width, first=0):
        task = sc.ScanTask(p_lo=p_lo, p_hi=p_hi, policy=sc.OrderPolicy.quadratic(), n_max=1,
                           n0=1, p0=float(p_lo), c=None, check_bound=False, shard_width=width)
        batches = sc._batches(task, range(first, task.shard_count))
        assert [i for b in batches for i in b] == list(range(first, task.shard_count))
        return [len(b) for b in batches]

    assert sc._BATCH_SPAN == 2**17
    assert sizes(10**7, 10**7 + 2 * 10**5 - 1, 10_000) == [13, 7]  # at most 2^17 wide
    assert sizes(10**10, 10**10 + 4 * 10**6 - 1, 10_000) == [13] * 30 + [10]
    assert sizes(10**12, 10**12 + 9999, 1000) == [10]  # one batch: no pool to feed
    assert sizes(10**12, 10**12 + 9999, 1000, first=7) == [3]
    assert sizes(10**12, 10**12 + 9999, 1000, first=10) == []
    assert sizes(10**7, 10**7 + 10**6 - 1, 2**18) == [1, 1, 1, 1]  # wider than the span


@pytest.fixture
def commits(monkeypatch):
    """The payloads of every checkpoint commit, each checked to be written as
    one sorted-key json.dumps string."""
    payloads = []
    write = sc._write_checkpoint

    def counted(path, payload):
        write(path, payload)
        with open(path) as fh:
            assert fh.read() == json.dumps(payload, sort_keys=True)
        payloads.append(json.loads(json.dumps(payload)))

    monkeypatch.setattr(sc, "_write_checkpoint", counted)
    return payloads


@pytest.mark.parametrize("fmt", ["jsonl", "csv"])
def test_stop_inside_a_batch_commits_that_shard_and_resumes_exactly(
        tmp_path, monkeypatch, commits, fmt):
    # all 4 shards form one batch of a full run; a stop after 2 computes only
    # those 2 and commits once, naming shard 2
    task = _capped_task()
    assert sc._batches(task, range(task.shard_count)) == [range(4)]
    full, part, ck = tmp_path / f"full.{fmt}", tmp_path / f"part.{fmt}", tmp_path / "ck.json"
    s_full = sc.run_scan(task, out_path=str(full), fmt=fmt)
    computed = []
    compute = sc._compute_shards
    monkeypatch.setattr(sc, "_compute_shards",
                        lambda t, shards, f=None: computed.append(shards) or compute(t, shards, f))
    sc.run_scan(task, out_path=str(part), fmt=fmt, checkpoint_path=str(ck), stop_after_shards=2)
    assert computed == [range(2)]
    assert [c["next_shard"] for c in commits] == [2]
    head = sum(len(s.text) for s in compute(task, range(2), fmt))
    assert commits[0]["byte_offset"] == part.stat().st_size == head + (
        len(sc.csv_header(task.n_max)) + 1 if fmt == "csv" else 0)
    s_res = sc.run_scan(task, out_path=str(part), fmt=fmt, checkpoint_path=str(ck))
    assert computed == [range(2), range(2, 4)]
    assert [c["next_shard"] for c in commits] == [2, 4]
    assert part.read_bytes() == full.read_bytes()
    assert s_res.to_json() == s_full.to_json()
    assert json.loads(ck.read_text())["aggregate"] == json.loads(
        json.dumps(s_full.aggregate.to_json_obj()))


@pytest.mark.parametrize("workers", [1, 2])
def test_violation_inside_a_batch_commits_the_violating_shard(
        tmp_path, monkeypatch, commits, pool_starts, workers):
    task = _forged_task()
    recs = list(sc.scan_records(task))
    first = next(i for i, r in enumerate(recs) if not all(r.bound_ok))
    bad_shard = (recs[first].p - task.p_lo) // task.shard_width
    assert bad_shard >= 1
    if workers == 1:  # the violation is not at a batch's first shard
        assert sc._batches(task, range(task.shard_count)) == [range(4)]
    else:  # 2 batches of 2 shards, in a pool of 2
        monkeypatch.setattr(sc, "_BATCH_SPAN", 2 * task.shard_width)
    part, ck = tmp_path / "part.jsonl", tmp_path / "ck.json"
    with pytest.raises(sc.ScanViolationError):
        sc.run_scan(task, out_path=str(part), checkpoint_path=str(ck), workers=workers)
    assert pool_starts == ([2] if workers == 2 else [])
    saved = json.loads(ck.read_text())
    before = [r for r in recs if r.p < task.shard_range(bad_shard)[0]]
    assert commits[-1] == saved and saved["next_shard"] == bad_shard
    assert saved["byte_offset"] == sum(len(r.to_jsonl()) + 1 for r in before)
    assert saved["aggregate"]["records"] == len(before)
    # resuming past the halt writes what an uninterrupted run writes
    full = tmp_path / "full.jsonl"
    s_full = sc.run_scan(task, out_path=str(full), raise_on_violation=False)
    s_res = sc.run_scan(task, out_path=str(part), checkpoint_path=str(ck),
                        raise_on_violation=False)
    assert part.read_bytes() == full.read_bytes()
    assert s_res.to_json() == s_full.to_json()


@pytest.mark.parametrize("span, workers, stop, want", [
    (2**17, 1, None, [4]),  # one batch
    (2000, 1, None, [2, 4]),  # batches of 2 shards
    (2000, 2, None, [2, 4]),
    (1000, 1, None, [1, 2, 3, 4]),  # one shard a batch
    (2000, 1, 3, [2, 3]),  # the stop cuts the second batch
    (2**17, 4, 1, [1]),  # one batch: no pool
    (1000, 8, None, [1, 2, 3, 4]),  # a pool of 4, one process per batch
    (1000, 4, 3, [1, 2, 3]),  # a pool of 3 for the batches before the stop
])
def test_one_commit_per_batch(tmp_path, monkeypatch, commits, pool_starts,
                              span, workers, stop, want):
    # a commit ends every batch; a stop ends the last one
    monkeypatch.setattr(sc, "_BATCH_SPAN", span)
    task = _capped_task()
    ck = tmp_path / "ck.json"
    sc.run_scan(task, out_path=str(tmp_path / "r.jsonl"), workers=workers,
                checkpoint_path=str(ck), stop_after_shards=stop)
    pool = min(workers, len(want))  # one commit per batch
    assert pool_starts == ([pool] if pool > 1 else [])
    assert [c["next_shard"] for c in commits] == want
    assert json.loads(ck.read_text()) == commits[-1]


def test_one_batch_scan_starts_no_pool(tmp_path, monkeypatch):
    # 4 shards in one batch: 8 workers compute it in this process, as 1 does
    def refuse(max_workers):
        raise AssertionError(f"a pool of {max_workers} started for one batch")

    monkeypatch.setattr(sc, "ProcessPoolExecutor", refuse)
    task = _capped_task()
    assert sc._batches(task, range(task.shard_count)) == [range(4)]
    outputs = {}
    for w in (1, 8):
        out, ck = tmp_path / f"r{w}.jsonl", tmp_path / f"ck{w}.json"
        summary = sc.run_scan(task, out_path=str(out), workers=w, checkpoint_path=str(ck))
        outputs[w] = (out.read_bytes(), summary.to_json(), ck.read_bytes())
    assert outputs[8] == outputs[1] and outputs[1][0]


def test_pool_has_at_most_one_process_per_batch(pool_starts):
    # 5 shards of 2^16 integers are 3 batches: 16 workers start 3 processes
    task = sc.ScanTask.make(10**7, 10**7 + 5 * 2**16 - 1, n_max=1, shard_width=2**16)
    assert [len(b) for b in sc._batches(task, range(task.shard_count))] == [2, 2, 1]
    s16 = sc.run_scan(task, workers=16)
    assert pool_starts == [3]
    assert s16.to_json() == sc.run_scan(task, workers=1).to_json()
