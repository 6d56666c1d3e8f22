"""Acceptance gate: one test per release criterion, at the stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion with its runtime.  Time limits are part of the criteria and
asserted.
"""


import time
from contextlib import contextmanager

import numpy as np

from nonresidues import bounds as bd
from nonresidues import lemmas as lm
from nonresidues import primes as pr
from nonresidues import scan as sc
from nonresidues.characters import (
    CharacterSpec,
    _discrete_logs,
    find_primitive_root,
    kernel_mask,
    prime_nonresidues,
)

from table1_data import P0_EXPONENTS, TABLE1


@contextmanager
def criterion(name: str, limit_s: float):
    t0 = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        dt = time.perf_counter() - t0
        print(f"\nACCEPTANCE {name}: {'FAIL' if failed else 'PASS'} "
              f"({dt:.1f}s, limit {limit_s:.0f}s)")
    assert dt < limit_s, f"{name} exceeded its {limit_s}s budget ({dt:.1f}s)"


def test_table1_reproduction():
    """All 45 numeric entries within 0.001 absolute; 27 dashes exact."""
    with criterion("table-1-reproduction", 1.0):
        table = bd.make_table(list(range(1, 9)), [10.0**e for e in P0_EXPONENTS])
        checked_values = checked_dashes = 0
        for row in table:
            for cell, expected in zip(row, TABLE1[row[0].n0]):
                if expected is None:
                    assert cell.g is None, f"expected dash, got {cell}"
                    checked_dashes += 1
                else:
                    assert cell.g is not None, f"expected entry, got dash {cell}"
                    assert abs(cell.g - expected) < 1e-3, cell
                    checked_values += 1
        assert checked_values == 45 and checked_dashes == 27
        # spot anchors
        assert abs(bd.reference_g(1, 1e7)[0] - 1.530) < 1e-3
        assert abs(bd.reference_g(2, 1e8)[0] - 2.070) < 1e-3
        assert abs(bd.reference_g(5, 1e15)[0] - 6.469) < 1e-3
        assert abs(bd.reference_g(8, 1e30)[0] - 2.745) < 1e-3


def test_monotonicity_over_refined_grid():
    """All 45 published ceilings certified for every p >= p0 and n <= n0;
    on the refined grid g's enclosures decrease along p and increase along n."""
    with criterion("monotonicity", 30.0):
        for n0, row in TABLE1.items():
            for e, c in zip(P0_EXPONENTS, row):
                if c is not None:
                    cert = bd.certify_freeze(n0, 10**e, c)
                    assert cert.ok, (n0, e, cert)
        g = {(n, e): bd.enclose_g(n, 10**e)[2] for n in range(1, 9)
             for e in range(7, 36) if bd.reference_g(n, 10**e)[0] is not None}
        assert len(g) > 150  # the grid is substantially covered
        for (n, e), iv in g.items():
            if (n, e + 1) in g:  # g decreases along p
                assert iv.a > g[n, e + 1].b, (n, e)
            if (n + 1, e) in g:  # and increases along n
                assert iv.b < g[n + 1, e].a, (n, e)


def test_lemma_stirling():
    """Factorial-ratio bound for r in [1, 500], exact big-integer LHS."""
    with criterion("lemma-stirling", 5.0):
        rep = lm.sweep_stirling(500)
        assert rep.instances_run == 500
        assert rep.failures == 0 and rep.vacuous_skips == 0


def test_lemma_totient():
    """Totient-sum inequality for x in {1.1, 1.2, ..., 5000}, exact LHS."""
    with criterion("lemma-totient", 60.0):
        rep = lm.sweep_totient(5000)
        assert rep.instances_run == 49990
        assert rep.failures == 0


def test_lemma_convexity():
    """Convexity bound for all h <= 200, r <= 200, j <= h/8."""
    with criterion("lemma-convexity", 30.0):
        rep = lm.sweep_convexity(200, 200)
        expected = sum(200 * (h // 8 + 1) for h in range(1, 201))
        assert rep.instances_run == expected
        assert rep.failures == 0


def test_lemma_s_upper():
    """Moment upper bound for p <= 300, all d | p-1, h <= 8, r <= min(6, 9h)."""
    with criterion("lemma-s-upper", 300.0):
        rep = lm.sweep_s_upper(300, 8, 6)
        assert rep.failures == 0
        assert rep.instances_run > 20000


def test_lemma_interval_disjointness():
    """200 random (p, H, X) with 2XH < p, exact rational endpoints."""
    with criterion("lemma-disjointness", 30.0):
        rep = lm.sweep_disjointness(trials=200, p_max=10**5, seed=20260809)
        assert rep.instances_run == 200
        assert rep.failures == 0


def test_lemma_proposition_and_sandwich():
    """>= 50 constructed instances, all preconditions met, lower <= S <= upper."""
    with criterion("lemma-proposition-sandwich", 600.0):
        rep = lm.sweep_proposition(min_instances=50, p_limit=10**5)
        assert rep.instances_run - rep.vacuous_skips >= 50
        assert rep.failures == 0


def test_character_oracle_equivalence():
    """Kernel membership by modular exponentiation == discrete-log table,
    and nonresidue counts equal (p-1)(1-1/d), for all p <= 10^4, d | p-1.
    The shared kernel tests all of a = 1..p-1 in one call per (p, d)."""
    with criterion("character-oracle-equivalence", 300.0):
        pairs = mismatches = 0
        for p in map(int, pr.sieve(10**4)):
            if p == 2:
                continue
            g = find_primitive_root(p)
            ind = _discrete_logs(p, g)  # baby and giant steps, no kernel test
            a = np.arange(1, p)
            ind_a = ind[1:]
            for d in pr.divisors(p - 1):
                if d < 2:
                    continue
                via_pow = kernel_mask(p, d, a)
                mismatches += int(np.count_nonzero(via_pow != (ind_a % d == 0)))
                nonresidues = int(np.count_nonzero(~via_pow))
                assert nonresidues == (p - 1) - (p - 1) // d, (p, d)
                pairs += 1
        assert mismatches == 0
        assert pairs > 8000


def test_frozen_bound_scan(monkeypatch, pool_starts):
    """[1e7, 1e7 + 1e5], quadratic, n_max=1, C=1.530: zero violations,
    byte-identical summaries across 1, 4 and 8 workers."""
    # 6 batches of 2 shards, so the pools are 4 and 6 processes, not 4 and 8
    monkeypatch.setattr(sc, "_BATCH_SPAN", 2 * sc.DEFAULT_SHARD_WIDTH)
    with criterion("frozen-bound-scan", 120.0):
        task = sc.ScanTask.make(
            p_lo=10**7, p_hi=10**7 + 10**5, n_max=1, n0=1, p0=1e7, c=1.530
        )
        summaries = {w: sc.run_scan(task, workers=w) for w in (1, 4, 8)}
        assert pool_starts == [4, 6]
        blobs = {w: s.to_json() for w, s in summaries.items()}
        assert blobs[1] == blobs[4] == blobs[8]
        s = summaries[1]
        assert s.aggregate.violations == 0
        assert s.aggregate.records > 6000
        assert s.aggregate.per_n[0].max_ratio < 0.05  # far below C


def test_fixed_value_regression():
    """Frozen values: the moment at (5,2,2,1), the q-list mod 7, and the
    window-parameter identity on an n <= 12 grid."""
    with criterion("fixed-value-regression", 10.0):
        spec5 = CharacterSpec.of_order(5, 2)
        assert lm.exact_sum_S(spec5, 2, 1).value == 6
        assert prime_nonresidues(7, 2, 3) == [3, 5, 13]
        for n in range(1, 13):
            for e in (7, 8, 10, 12, 15, 20, 25, 30, 35):
                bp = bd.burgess_params(n, 10.0**e)
                assert bp.identity_error < 1e-9, (n, e)
