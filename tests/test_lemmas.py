import dataclasses
import hashlib
import json
import math
import pathlib
import random
import sys
from fractions import Fraction
from collections import Counter
from itertools import accumulate

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from nonresidues import characters as ch
from nonresidues import lemmas as lm
from nonresidues import primes as pr
from nonresidues import rounding as rd
from nonresidues.characters import (
    CharacterSpec,
    SearchCapExceededError,
    prime_nonresidues,
)
from nonresidues.rounding import IV, interval_context, iv_from_fraction, lower, upper

from lemma_references import reference_convexity, reference_s_upper, reference_totient


def _lo(x):
    """Exact lower endpoint of an interval as a Fraction."""
    return Fraction(*lower(x))


def _hi(x):
    """Exact upper endpoint of an interval as a Fraction."""
    return Fraction(*upper(x))


def report_fields(rep):
    """A LemmaReport's fields, without elapsed_s."""
    fields = dataclasses.asdict(rep)
    del fields["elapsed_s"]
    return fields


def assert_sweep_is_the_reference(rep, fold_calls, reference, records):
    """A column sweep's verdict column and report, rep, are the reference's
    records folded by LemmaReport.record (reference is that fold)."""
    verdicts = [v for call in fold_calls for v in call.verdicts.tolist()]
    assert verdicts == [passed for _, passed, _, _ in records]
    assert report_fields(rep) == report_fields(reference)


@pytest.fixture(scope="module")
def spec5():
    return CharacterSpec.of_order(5, 2)


@pytest.fixture(scope="module")
def spec11_5():
    return CharacterSpec.of_order(11, 5)


# -- exact_sum_S -------------------------------------------------------------


def test_sum_S_quadratic_mod_5(spec5):
    # inner sums over x = 0..4 are 1, 0, -2, 0, 1
    s = lm.exact_sum_S(spec5, 2, 1)
    assert s.value == 6 and s.error_bound == 0.0


def test_sum_S_window_of_one_counts_units():
    for p, d in ((3, 2), (5, 2), (11, 5), (13, 3)):
        spec = CharacterSpec.of_order(p, d)
        s = lm.exact_sum_S(spec, 1, 1)
        assert s.value == pytest.approx(p - 1, abs=1e-6)
        s3 = lm.exact_sum_S(spec, 1, 3)
        assert s3.value == pytest.approx(p - 1, abs=1e-6)


def test_sum_S_brute_force_oracle():
    # independent dumb evaluation, no kernel, over every small quadratic shape
    for p in map(int, pr.sieve(61)):
        if p == 2:
            continue
        spec = CharacterSpec.of_order(p, 2)
        table = [0 if t < 0 else (1 if t == 0 else -1)
                 for t in spec.t_table.tolist()]
        hs = range(1, min(8, p - 1) + 1)
        got = lm._sum_S_multi(spec, hs, range(1, 7))
        for h in hs:
            sums = [sum(table[(x + m) % p] for m in range(h)) for x in range(p)]
            for r in range(1, 7):
                brute = sum(w ** (2 * r) for w in sums)
                assert got[h, r].value == brute and got[h, r].error_bound == 0.0
                assert lm.exact_sum_S(spec, h, r).value == brute


def _mpmath_window_m2(spec, h):
    """|sum_{m<h} chi(x+m)|^2 for every x at 200 bits, straight from the
    definition chi(g^k) = e^(2 pi i k / d); shares nothing with the kernel."""
    p = spec.p
    with mpmath.workprec(200):
        chi = [mpmath.mpc(0)] * p
        for k in range(p - 1):
            chi[pow(spec.g, k, p)] = mpmath.expjpi(mpmath.mpf(2 * k) / spec.d)
        return [abs(mpmath.fsum(chi[(x + m) % p] for m in range(h))) ** 2
                for x in range(p)]


def test_sum_S_higher_orders_against_mpmath():
    checked = 0
    for p in map(int, pr.sieve(60)):
        for d in pr.divisors(p - 1):
            if d <= 2:
                continue
            spec = CharacterSpec.of_order(p, d)
            hs = range(1, min(8, p - 1) + 1)
            # the multi-h table and moments, as sweep_s_upper takes them
            table, errs = lm._window_m2(spec.values, hs[-1])
            got = lm._sum_S_multi(spec, hs, range(1, 7))
            for h in hs:
                exact_m2 = _mpmath_window_m2(spec, h)
                with mpmath.workprec(200):
                    for a, b in zip(table[h - 1].tolist(), exact_m2):
                        assert abs(mpmath.mpf(a) - b) <= errs[h - 1], (p, d, h)
                    for r in range(1, 7):
                        s = got[h, r]
                        exact = mpmath.fsum(v**r for v in exact_m2)
                        assert abs(mpmath.mpf(s.value) - exact) <= s.error_bound, (p, d, h, r)
                        assert s.error_bound < 1e-6 * s.value + 1e-6, (p, d, h, r)
                        checked += 1
    assert checked > 1500


def test_sum_S_higher_order_evaluation_orders_agree(spec11_5):
    # rotating the residue system permutes the windows and changes nothing
    # else: each window sums the same values in the same order
    v = spec11_5.values
    m2, err = lm._window_m2(v, 3)
    for k in range(1, 11):
        m2_k, err_k = lm._window_m2(np.roll(v, k), 3)
        assert np.array_equal(err_k, err)
        assert np.array_equal(m2_k, np.roll(m2, k, axis=1))
    m2, err = m2[-1], err[-1]
    # summed in another order, the moment stays inside both error bounds
    s = lm.exact_sum_S(spec11_5, 3, 2)
    assert abs(float((np.roll(m2, 4) ** 2).sum()) - s.value) <= 2 * s.error_bound
    assert s.error_bound < 1e-6 * s.value + 1e-6


def test_sum_S_shift_invariance_exact(spec5):
    for off in (1, 2, 3):
        m2, err = lm._window_m2(np.roll(spec5.values, off), 2)
        assert not err.any() and m2[1].tolist() == np.roll([1, 0, 4, 0, 1], off).tolist()
        assert int(m2[1].sum()) == 6 and int(m2[0].sum()) == 4


def test_window_kernel_does_not_certify_a_near_miss():
    # window values 1, 1, zeta with zeta = e^(2 pi i / 10^6):
    # |w|^2 = 5 + 4 cos(2 pi / 10^6) falls below h^2 = 9 by about 8e-11
    with mpmath.workprec(113):
        zeta = complex(mpmath.expjpi(mpmath.mpf(2) / 10**6))
    table, errs = lm._window_m2(np.array([0, 1, 1, zeta]), 3)
    m2, err = table[2], errs[2]
    with mpmath.workprec(200):
        exact = 5 + 4 * mpmath.cospi(mpmath.mpf(2) / 10**6)
        assert abs(mpmath.mpf(m2[1]) - exact) <= err
    assert not m2[1] - err >= 9
    assert m2[1] + err < 9  # the enclosure even excludes |w| = h


def test_sum_S_trivial_bound_holds(spec11_5):
    s = lm.exact_sum_S(spec11_5, 4, 2)
    assert s.value <= 11 * 4**4


def test_sum_S_validation(spec5):
    with pytest.raises(ValueError):
        lm.exact_sum_S(spec5, 5, 1)  # h >= p
    with pytest.raises(ValueError):
        lm.exact_sum_S(spec5, 2, 0)


# -- moment upper bound ------------------------------------------------------


def test_check_S_upper_example(spec5):
    c = lm.check_S_upper(spec5, 2, 1)
    rhs = math.sqrt(2) * (2 / math.e) * 5 * 2 + math.sqrt(5) * 4
    assert c.passed
    assert c.lhs == 6.0
    assert c.rhs == pytest.approx(rhs, rel=1e-9)


def test_check_S_upper_boundary_r_equals_9h():
    spec = CharacterSpec.of_order(11, 2)
    c = lm.check_S_upper(spec, 1, 9)  # r = 9h exactly
    assert c.passed
    with pytest.raises(ValueError):
        lm.check_S_upper(spec, 1, 10)  # r > 9h


def test_check_S_upper_small_grid():
    for p in (3, 5, 7, 11, 13):
        for d in pr.divisors(p - 1):
            if d < 2:
                continue
            spec = CharacterSpec.of_order(p, d)
            for h in (1, 2, 3):
                if h >= p:
                    continue
                for r in (1, 2):
                    assert lm.check_S_upper(spec, h, r).passed


# The right sides evaluated as whole interval expressions: references that
# the cached endpoint bounds must lie within.  HP encloses the true values
# far more tightly than the 96-bit working precision.
HP = interval_context(256)


def _interval_s_upper_rhs(p, h, r, ctx):
    term1 = ctx.sqrt(ctx.mpf(2)) * (ctx.mpf(2 * r) / ctx.e) ** r * p * h**r
    term2 = (2 * r - 1) * ctx.sqrt(ctx.mpf(p)) * h ** (2 * r)
    return term1 + term2


def _interval_totient_rhs(x, ctx):
    xi = iv_from_fraction(x, ctx)
    pi2 = ctx.pi**2
    f = 1 - pi2 / 9 * (ctx.log(xi) + 9) / (3 * xi)
    return 9 / pi2 * xi**2 * f


def _interval_proposition_rhs(nf, h, r, ctx):
    x = Fraction(nf.H, 2 * h)
    xu = iv_from_fraction(x / nf.u1, ctx)
    pi2 = ctx.pi**2
    f = 1 - pi2 / 9 * (ctx.log(xu) + 9) / (3 * xu)
    phi_u1 = math.prod(q - 1 for q in nf.u1_primes)
    scale = Fraction(18) * h * (h - 2 * nf.j) ** (2 * r) * phi_u1 * x * x / nf.u1**2
    return iv_from_fraction(scale, ctx) / pi2 * f


def _fraction_s_upper(stats, p, h, r):
    """(passed, rhs, slack) of check_S_upper in Fraction arithmetic."""
    rhs_lo = (Fraction(*lm._stirling_rhs_lo(r)) * (p * h**r)
              + Fraction(*lm._sqrt_lo(p)) * ((2 * r - 1) * h ** (2 * r)))
    lhs_hi = Fraction(stats.value) + Fraction(stats.error_bound)
    return lhs_hi <= rhs_lo, float(rhs_lo), float(rhs_lo - lhs_hi)


def test_s_upper_matches_fraction_formula():
    # every (p <= 300, d | p-1, h <= 8, r <= 6) of the default sweep
    for p in map(int, pr.primes_upto(300)):
        if p == 2:
            continue
        hs = range(1, min(8, p - 1) + 1)
        for d in pr.divisors(p - 1)[1:]:
            spec = CharacterSpec.of_order(p, d)
            stats = lm._sum_S_multi(spec, hs, range(1, 7))  # as sweep_s_upper does
            for (h, r), s in stats.items():
                c = lm.check_S_upper(spec, h, r, stats=s)
                assert (c.passed, c.rhs, c.slack) == _fraction_s_upper(
                    s, p, h, r), (p, d, h, r)
    # a moment pushed just past the bound fails, with the same slack
    stats = lm.exact_sum_S(CharacterSpec.of_order(7, 3), 2, 1)
    lo = Fraction(*lm._s_upper_rhs_lo(7, 2, 1))
    for err in (float(lo - stats.value) * 2, float(lo - stats.value) / 2):
        forged = lm.SumStats(7, 2, 1, stats.value, err)
        c = lm.check_S_upper(CharacterSpec.of_order(7, 3), 2, 1, stats=forged)
        assert (c.passed, c.rhs, c.slack) == _fraction_s_upper(forged, 7, 2, 1)
        assert c.passed == (err < float(lo - stats.value))


def _s_upper_grid(p_max, h_max):
    """(p, d, hs) of sweep_s_upper's grid: odd p <= p_max, d | p-1 with
    d >= 2, and hs = 1..min(h_max, p-1)."""
    for p in map(int, pr.primes_upto(p_max)):
        if p > 2:
            for d in pr.divisors(p - 1)[1:]:
                yield p, d, range(1, min(h_max, p - 1) + 1)


def test_s_upper_moments_and_report_match_golden():
    # Pinned from the per-h window kernel that the multi-h table replaced:
    # every moment of the default grid (p <= 300, d | p-1, h <= 8, r <= 6),
    # hashed as repr of an int or hex of a float, value and error bound,
    # and the default sweep's report without elapsed_s.
    path = pathlib.Path(__file__).parent / "data" / "s_upper_default.json"
    want = json.loads(path.read_text())
    digest, count = hashlib.sha256(), 0
    for p, d, hs in _s_upper_grid(300, 8):
        got = lm._sum_S_multi(CharacterSpec.of_order(p, d), hs, range(1, 7))
        for h in hs:
            for r in range(1, 7):
                s = got[h, r]
                v = repr(s.value) if isinstance(s.value, int) else s.value.hex()
                digest.update(f"{p} {d} {h} {r} {v} {s.error_bound.hex()}\n".encode())
                count += 1
    assert (count, digest.hexdigest()) == (want["moments"], want["moment_sha256"])
    rep = dataclasses.asdict(lm.sweep_s_upper(300, 8, 6))
    del rep["elapsed_s"]
    assert rep == want["report"]


def _moment_line(p, d, h, r, s):
    v = repr(s.value) if isinstance(s.value, int) else s.value.hex()
    return f"{p} {d} {h} {r} {v} {s.error_bound.hex()}\n"


def test_stacked_moments_match_single_character_calls():
    # sweep_s_upper takes the orders d > 2 of each p from one stacked call:
    # each character's moments and error bounds are, bit for bit, those of
    # a call on it alone, and hash to the golden of the per-character grid
    path = pathlib.Path(__file__).parent / "data" / "s_upper_default.json"
    want = json.loads(path.read_text())
    digest, count, stacks = hashlib.sha256(), 0, 0
    for p in map(int, pr.primes_upto(300)[1:]):
        hs = range(1, min(8, p - 1) + 1)
        specs = [CharacterSpec.of_order(p, d) for d in pr.divisors(p - 1)[1:]]
        stacked = [lm._sum_S_multi(specs[0], hs, range(1, 7))]
        if len(specs) > 1:
            stacked += lm._sum_S_multi(specs[1:], hs, range(1, 7))
            stacks += 1
        for spec, got in zip(specs, stacked):
            alone = lm._sum_S_multi(spec, hs, range(1, 7))
            assert list(got) == list(alone)
            for (h, r), s in got.items():
                line = _moment_line(p, spec.d, h, r, s)
                assert line == _moment_line(p, spec.d, h, r, alone[h, r])
            for h in hs:
                for r in range(1, 7):
                    digest.update(_moment_line(p, spec.d, h, r, got[h, r]).encode())
                    count += 1
    assert stacks == 60
    assert (count, digest.hexdigest()) == (want["moments"], want["moment_sha256"])


def test_stacked_window_table_wraps_like_single_rows():
    # p = 7 with d = 3 and d = 6 and h_max - 1 = p - 2: the longest windows
    # wrap past x = p - 1, in every row of the stack
    specs = [CharacterSpec.of_order(7, d) for d in (3, 6)]
    table, errs = lm._window_m2(np.stack([s.values for s in specs]), 6)
    assert table.shape == (6, 2, 7)
    for i, spec in enumerate(specs):
        alone, alone_errs = lm._window_m2(spec.values, 6)
        assert table[:, i].tobytes() == alone.tobytes()
        assert errs.tobytes() == alone_errs.tobytes()
    got = lm._sum_S_multi(specs, range(1, 7), range(1, 10))
    for spec, moments in zip(specs, got):
        assert moments == lm._sum_S_multi(spec, range(1, 7), range(1, 10))
        assert all(s.value.hex() == lm.exact_sum_S(spec, h, r).value.hex()
                   for (h, r), s in moments.items())
    # a stack needs one modulus and orders all 2 or all above 2
    for bad in ([CharacterSpec.of_order(7, 2), specs[0]],
                [specs[0], CharacterSpec.of_order(13, 3)]):
        with pytest.raises(ValueError, match="a stack needs one modulus"):
            lm._sum_S_multi(bad, (1,), (1,))


def test_s_upper_sweep_cuts_r_at_9h_and_matches_single_h_moments():
    # r_max = 12 exceeds 9h at h = 1, so the sweep runs r <= min(12, 9h)
    rep = lm.sweep_s_upper(13, 2, 12)
    want = sum(min(12, 9 * h) for _, _, hs in _s_upper_grid(13, 2) for h in hs)
    assert rep.instances_run == rep.passes == want == 294
    for p, d, hs in _s_upper_grid(13, 2):
        spec = CharacterSpec.of_order(p, d)
        got = lm._sum_S_multi(spec, hs, range(1, 13))
        assert len(got) == len(hs) * 12
        for (h, r), s in got.items():  # the single-h path of the proposition
            assert s == lm.exact_sum_S(spec, h, r), (p, d, h, r)


def test_s_upper_sweep_computes_each_exact_right_side_once(monkeypatch, fold_calls):
    # _s_upper_rhs_lo runs only for the cells of the exact path, at most once
    # per (p, h, r), shared by every order d
    calls, rhs_lo = [], lm._s_upper_rhs_lo
    monkeypatch.setattr(lm, "_s_upper_rhs_lo", lambda *a: calls.append(a) or rhs_lo(*a))
    fold = lm.LemmaReport.fold
    monkeypatch.setattr(lm.LemmaReport, "fold", lambda self, est, err, exact, instance:
                        fold(self, est, np.where(est < 20, np.inf, err), exact, instance))
    rep = lm.sweep_s_upper(37, 8, 12)
    want = {(p, h, r) for p, _, hs in _s_upper_grid(37, 8) for h in hs
            for r in range(1, min(12, 9 * h) + 1)}
    assert len(calls) == len(set(calls)) and set(calls) < want
    assert 1 < len(calls) < rep.instances_run


def test_s_upper_sweep_builds_each_prime_once(monkeypatch):
    # one primitive root, one factorization of p-1 for the root test and the
    # orders, one discrete-log table per p, and one window pass per stack
    # (the quadratic character, then every order d > 2)
    calls = {"root": [], "factorize": [], "logs": [], "window": []}
    root, factorize = ch.find_primitive_root, pr.factorize
    logs, window = ch._discrete_logs, lm._window_m2
    monkeypatch.setattr(ch, "find_primitive_root", lambda p: calls["root"].append(p) or root(p))
    monkeypatch.setattr(pr, "factorize", lambda n: calls["factorize"].append(n + 1) or factorize(n))
    monkeypatch.setattr(ch, "_discrete_logs",
                        lambda p, g: calls["logs"].append(p) or logs(p, g))
    monkeypatch.setattr(lm, "_window_m2",
                        lambda v, h: calls["window"].append(v.shape[-1]) or window(v, h))
    ch._primitive_root_test.cache_clear()
    ch._unit_order_factors.cache_clear()
    lm.sweep_s_upper(37, 8, 6)
    primes = pr.primes_upto(37)[1:].tolist()
    assert calls["root"] == calls["logs"] == calls["factorize"] == primes
    assert ch._primitive_root_test.cache_info().misses == len(primes)
    passes = Counter(calls["window"])
    assert list(passes) == primes and max(passes.values()) == 2 and passes[3] == 1


def test_moment_of_another_instance_is_refused():
    # a moment passed in for another (p, h, r) decided the instance: here
    # p = 13's moment 12.0 passed for p = 11, whose moment is 10.0
    spec = CharacterSpec.of_order(11, 5)
    with pytest.raises(ValueError, match="stats is the moment at"):
        lm.check_S_upper(spec, 10, 5, stats=lm.exact_sum_S(CharacterSpec.of_order(13, 3), 1, 1))
    assert lm.check_S_upper(spec, 10, 5).lhs == pytest.approx(10.0)
    inst, h, r = lm.build_instance(23, 2, 1, 1), 1, 2
    own = lm.exact_sum_S(inst.spec, h, r)
    for check in (lambda s: lm.check_S_upper(inst.spec, h, r, stats=s),
                  lambda s: lm.check_proposition_lower(inst.spec, inst.nf, h, r, stats=s),
                  lambda s: lm.sandwich_report(inst.spec, inst.nf, h, r, stats=s)):
        assert check(own).passed
        for field, value in (("p", 13), ("h", 2), ("r", 1)):
            with pytest.raises(ValueError, match="stats is the moment at"):
                check(dataclasses.replace(own, **{field: value}))


@pytest.mark.parametrize("order", ["quadratic", "higher", "higher-negative"])
def test_moment_sanity_check_refuses_out_of_range_tables(monkeypatch, order):
    # a forged window table puts every moment of one kind of stack outside
    # [0, p h^(2r)]; the sanity pass names the first, (h, r) = (1, 1), from
    # a direct call and from the sweep alike
    window, quadratic = lm._window_m2, order == "quadratic"
    shift = -1 if order == "higher-negative" else 1

    def forged(values, h_max):
        table, errs = window(values, h_max)
        if (values.dtype.kind == "i") == quadratic:
            table = table + shift * values.shape[-1] * h_max**2
        return table, errs

    monkeypatch.setattr(lm, "_window_m2", forged)
    specs = [CharacterSpec.of_order(13, d) for d in ((2,) if quadratic else (3, 4))]
    first = r"moment {}[0-9.e+]* outside \[0, p\*h\^\(2r\)\] at \(p={}, h=1, r=1\)"
    sign = "-" if shift < 0 else ""
    with pytest.raises(AssertionError, match=first.format(sign, 13)):
        lm._sum_S_multi(specs, range(1, 4), range(1, 3))
    with pytest.raises(AssertionError, match=first.format(sign, 3 if quadratic else 5)):
        lm.sweep_s_upper(37, 8, 6)


def test_sum_stats_ends_of_exact_and_bounded_moments():
    exact = lm.SumStats(p=7, h=2, r=1, value=10**30 + 1, error_bound=0.0)
    assert exact.upper() == exact.lower() == (10**30 + 1, 1)
    bounded = lm.SumStats(p=7, h=2, r=1, value=12.5, error_bound=0.25)
    assert Fraction(*bounded.upper()) == Fraction(51, 4)
    assert Fraction(*bounded.lower()) == Fraction(49, 4)
    assert Fraction(*lm.SumStats(7, 2, 1, 12.5, 0.0).upper()) == Fraction(25, 2)


def test_s_upper_endpoint_bound_within_interval_formula():
    for p in map(int, pr.primes_upto(300)):
        if p == 2:
            continue
        for h in range(1, min(8, p - 1) + 1):
            for r in range(1, 7):
                got = Fraction(*lm._s_upper_rhs_lo(p, h, r))
                ref = _interval_s_upper_rhs(p, h, r, IV)
                assert _lo(ref) <= got <= _hi(ref), (p, h, r)
                # a lower bound: below the 256-bit enclosure of the true value
                assert got <= _lo(_interval_s_upper_rhs(p, h, r, HP))


def test_totient_endpoint_bound_within_interval_formula():
    for k in range(11, 2001):
        x = Fraction(k, 10)
        got = Fraction(*lm._totient_rhs_upper(x.as_integer_ratio()))
        ref = _interval_totient_rhs(x, IV)
        assert _lo(ref) <= got <= _hi(ref), x
        # an upper bound: above the 256-bit enclosure of the true value
        assert got >= _hi(_interval_totient_rhs(x, HP))


def _fraction_totient_rhs(x):
    """_totient_rhs_upper in Fraction arithmetic on the interval log."""
    log_lo = _lo(IV.log(iv_from_fraction(x)))
    return Fraction(*lm._nine_over_pi2_up()) * x * x - x * (log_lo + 9) / 3


def test_totient_and_proposition_bounds_match_fraction_formula():
    for k in range(1, 2001):
        x = Fraction(k, 10)
        got = Fraction(*lm._totient_rhs_upper(x.as_integer_ratio()))
        assert got == _fraction_totient_rhs(x), x
        c = lm.check_totient_inequality(x) if x > 1 else None
        if c is not None:
            assert c.rhs == float(_fraction_totient_rhs(x))
    for inst, r in lm.iter_proposition_instances(10**4, r_values=(1, 2, 3),
                                                 max_instances=200):
        nf, h = inst.nf, inst.h
        phi_u1 = math.prod(q - 1 for q in nf.u1_primes)
        want = 2 * h * (h - 2 * nf.j) ** (2 * r) * phi_u1 * _fraction_totient_rhs(
            Fraction(nf.H, 2 * h * nf.u1))
        assert Fraction(*lm._proposition_rhs_upper(nf, h, r)) == want
        stats = lm.exact_sum_S(inst.spec, h, r)
        c = lm.check_proposition_lower(inst.spec, nf, h, r, stats=stats)
        lhs_lo = Fraction(stats.value) - Fraction(stats.error_bound)
        assert (c.passed, c.rhs, c.slack) == (lhs_lo >= want, float(want),
                                              float(lhs_lo - want))
    # a moment whose error bound reaches below the bound fails, with the same
    # slack: the lower end of the moment is compared
    gap = Fraction(stats.value) - want
    for err in (float(gap) * 2, float(gap) / 2):
        forged = lm.SumStats(stats.p, stats.h, stats.r, stats.value, err)
        c = lm.check_proposition_lower(inst.spec, nf, h, r, stats=forged)
        lhs_lo = Fraction(stats.value) - Fraction(err)
        assert (c.passed, c.slack) == (lhs_lo >= want, float(lhs_lo - want))
        assert c.passed == (err < gap)


def test_totient_bound_rounds_the_logarithm_down(monkeypatch):
    # with 9/pi^2 nearly exact, only the logarithm's rounding keeps the
    # bound above the true value; rounded the wrong way it falls below
    nine_over_pi2 = upper(9 / HP.pi**2)
    monkeypatch.setattr(lm, "_nine_over_pi2_up", lambda: nine_over_pi2)
    for k in range(11, 2001, 7):
        x = Fraction(k, 10)
        got = Fraction(*lm._totient_rhs_upper(x.as_integer_ratio()))
        assert got >= _hi(_interval_totient_rhs(x, HP)), x


def test_log_tenths_table_is_a_tight_lower_bound():
    # below the 256-bit enclosure of log(k/10), and within (Omega(k) + 2)
    # units of 2^-128 of it, Omega(k) the prime factors with multiplicity
    table, unit = lm._log_tenths_lo(2000), Fraction(1, 1 << lm.LOG_TABLE_BITS)
    for k in range(1, 2001):
        got = table[k] * unit
        hp_lo = _lo(HP.log(iv_from_fraction(Fraction(k, 10), HP)))
        omega = sum(pr.factorize(k).values())
        assert got <= hp_lo, k
        assert hp_lo - got <= (omega + 2) * unit, k


@pytest.mark.parametrize("x_max", [2, 300])
def test_totient_sweep_matches_the_single_call_path(x_max, lemma_records, fold_calls):
    # every reference instance's verdict and slack is the one the
    # single-call path certifies with the raw lower_log endpoint, and the
    # column sweep gives the reference's verdicts and report
    reference = reference_totient(x_max)
    phi = pr.totient_sieve(x_max).tolist()
    s0 = list(accumulate(phi))  # s0[n] = sum of phi(a), a <= n
    s1 = list(accumulate((Fraction(phi[a], a) for a in range(1, x_max + 1)),
                         initial=Fraction(0)))
    want = []
    for k in range(11, 10 * x_max + 1):
        x, n = Fraction(k, 10).as_integer_ratio(), k // 10
        lhs = lm._totient_lhs(x, s0[n], s1[n].as_integer_ratio())
        want.append(({"x": f"{k}/10"}, *lm.certify(lm._totient_rhs_upper(x), lhs), False))
    assert len(want) == 10 * x_max - 10
    assert lemma_records == want
    assert_sweep_is_the_reference(lm.sweep_totient(x_max), fold_calls, reference, lemma_records)


def test_proposition_endpoint_bound_within_interval_formula():
    count = 0
    for inst, r in lm.iter_proposition_instances(10**5, r_values=(1, 2, 3),
                                                 max_instances=300):
        got = Fraction(*lm._proposition_rhs_upper(inst.nf, inst.h, r))
        ref = _interval_proposition_rhs(inst.nf, inst.h, r, IV)
        assert _lo(ref) <= got <= _hi(ref), (inst, r)
        assert got >= _hi(_interval_proposition_rhs(inst.nf, inst.h, r, HP))
        count += 1
    assert count == 300


# -- Stirling ratio ----------------------------------------------------------


def test_stirling_verdict_matches_fraction_formula():
    for r in range(1, 141):  # rhs below the largest double
        lhs = Fraction(math.factorial(2 * r), 2**r * math.factorial(r))
        rhs_lo = Fraction(*lm._stirling_rhs_lo(r, lm.DEFAULT_PREC + 2 * r.bit_length()))
        c = lm.check_stirling_ratio(r)
        assert (c.passed, c.rhs, c.slack) == (lhs <= rhs_lo, float(rhs_lo),
                                              float(1 - lhs / rhs_lo)), r
    c = lm.check_stirling_ratio(300)  # both sides overflow a double: clamped
    assert c.passed and c.lhs == c.rhs == math.inf and 0 < c.slack < 1 / (24 * 300)


def test_stirling_examples():
    c1 = lm.check_stirling_ratio(1)
    assert c1.passed and c1.lhs == 1.0
    assert c1.rhs == pytest.approx(math.sqrt(2) * 2 / math.e, rel=1e-9)
    c2 = lm.check_stirling_ratio(2)
    assert c2.passed and c2.lhs == 3.0
    assert c2.rhs == pytest.approx(math.sqrt(2) * (4 / math.e) ** 2, rel=1e-9)


def test_stirling_lhs_is_double_factorial():
    for r in range(1, 30):
        lhs = math.factorial(2 * r) // (2**r * math.factorial(r))
        assert lhs == math.prod(range(1, 2 * r, 2))  # (2r-1)!!


def test_stirling_range():
    for r in list(range(1, 80)) + [200, 500]:
        assert lm.check_stirling_ratio(r).passed
    with pytest.raises(ValueError):
        lm.check_stirling_ratio(0)


# -- totient inequality ------------------------------------------------------


def test_totient_example_x2():
    c = lm.check_totient_inequality(2)
    assert c.passed
    assert c.lhs == 4.0  # 4(1 + 1/2) - 2
    assert c.rhs == pytest.approx(-2.8145355, abs=1e-3)


def test_totient_near_one():
    c = lm.check_totient_inequality(Fraction(3, 2))
    assert c.passed and c.lhs == 2.0  # 2*1.5*1 - 1


def test_totient_spot_values():
    for x in (Fraction(11, 10), 7, Fraction(997, 10), 500.5):
        assert lm.check_totient_inequality(x).passed
    with pytest.raises(ValueError):
        lm.check_totient_inequality(1)


def test_totient_sweep_segment_matches_single_calls():
    rep = lm.sweep_totient(x_max=30)
    assert rep.failures == 0
    assert rep.instances_run == 290  # x = 1.1 .. 30.0
    single = lm.check_totient_inequality(Fraction(123, 10))
    assert single.passed


def test_totient_sweep_takes_no_log_per_instance(monkeypatch):
    # one libmp log per prime up to 10 x_max and one for 10, none per instance
    calls, log = [], rd.mpf_log
    monkeypatch.setattr(rd, "mpf_log", lambda *a: calls.append(a) or log(*a))
    for x_max in (2, 120):
        calls.clear()
        assert lm.sweep_totient(x_max).instances_run == 10 * x_max - 10
        assert 0 < len(calls) <= len(pr.primes_upto(10 * x_max)) + 1


def test_totient_sweep_without_instances_builds_no_table(monkeypatch):
    monkeypatch.setattr(lm, "_log_tenths_lo", lambda k_max: pytest.fail("built a table"))
    for x_max in (0, 1):
        assert lm.sweep_totient(x_max).instances_run == 0
        with pytest.raises(ValueError, match="the totient grid holds no instances"):
            lm.run_verification(["totient"], lm.VerifyConfig(totient_x_max=x_max))
    with pytest.raises(ValueError, match="totient_sieve needs limit >= 0"):
        lm.sweep_totient(-1)


# -- Farey intervals ---------------------------------------------------------


def test_farey_interval_endpoints_match_definitions():
    p, H, h = 101, 9, 2
    i = lm.farey_interval("I", 2, 1, p, H)
    assert (i.left, i.right) == (Fraction(101, 2), Fraction(55))
    assert (not i.left_closed) and i.right_closed
    j = lm.farey_interval("J", 2, 1, p, H)
    assert (j.left, j.right) == (Fraction(46), Fraction(101, 2))
    assert j.left_closed and not j.right_closed
    istar = lm.farey_interval("I*", 2, 1, p, H, h)
    assert istar.right == i.right - (h - 1)
    jstar = lm.farey_interval("J*", 2, 1, p, H, h)
    assert jstar.right == j.right - (h - 1)
    j10 = lm.farey_interval("J", 1, 0, p, H)
    assert (j10.left, j10.right) == (-H, 0)


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=11),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=6),
)
def test_farey_interval_integers_match_brute_force(a, b, H, h):
    if not (b < a and math.gcd(a, b) == 1):
        return
    p = 1009
    for kind in lm.INTERVAL_KINDS:
        itv = lm.farey_interval(kind, a, b, p, H, h)
        got = list(itv.integers())
        lo = math.floor(itv.left) - 2
        hi = math.ceil(itv.right) + 2
        want = []
        for z in range(lo, hi + 1):
            inside_left = itv.left < z or (itv.left == z and itv.left_closed)
            inside_right = z < itv.right or (z == itv.right and itv.right_closed)
            if inside_left and inside_right:
                want.append(z)
        assert got == want


@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=39),
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=-3, max_value=60),
    st.sampled_from([101, 1009, 10007]),
)
def test_starred_count_matches_interval_integers(a, b, H, h, p):
    if not (b < a and math.gcd(a, b) == 1):
        return
    want = sum(len(lm.farey_interval(kind, a, b, p, H, h).integers()) for kind in ("I*", "J*"))
    assert lm._starred_count(b * p, H, a, h) == want


def test_disjointness_worked_example():
    c = lm.check_interval_disjointness(101, 9, 2, h=2)
    assert c.passed and c.intervals == 4 and c.exception_interval_ok


def test_disjointness_x_below_one_is_vacuous():
    c = lm.check_interval_disjointness(101, 9, Fraction(1, 2))
    assert c.passed and c.intervals == 0


def test_disjointness_precondition():
    with pytest.raises(ValueError):
        lm.check_interval_disjointness(101, 30, 2)  # 2XH = 120 >= 101


def test_disjointness_randomized_sweep():
    rep = lm.sweep_disjointness(trials=40, p_max=10**4, seed=7)
    assert rep.failures == 0 and rep.instances_run == 40


def _fraction_disjointness(p, H, X, h=None):
    """check_interval_disjointness on Fraction FareyIntervals: the reference
    the integer version must reproduce, message for message."""
    def overlaps(u, v):
        if u.is_empty() or v.is_empty():
            return False
        if u.left > v.left or (u.left == v.left and not u.left_closed and v.left_closed):
            u, v = v, u
        if v.left < u.right:
            return True
        return v.left == u.right and v.left_closed and u.right_closed

    X = Fraction(X)
    intervals, count_viol, exception_ok = [], [], True
    for a in range(1, math.floor(X) + 1):
        for b in range(a):
            if math.gcd(a, b) != 1:
                continue
            iab = lm.farey_interval("I", a, b, p, H)
            jab = lm.farey_interval("J", a, b, p, H)
            intervals.extend((iab, jab))
            if a == 1 and b == 0:
                exception_ok = (jab.left == -H and jab.right == 0
                                and jab.left_closed and not jab.right_closed)
            if h is not None:
                n_star = len(lm.farey_interval("I*", a, b, p, H, h).integers()) + len(
                    lm.farey_interval("J*", a, b, p, H, h).integers())
                if Fraction(n_star) < 2 * (Fraction(H, a) - h):
                    count_viol.append(f"starred count {n_star} < 2(H/a - h) at (a={a}, b={b})")
    ordered = sorted(intervals, key=lambda t: (t.left, not t.left_closed))
    overlap_viol = [f"{u.kind}({u.a},{u.b}) overlaps {v.kind}({v.a},{v.b})"
                    for u, v in zip(ordered, ordered[1:]) if overlaps(u, v)]
    contain_viol = []
    for t in intervals:
        if t.kind == "J" and t.a == 1 and t.b == 0:
            continue
        low_ok = t.left > 0 or (t.left == 0 and not t.left_closed)
        high_ok = t.right < p - H or (t.right == p - H and not t.right_closed)
        if not (low_ok and high_ok):
            contain_viol.append(f"{t.kind}({t.a},{t.b}) escapes (0, p-H)")
    return lm.DisjointnessCheck(
        passed=not overlap_viol and not contain_viol and not count_viol and exception_ok,
        intervals=len(intervals),
        overlap_violations=tuple(overlap_viol),
        containment_violations=tuple(contain_viol),
        count_violations=tuple(count_viol),
        exception_interval_ok=exception_ok,
    )


PRIMES_BELOW_5000 = [int(q) for q in pr.primes_upto(5000) if q >= 11]


def test_disjointness_matches_fraction_reference():
    rng = random.Random(2024)
    cases = [
        (101, 10, 5, 2),  # 2XH = p - 1
        (101, 10, 5, None),
        (1009, 36, 14, 3),  # 2XH = 1008 = p - 1
        (1009, 9, Fraction(7, 2), 4),  # non-integral X
        (1009, 9, Fraction(55, 4), 30),  # h > H/a for every a
        (10007, 100, Fraction(99, 2), 101),  # h > H
        (10007, 1, 40, 1),
    ]
    while len(cases) < 2000:
        p = rng.choice(PRIMES_BELOW_5000)
        x = Fraction(rng.randint(1, 64), 4)
        h_cap = (p - 1) // (2 * x)
        if h_cap < 1:
            continue
        H = rng.randint(1, int(h_cap))
        cases.append((p, H, x, rng.choice((None, rng.randint(1, H + 3)))))
    for p, H, X, h in cases:
        assert lm.check_interval_disjointness(p, H, X, h=h) == _fraction_disjointness(
            p, H, X, h), (p, H, X, h)

def test_disjointness_core_matches_fraction_reference_past_the_hypothesis():
    # families with 2nH >= p: the unchecked core still reproduces the
    # reference message for message, and the draws do overlap and escape
    rng = random.Random(20261021)
    overlapping = escaping = 0
    for _ in range(300):
        p, n = rng.choice(PRIMES_BELOW_5000), rng.randint(1, 16)
        H = rng.randint(-(-p // (2 * n)), 2 * p)
        h = rng.choice((None, rng.randint(1, H + 3)))
        got = lm._disjointness(p, H, n, h)
        assert got == _fraction_disjointness(p, H, n, h), (p, H, n, h)
        overlapping += bool(got.overlap_violations)
        escaping += bool(got.containment_violations)
    assert overlapping > 100 and escaping > 100


def test_disjointness_on_python_int_columns():
    # past n = 42 (lcm(1..43) > 2^63) or n (p + H + h) >= 2^62 the columns
    # hold Python ints; near p = 2^61 int64 would wrap
    m61 = 2**61 - 1  # prime
    cases = [(m61, 43, m61 // 86 - 5, 7), (m61, 43, m61 // 40, 3), (m61, 3, m61 // 6, 2),
             (m61, 2, m61 // 3, None),
             (99991, 42, 1000, 5)]  # int64, with the largest n whose lcm fits
    for p, n, H, h in cases:
        assert lm._disjointness(p, H, n, h) == _fraction_disjointness(p, H, n, h), (p, n, H, h)
    assert lm.check_interval_disjointness(m61, m61 // 86 - 5, 43, h=7).passed
    assert not lm._disjointness(m61, m61 // 40, 43, 3).passed


def test_disjointness_sorts_once_without_per_interval_calls(monkeypatch):
    # X = 40 has 980 intervals: one lexsort, and a few dozen Python calls
    # in all (numpy wrappers, Fraction arithmetic), none per interval
    sorts, lexsort = [], np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(len(keys)) or lexsort(keys))
    calls = []

    def profile(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        c = lm.check_interval_disjointness(99991, 1000, 40, h=5)
    finally:
        sys.setprofile(None)
    assert c.passed and c.intervals == 980
    assert sorts == [3]
    assert len(calls) < c.intervals // 10, calls


def test_overlap_detector_sees_planted_overlap():
    # (0,5] against (4,9], (5,9] and [5,9): right end, then left end, each
    # as a (floor, fraction) sort key
    assert lm._meets((5, 0), True, (4, 0), False)
    assert not lm._meets((5, 0), True, (5, 0), False)  # (0,5] vs (5,9] touch but do not meet
    assert lm._meets((5, 0), True, (5, 0), True)  # 5 belongs to both
    assert not lm._meets((5, 0), False, (5, 0), True)  # [0,5) vs [5,9): J then I of one b/a
    # the fraction part decides when the floors tie, elementwise over columns
    assert lm._meets((5, 3), True, (5, 2), True) and not lm._meets((5, 2), True, (5, 3), True)
    got = lm._meets((np.array([5, 5, 6]), np.array([0, 0, 0])), np.array([True, False, True]),
                    (np.array([5, 5, 5]), np.array([0, 0, 1])), np.array([True, True, False]))
    assert got.tolist() == [True, False, True]


@pytest.mark.parametrize("p, H, want", [
    (14, 5, ("I(1,0) overlaps J(2,1)",)),  # J(2,1) = [4.5, 7) starts inside (0,5]
    (15, 5, ("I(1,0) overlaps J(2,1)",)),  # [5, 7.5) starts on the closed end 5
    (16, 5, ()),  # [5.5, 8) starts past it
    # J(1,0) = [-5,0) and J(2,1) = [0,2.5) touch at the open 0 and do not meet
    (5, 5, ("J(2,1) overlaps I(1,0)", "I(1,0) overlaps I(2,1)")),
])
def test_disjointness_core_sees_planted_overlap(p, H, want):
    # n = 2: J(1,0), I(1,0), J(2,1), I(2,1); J(2,1) and I(2,1) touch at the
    # open p/2 and never meet
    got = lm._disjointness(p, H, 2)
    assert got.overlap_violations == want
    assert got == _fraction_disjointness(p, H, 2)


# -- nonresidue factorizations and the window hypothesis ---------------------


def test_nonresidue_factorization_split():
    nf = lm.nonresidue_factorization([3, 5, 13], 4, 16, 101)
    assert (nf.u1, nf.u2) == (3, 65)
    assert (nf.k, nf.j, nf.n) == (1, 2, 4)
    assert nf.u == 195
    with pytest.raises(ValueError):
        lm.nonresidue_factorization([3, 3], 4, 16, 101)  # not squarefree
    with pytest.raises(ValueError):
        lm.nonresidue_factorization([103], 4, 16, 101)  # factor >= p


def test_window_hypothesis_by_construction():
    # u = q1, H = q2 - 1 always satisfies the hypothesis
    for p in (23, 59, 101, 499):
        q = prime_nonresidues(p, 2, 2)
        spec = CharacterSpec.of_order(p, 2)
        lm.verify_window_hypothesis(spec, q[0], q[1] - 1)  # no raise
        with pytest.raises(lm.HypothesisError):
            lm.verify_window_hypothesis(spec, q[0], q[1])  # q2 inside window


# -- shifted-window lower bound ----------------------------------------------


def _first_prime_with_q(q1, q2_min, limit=2000):
    for p in map(int, pr.sieve(limit)):
        if p <= q2_min:
            continue
        q = prime_nonresidues(p, 2, 2)
        if q[0] == q1 and q[1] >= q2_min:
            return p, q
    raise AssertionError("no such prime below the limit")


def test_shifted_sum_equality_when_j_zero():
    p, q = _first_prime_with_q(2, 11)
    spec = CharacterSpec.of_order(p, 2)
    h = 3  # > q1 = 2, so u1 = u and j = 0
    nf = lm.nonresidue_factorization(q[:1], h, q[1] - 1, p)
    assert nf.j == 0 and nf.k == 1
    for kind in ("I*", "J*"):
        itv = lm.farey_interval(kind, 2, 1, p, nf.H, h)
        c = lm.check_shifted_sum_lower(spec, nf, h, itv)
        assert c.passed and not c.vacuous and c.points_checked > 0
        assert c.min_abs == pytest.approx(h, abs=1e-12)  # equality: all terms agree


def test_shifted_sum_u2_regime():
    p, q = _first_prime_with_q(5, 13)
    spec = CharacterSpec.of_order(p, 2)
    h = 4  # <= q1 = 5, so u2 = u and j = 1
    nf = lm.nonresidue_factorization(q[:1], h, q[1] - 1, p)
    assert nf.j == 1 and nf.k == 0
    itv = lm.farey_interval("I*", 1, 0, p, nf.H, h)
    c = lm.check_shifted_sum_lower(spec, nf, h, itv)
    assert c.passed and not c.vacuous and c.points_checked > 0
    assert c.min_abs >= c.threshold == h - 2


def test_shifted_sum_vacuous_tag():
    p, q = _first_prime_with_q(2, 11)
    spec = CharacterSpec.of_order(p, 2)
    nf = lm.nonresidue_factorization(q[:1], 2, q[1] - 1, p)  # h = 2 = q1: j = 1
    itv = lm.farey_interval("I*", 1, 0, p, nf.H, 2)
    c = lm.check_shifted_sum_lower(spec, nf, 2, itv)
    assert c.vacuous and c.passed


def test_shifted_sum_hypothesis_failure_is_distinct():
    p, q = _first_prime_with_q(2, 11)
    spec = CharacterSpec.of_order(p, 2)
    nf = lm.nonresidue_factorization(q[:1], 3, q[1] + 3, p)  # window too long
    itv = lm.farey_interval("I*", 2, 1, p, nf.H, 3)
    with pytest.raises(lm.HypothesisError):
        lm.check_shifted_sum_lower(spec, nf, 3, itv)


def test_shifted_sum_requires_starred_interval_and_divisibility():
    p, q = _first_prime_with_q(2, 11)
    spec = CharacterSpec.of_order(p, 2)
    nf = lm.nonresidue_factorization(q[:1], 3, q[1] - 1, p)
    with pytest.raises(ValueError):
        lm.check_shifted_sum_lower(
            spec, nf, 3, lm.farey_interval("I", 2, 1, p, nf.H, 3)
        )
    with pytest.raises(ValueError):
        lm.check_shifted_sum_lower(
            spec, nf, 3, lm.farey_interval("I*", 3, 1, p, nf.H, 3)
        )  # u1 = 2 does not divide a = 3


def _order3_instance(j):
    """A d = 3 shifted-window instance with u = q1 and the given j (0 or 1)."""
    for p in map(int, pr.sieve(300)):
        if p == 2 or (p - 1) % 3:
            continue
        q = prime_nonresidues(p, 3, 2)
        h = q[0] + 1 - j  # j = 0: q1 < h, so u1 = q1; j = 1: q1 = h, so u2 = q1
        if h - 2 * j <= 0:
            continue
        spec = CharacterSpec.of_order(p, 3)
        nf = lm.nonresidue_factorization(q[:1], h, q[1] - 1, p)
        itv = lm.farey_interval("I*", max(nf.u1, 1), 1 if nf.u1 > 1 else 0, p, nf.H, h)
        if nf.H < p and itv.integers():
            return spec, nf, h, itv
    raise AssertionError("no usable order-3 instance below the search limit")


def test_shifted_sum_higher_order_character():
    # d = 3 instance; the bound must hold with complex character values
    spec, nf, h, itv = _order3_instance(j=0)
    c = lm.check_shifted_sum_lower(spec, nf, h, itv)
    assert c.passed and not c.vacuous
    assert c.min_abs == pytest.approx(h, abs=1e-6)  # j = 0: equality


def test_shifted_sum_passes_only_certified_windows(monkeypatch):
    # with a kernel error too wide to clear any bound, only windows whose
    # values are all one nonzero root (|w| = h exactly) may still pass
    real = lm._window_m2
    monkeypatch.setattr(lm, "_window_m2",
                        lambda v, h: (real(v, h)[0], [k * k for k in range(1, h + 1)]))
    c = lm.check_shifted_sum_lower(*_order3_instance(j=1))
    assert not c.passed and not c.vacuous
    assert "not certified" in c.detail
    c0 = lm.check_shifted_sum_lower(*_order3_instance(j=0))
    assert c0.passed and c0.detail == ""


def test_sweeps_propagate_unexpected_errors(monkeypatch):
    def broken(p, d, count):
        raise ValueError("broken search")

    monkeypatch.setattr(lm, "prime_nonresidues", broken)
    with pytest.raises(ValueError, match="broken search"):
        next(iter(lm.iter_proposition_instances(100)))
    with pytest.raises(ValueError, match="broken search"):
        lm.sweep_shifted_sum(100, max_instances=5)


def test_sweeps_skip_exhausted_searches(monkeypatch):
    def capped(p, d, count):
        raise SearchCapExceededError(p, d, 10, [])

    monkeypatch.setattr(lm, "prime_nonresidues", capped)
    assert list(lm.iter_proposition_instances(100)) == []
    assert lm.sweep_shifted_sum(100, max_instances=5).instances_run == 0


def test_shifted_sum_sweep():
    rep = lm.sweep_shifted_sum(600, max_instances=100)
    assert rep.failures == 0
    assert rep.instances_run - rep.vacuous_skips >= 50


def test_shifted_sum_sweep_passes_each_h_its_own_row(monkeypatch):
    # the sweep grows one window table per character; each check must get
    # the row and error of its own h, whatever h the table has grown to
    real, seen = lm.check_shifted_sum_lower, set()

    def checked(spec, nf, h, itv, window):
        table, errs = lm._window_m2(spec.values, h)
        assert np.array_equal(window[0], table[h - 1]) and window[1] == errs[h - 1]
        seen.add((spec.p, spec.d, h))
        return real(spec, nf, h, itv, window)

    monkeypatch.setattr(lm, "check_shifted_sum_lower", checked)
    assert lm.sweep_shifted_sum(600, max_instances=100).failures == 0
    assert {h for *_, h in seen} >= {1, 2, 3, 4, 5} and any(d > 2 for _, d, _ in seen)


def test_shifted_sum_takes_the_window_kernel_result():
    spec, nf, h, itv = _order3_instance(j=0)
    table, errs = lm._window_m2(spec.values, h + 3)  # rows past h change nothing
    window = table[h - 1], errs[h - 1]
    assert lm.check_shifted_sum_lower(spec, nf, h, itv, window=window) == (
        lm.check_shifted_sum_lower(spec, nf, h, itv))


def _recorded(sweep, *args):
    """The report of sweep(*args) without elapsed_s, and every (key, passed,
    repr(slack), vacuous) that LemmaReport.record received, in order."""
    calls, record = [], lm.LemmaReport.record

    def spy(self, key, passed, slack, vacuous=False):
        calls.append((key, passed, repr(slack), vacuous))
        record(self, key, passed, slack, vacuous)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lm.LemmaReport, "record", spy)
        report = dataclasses.asdict(sweep(*args))
    del report["elapsed_s"]
    return report, calls


def _sha256(items):
    return hashlib.sha256("".join(f"{x!r}\n" for x in items).encode()).hexdigest()


def _construction_pins():
    """What the constructed-instance sweeps produce: the records and reports
    of both sweeps at the `verify --all` defaults; which sum-chi instances
    run, in order, for every p <= 1500 (the third b coprime to a is first
    taken at p = 1447); and the (p, h, q, u1, u2, H, r) that
    iter_proposition_instances yields for n <= 3 and r <= 3."""
    pins = {}
    for name, sweep, args in (("sum-chi", lm.sweep_shifted_sum, (1500, 300)),
                              ("proposition", lm.sweep_proposition, (50, 10**5))):
        report, calls = _recorded(sweep, *args)
        pins[name] = {"records_sha256": _sha256(calls), "report": report}
    _, calls = _recorded(lm.sweep_shifted_sum, 1500, 10**5)
    pins["sum-chi, every p <= 1500"] = {
        "records": len(calls), "keys_sha256": _sha256((c[0], c[3]) for c in calls)}
    pairs = [(inst.spec.p, inst.h, inst.q, inst.nf.u1, inst.nf.u2, inst.nf.H, r)
             for inst, r in lm.iter_proposition_instances(10**5, n_max=3, r_values=(1, 2, 3))]
    pins["proposition_instances"] = {"count": len(pairs), "sha256": _sha256(pairs)}
    return pins


def test_constructed_instances_match_golden():
    # Pinned from the two separate constructions that _constructed replaced
    path = pathlib.Path(__file__).parent / "data" / "constructed_instances.json"
    assert _construction_pins() == json.loads(path.read_text())


# -- proposition lower bound and sandwich ------------------------------------


def test_proposition_simple_instance():
    inst = lm.build_instance(23, 2, 1, 1)
    assert inst.q[0] == 5 and inst.nf.H == 4
    c = lm.check_proposition_lower(inst.spec, inst.nf, 1, 1)
    assert c.passed
    # n=1: RHS = (18/pi^2) h^(2r+1) X^2 f(X); here f(2) < 0 so RHS < 0 <= S
    assert c.rhs < 0 <= c.lhs


def test_proposition_rhs_specializes_at_n1():
    # with u = 1 the lower bound collapses to (18/pi^2) h^(2r+1) X^2 f(X)
    inst = lm.build_instance(23, 2, 1, 1)
    h, r = 1, 2
    c = lm.check_proposition_lower(inst.spec, inst.nf, h, r)
    x = inst.nf.H / (2 * h)
    f_x = 1 - (math.pi**2 / 9) * (math.log(x) + 9) / (3 * x)
    expected = 18 / math.pi**2 * h ** (2 * r + 1) * x**2 * f_x
    assert c.rhs == pytest.approx(expected, rel=1e-12)


def test_proposition_positive_rhs_instance():
    # find an instance whose lower bound is actually positive
    found = None
    for inst, r in lm.iter_proposition_instances(5000, n_max=2, r_values=(1,)):
        c = lm.check_proposition_lower(inst.spec, inst.nf, inst.h, r)
        if c.rhs > 0:
            found = (inst, c)
            break
    assert found is not None, "no positive-RHS instance found"
    assert found[1].passed


def test_proposition_preconditions_are_errors_not_failures():
    inst = lm.build_instance(23, 2, 1, 1)
    with pytest.raises(ValueError):
        lm.check_proposition_lower(inst.spec, inst.nf, 2, 1)  # 2h = H violates 2h < H
    spec101 = CharacterSpec.of_order(101, 2)
    q = prime_nonresidues(101, 2, 1)
    nf = lm.nonresidue_factorization([], 50, q[0] - 1, 101)
    with pytest.raises(ValueError):
        lm.check_proposition_lower(spec101, nf, 50, 1)  # X <= 1


def test_proposition_x_over_u1_precondition():
    # u1 large enough that X/u1 <= 1 must be rejected
    for inst, r in lm.iter_proposition_instances(3000, n_max=3, r_values=(1,)):
        if inst.nf.u1 > 1:
            x = Fraction(inst.nf.H, 2 * inst.h)
            bad_h = inst.h
            while Fraction(inst.nf.H, 2 * bad_h) / inst.nf.u1 > 1:
                bad_h += 1
                if 2 * bad_h >= inst.nf.H:
                    bad_h = None
                    break
            if bad_h is None:
                continue
            nf_bad = lm.nonresidue_factorization(
                inst.nf.u1_primes + inst.nf.u2_primes, bad_h, inst.nf.H, inst.spec.p
            )
            if nf_bad.u1 == inst.nf.u1:
                with pytest.raises(ValueError):
                    lm.check_proposition_lower(inst.spec, nf_bad, bad_h, 1)
                return
    pytest.skip("no instance admitted an X/u1 <= 1 variation")


def test_sandwich_on_constructed_instances():
    count = 0
    for inst, r in lm.iter_proposition_instances(2000, r_values=(1, 2)):
        sw = lm.sandwich_report(inst.spec, inst.nf, inst.h, r)
        assert sw.passed, (inst.spec.p, inst.nf, inst.h, r)
        if not sw.vacuous:
            assert sw.lower <= sw.value <= sw.upper
            count += 1
        if count >= 25:
            break
    assert count >= 25


def test_proposition_sweep_covers_both_split_regimes():
    rep = lm.sweep_proposition(50)
    assert rep.failures == 0
    assert rep.instances_run - rep.vacuous_skips >= 50
    regimes = rep.worst_instance["regimes"]
    assert regimes["u2_only"] > 0 and (regimes["u1_only"] + regimes["mixed"]) > 0


# -- convexity ---------------------------------------------------------------


def test_convexity_examples():
    c = lm.check_convexity_bound(8, 3, 1)
    assert c.passed
    assert c.lhs == pytest.approx((8 / 6) ** 6, rel=1e-12)
    assert c.rhs == pytest.approx(math.e**2, rel=1e-9)
    c0 = lm.check_convexity_bound(8, 3, 0)
    assert c0.passed and c0.lhs == 1.0 and c0.rhs == 1.0  # exact equality


def test_convexity_integer_comparison_matches_fractions():
    for h in range(1, 41):
        for j in range(h // 8 + 1):
            for r in range(1, 41):
                rhs = IV.exp(IV.mpf(16 * r * j) / (3 * h))
                lhs = Fraction(h, h - 2 * j) ** (2 * r)
                rhs_lo = _lo(rhs)
                c = lm.check_convexity_bound(h, r, j)
                got = (c.passed, c.slack)
                assert got == (lhs <= rhs_lo, float(rhs_lo - lhs)), (h, r, j)
                if j == 0:
                    assert got == (True, 0.0)  # exp(0) = 1 = lhs exactly
    # a left side just above the endpoint fails, one just below passes
    num, den = rhs_lo = lower(IV.exp(IV.mpf(16) / 24))
    assert lm.certify((num, den), rhs_lo) == (True, 0.0)
    assert not lm.certify((2 * num + 1, 2 * den), rhs_lo)[0]
    assert lm.certify((2 * num - 1, 2 * den), rhs_lo)[0]


def test_convexity_sweep_compares_the_chained_interval_product(lemma_records, fold_calls):
    # every reference verdict and slack is certify's against the lower
    # endpoint of the interval product 1 * base * ... * base, base =
    # exp(16j/(3h)), and the column sweep gives the reference's verdicts and
    # report
    reference = reference_convexity(40, 40)
    want = []
    for h in range(1, 41):
        for j in range(h // 8 + 1):
            base, rhs = IV.exp(IV.mpf(16 * j) / (3 * h)), IV.mpf(1)
            for r in range(1, 41):
                rhs = rhs * base
                verdict = lm.certify((h ** (2 * r), (h - 2 * j) ** (2 * r)), lower(rhs))
                want.append(({"h": h, "r": r, "j": j}, *verdict, False))
    assert lemma_records == want
    assert_sweep_is_the_reference(lm.sweep_convexity(40, 40), fold_calls, reference,
                                  lemma_records)


def _records_digest(records):
    """sha256 of one "<instance values> <passed> <slack.hex()>" line per
    recorded instance, and the number of lines."""
    digest = hashlib.sha256()
    for instance, passed, slack, vacuous in records:
        assert not vacuous
        fields = " ".join(map(str, instance.values()))
        digest.update(f"{fields} {passed} {slack.hex()}\n".encode())
    return len(records), digest.hexdigest()


COLUMN_SWEEPS = {  # lemma -> (column sweep, its reference)
    "totient": (lm.sweep_totient, reference_totient),
    "convexity": (lm.sweep_convexity, reference_convexity),
    "s-upper": (lm.sweep_s_upper, reference_s_upper),
}


@pytest.mark.parametrize("lemma", ["convexity", "s-upper"])
def test_sweep_instances_match_golden(lemma, lemma_records, fold_calls):
    # Pinned from the sweeps that called mpmath once per convexity instance
    # and took one window pass per s-upper character: every verdict and
    # slack bit of the reference, and the column sweep gives its verdicts
    # and report.  The convexity grid reaches 2,400-bit powers and endpoints
    # with exp >= 0; its report alone pins no slack, since the j = 0 rows
    # fix min_slack at 0.0.
    path = pathlib.Path(__file__).parent / "data" / "sweep_instances.json"
    want = json.loads(path.read_text())[lemma]
    sweep, reference = COLUMN_SWEEPS[lemma]
    ref = reference(*want["grid"])
    assert _records_digest(lemma_records) == (want["instances"], want["sha256"])
    assert_sweep_is_the_reference(sweep(*want["grid"]), fold_calls, ref, lemma_records)


@pytest.mark.parametrize("lemma, grid", [("totient", (300,)), ("convexity", (64, 200)),
                                         ("s-upper", (300, 8, 6))])
def test_float_slacks_stay_within_their_proved_bounds(lemma, grid, lemma_records, fold_calls):
    # |est - fl(s)| <= err for every cell of the golden grids, s the exact
    # slack the reference records; and err stays far below the slacks, so
    # the filter decides all but the border and minimum cells
    sweep, reference = COLUMN_SWEEPS[lemma]
    reference(*grid)
    sweep(*grid)
    est, err = (np.concatenate(col) for col in zip(*[(c.est, c.err) for c in fold_calls]))
    slack = np.array([s for _, _, s, _ in lemma_records])
    assert est.shape == slack.shape == err.shape
    assert np.isfinite(err).all() and (np.abs(est - slack) <= err).all()
    assert (err <= 1e-9 * np.maximum(1, np.abs(slack))).all()


def test_verify_small_grid_takes_the_exact_path_only_where_needed(fold_calls):
    # verify-small's grid: s-upper and totient decide one cell each exactly,
    # their first (the minimum slack); convexity exactly its 1,600 j = 0
    # cells, whose slack is 0, and nothing else
    for sweep, grid, n_exact in ((lm.sweep_s_upper, (37, 8, 6), 1),
                                 (lm.sweep_totient, (120,), 1)):
        fold_calls.clear()
        rep = sweep(*grid)
        assert sum(len(c.exact) for c in fold_calls) == n_exact
        assert fold_calls[0].exact == [0] and rep.worst_instance is not None
    fold_calls.clear()
    lm.sweep_convexity(40, 40)
    for h, call in enumerate(fold_calls, 1):
        assert call.exact == list(range(40)), h  # j = 0 is the chunk's first row
    assert sum(len(c.exact) for c in fold_calls) == 1600


def test_sweeps_on_the_exact_path_alone_are_the_reference(monkeypatch, lemma_records):
    # with every err infinite, every cell takes the exact path: each sweep's
    # exact closure, with its lazy integer chain and sums, gives the reference
    fold = lm.LemmaReport.fold
    monkeypatch.setattr(lm.LemmaReport, "fold", lambda self, est, err, exact, instance:
                        fold(self, est, np.full(len(est), np.inf), exact, instance))
    for lemma, grid in (("totient", (40,)), ("convexity", (33, 17)), ("s-upper", (41, 6, 9))):
        sweep, reference = COLUMN_SWEEPS[lemma]
        assert report_fields(sweep(*grid)) == report_fields(reference(*grid)), lemma


def test_convexity_preconditions():
    with pytest.raises(ValueError):
        lm.check_convexity_bound(8, 3, 2)  # j > h/8
    with pytest.raises(ValueError):
        lm.check_convexity_bound(0, 1, 0)


def test_convexity_sweep_small():
    rep = lm.sweep_convexity(40, 40)
    assert rep.failures == 0
    assert rep.min_slack == 0.0  # j = 0 rows are exact equalities


# -- report plumbing ---------------------------------------------------------


def _fold_against_record(chunks):
    """Fold each chunk of (est, err, passed, slack) cells, instance {"i":
    its index in all chunks}, and record the same cells one by one: the
    two reports must be equal, and the verdicts the cells' passed.  Returns
    the folded report and each chunk's exact-path indices."""
    folded, recorded = lm.LemmaReport("fold"), lm.LemmaReport("fold")
    exact_cells, start = [], 0
    for chunk in chunks:
        est, err, passed, slack = (list(col) for col in zip(*chunk)) if chunk else [[]] * 4
        cells = []

        def exact(i, passed=passed, slack=slack, cells=cells):
            cells.append(i)
            return passed[i], slack[i]

        verdicts = folded.fold(np.array(est, dtype=float), np.array(err, dtype=float), exact,
                               lambda i, start=start: {"i": start + i})
        assert verdicts.tolist() == passed
        for i in range(len(chunk)):
            recorded.record({"i": start + i}, passed[i], slack[i])
        exact_cells.append(cells)
        start += len(chunk)
    assert folded == recorded
    return folded, exact_cells


def _cell(slack, err=0.1, est=None):
    """A cell of exact slack `slack`, estimated as est (default: slack)."""
    return (slack if est is None else est), err, slack >= 0, slack


def test_fold_finds_a_minimum_in_the_middle():
    rep, exact = _fold_against_record([[], [_cell(s) for s in (5, 3, 1, 4, 2)]])
    assert exact == [[], [2]]
    assert (rep.min_slack, rep.worst_instance, rep.instances_run) == (1, {"i": 2}, 5)


def test_fold_keeps_the_first_of_tied_minima():
    # within a chunk every tied cell is exact and the first wins; in a later
    # chunk a tie is exact too (at or below the running minimum) but does
    # not replace it
    rep, exact = _fold_against_record([[_cell(s) for s in (3, 1, 2, 1)],
                                       [_cell(1), _cell(2), _cell(1.05)]])
    assert exact == [[1, 3], [0, 2]]
    assert (rep.min_slack, rep.worst_instance) == (1, {"i": 1})


def test_fold_sends_border_cells_to_the_exact_path():
    # a cell whose interval holds 0 takes its verdict from the exact path,
    # whatever side of 0 its estimate is on; a sure failure is exact only as
    # a minimum candidate
    cells = [_cell(0.05), _cell(-0.01, est=0.05), _cell(0.0), _cell(-3), _cell(-2.5),
             _cell(2), _cell(1e-3, err=0.0)]
    rep, exact = _fold_against_record([cells])
    assert exact == [[0, 1, 2, 3]]
    assert (rep.passes, rep.failures, rep.min_slack) == (4, 3, -3)
    assert rep.failure_examples == [{"i": 1}, {"i": 3}, {"i": 4}]


def test_fold_keeps_the_first_ten_of_twelve_failures():
    chunks = [[_cell(-k) if k % 2 else _cell(k) for k in range(1, 13)],
              [_cell(k) if k % 2 else _cell(-k) for k in range(13, 25)]]
    rep, exact = _fold_against_record(chunks)
    assert rep.failures == 12 and len(rep.failure_examples) == 10
    assert rep.failure_examples[-1] == {"i": 19}  # the fourth failure of chunk 2
    assert exact == [[10], [11]]  # the least slack of each chunk: -11, then -24
    assert (rep.min_slack, rep.worst_instance) == (-24, {"i": 23})


def test_fold_skips_none_and_nan_slacks_and_unbounded_cells():
    # est or err nan or inf sends a cell to the exact path; an exact slack of
    # None or nan counts for the verdict but not for the minimum
    cells = [(math.nan, 0.1, True, None), (math.inf, 0.1, True, math.nan),
             (1.0, math.inf, False, None), (-math.inf, 1.0, False, math.nan),
             _cell(1.0), (2.0, math.inf, True, 2.0), (3.0, math.nan, True, 3.0)]
    rep, exact = _fold_against_record([cells])
    assert exact == [[0, 1, 2, 3, 4, 5, 6]]
    assert (rep.min_slack, rep.worst_instance, rep.failures) == (1.0, {"i": 4}, 2)
    rep, exact = _fold_against_record([[(math.nan, 0.0, True, None)]])
    assert rep.min_slack is None and rep.worst_instance is None




def test_run_verification_refuses_grids_without_instances():
    assert list(lm.iter_proposition_instances(max_instances=0)) == []
    for lemma, cfg in (("proposition", lm.VerifyConfig(proposition_instances=0)),
                       ("proposition", lm.VerifyConfig(proposition_p_limit=19)),
                       ("totient", lm.VerifyConfig(totient_x_max=1)),
                       ("totient", lm.VerifyConfig(totient_x_max=-1)),
                       ("disjointness", lm.VerifyConfig(disjoint_p_max=7))):
        with pytest.raises(ValueError):
            lm.run_verification([lemma], cfg)
    for cfg in (lm.VerifyConfig(s_upper_h_max=0), lm.VerifyConfig(s_upper_r_max=0)):
        with pytest.raises(ValueError, match="the s-upper grid holds no instances"):
            lm.run_verification(["s-upper"], cfg)
    assert lm.sweep_s_upper(37, 8, 0).instances_run == 0
    # the moment function refuses an empty h or r list for every order
    for d in (2, 3):
        spec = CharacterSpec.of_order(7, d)
        for hs, rs in (((2,), []), ([], (1,)), ([], [])):
            with pytest.raises(ValueError, match="need some 1 <= h < p"):
                lm._sum_S_multi(spec, hs, rs)


def test_run_verification_selectors_and_shape():
    rep = lm.run_verification(
        ["stirling", "convexity"],
        lm.VerifyConfig(stirling_r_max=20, convexity_h_max=16, convexity_r_max=10),
    )
    assert rep["all_passed"]
    assert set(rep["lemmas"]) == {"stirling", "convexity"}
    st_rep = rep["lemmas"]["stirling"]
    assert st_rep["instances_run"] == 20 and st_rep["failures"] == 0
    with pytest.raises(ValueError):
        lm.run_verification(["no-such-lemma"])


def test_run_verification_refuses_an_empty_selection_and_runs_a_name_once(monkeypatch):
    # an empty list is a selection of nothing, not of everything
    with pytest.raises(ValueError, match="no lemma selected"):
        lm.run_verification([])
    runs = []
    sweep = lm._SWEEPS["stirling"]
    monkeypatch.setitem(lm._SWEEPS, "stirling", lambda cfg: runs.append(cfg) or sweep(cfg))
    rep = lm.run_verification(["stirling", "stirling"], lm.VerifyConfig(stirling_r_max=5))
    assert len(runs) == 1 and list(rep["lemmas"]) == ["stirling"]


# Reports of the reduced benchmark grid at two seeds, elapsed_s stripped, as
# the rational-arithmetic certificates wrote them before they moved to plain
# integers: every verdict, slack, count and message must stay byte for byte
# the same.
@pytest.mark.parametrize("seed", [5, 11])
def test_verify_report_matches_golden(seed):
    path = pathlib.Path(__file__).parent / "data" / f"verify_report_seed{seed}.json"
    want = path.read_text()
    cfg = lm.VerifyConfig(**json.loads(want)["config"])
    assert cfg.seed == seed
    report = lm.run_verification(config=cfg)
    for rep in report["lemmas"].values():
        del rep["elapsed_s"]
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == want
