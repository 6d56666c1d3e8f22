import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonresidues import primes as pr


def trial_division_primes(limit):
    out = []
    for n in range(2, limit + 1):
        if all(n % d for d in range(2, math.isqrt(n) + 1)):
            out.append(n)
    return out


def test_sieve_matches_trial_division():
    assert list(pr.sieve(1000)) == trial_division_primes(1000)
    assert list(pr.sieve(1)) == []
    assert list(pr.sieve(2)) == [2]


def test_segmented_sieve_matches_full_sieve():
    full = [p for p in pr.sieve(5000) if 1234 <= p <= 4321]
    assert list(pr.primes_in_range(1234, 4321)) == full
    assert list(pr.primes_in_range(0, 10)) == [2, 3, 5, 7]
    assert list(pr.primes_in_range(20, 10)) == []
    # segment starting beyond the base primes
    assert list(pr.primes_in_range(10**6, 10**6 + 100)) == [
        p for p in map(int, pr.sieve(10**6 + 100)) if p >= 10**6
    ]


def test_primes_upto_prefix():
    first = pr.primes_upto(8000)
    kept = first.copy()
    assert list(first) == list(pr.sieve(8000))
    assert pr.primes_upto(7919)[-1] == 7919  # the bound is inclusive
    assert list(pr.primes_upto(1)) == [] and list(pr.primes_upto(2)) == [2]
    assert not first.flags.writeable
    # growing the table leaves earlier entries, and views of them, unchanged
    pr.primes_upto(pr._table_limit + 1)
    assert list(first) == list(kept)
    assert list(pr.primes_upto(8000)) == list(kept)
    grown = pr.primes_upto(pr._table_limit)
    assert list(grown) == list(pr.sieve(pr._table_limit))


@pytest.mark.parametrize("lo, hi", [
    (10**12, 10**12 + 1000),  # base primes up to 10^6, far wider than 1001
    (10**9 - 50, 10**9 + 50),
    (0, 9), (1, 2), (2, 2), (3, 9), (4, 4), (-7, 7), (8, 10),
])
def test_primes_in_range_matches_is_prime(lo, hi):
    expected = [n for n in range(max(lo, 0), hi + 1) if pr.is_prime(n)]
    assert list(pr.primes_in_range(lo, hi)) == expected


def test_primes_in_range_above_2_40_keeps_its_base_table(monkeypatch):
    # base primes stop at 2^20, so a survivor may be a product of larger
    # primes: the square of the least prime above 2^20, and a product of
    # two primes near 2^31.5 just below 2^63, each inside a window
    p20 = 1048583
    assert pr.is_prime(p20) and not any(map(pr.is_prime, range(2**20, p20)))
    a, b = 3036988393, 3037012607
    assert pr.is_prime(a) and pr.is_prime(b) and 2**63 - 2 * 10**6 < a * b < 2**63
    requested = []
    upto = pr.primes_upto
    monkeypatch.setattr(pr, "primes_upto", lambda n: requested.append(n) or upto(n))
    for lo, hi in ((p20**2 - 300, p20**2 + 300), (2**40 - 100, 2**40 + 100),
                   (a * b - 500, a * b + 500), (2**63 - 500, 2**63 - 1)):
        expected = [n for n in range(lo, hi + 1) if pr.is_prime(n)]
        assert pr.primes_in_range(lo, hi).tolist() == expected
    assert max(requested) == 2**20


@given(st.integers(min_value=0, max_value=10**10), st.integers(min_value=0, max_value=300))
def test_primes_in_range_property(lo, width):
    got = pr.primes_in_range(lo, lo + width)
    assert got.dtype == np.int64
    assert list(got) == [n for n in range(lo, lo + width + 1) if pr.is_prime(n)]


@functools.lru_cache(maxsize=None)
def _bytearray_base(limit):
    """The primes up to limit, by a plain bytearray sieve."""
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\0\0"
    for d in range(2, math.isqrt(limit) + 1):
        if flags[d]:
            flags[d * d :: d] = bytes(len(range(d * d, limit + 1, d)))
    return list(itertools.compress(range(limit + 1), flags))


def bytearray_primes(lo, hi):
    """Primes in [lo, hi] by a bytearray window struck from each base prime's
    square on, with no numpy and no shared table.  Base primes stop at 2^20
    as in the package; above 2^40 the survivors are then decided by
    is_prime, which its own tests pin against trial division."""
    lo = max(lo, 2)
    root = math.isqrt(hi)
    window = bytearray([1]) * (hi - lo + 1)
    for p in _bytearray_base(min(root, 2**20)):
        start = max(p * p, -(-lo // p) * p)
        window[start - lo :: p] = bytes(len(range(start, hi + 1, p)))
    found = [lo + i for i in itertools.compress(range(len(window)), window)]
    return found if root <= 2**20 else [n for n in found if pr.is_prime(n)]


_WIDTHS = sorted({1, 63, 64, 65, 127, 128, 129,
                  *(2**k + e for k in range(1, 15) for e in (-1, 1))})


@pytest.mark.parametrize("lo", [2, 10**9 - 7])
def test_primes_in_range_widths_against_bytearray_sieve(lo):
    # widths about the stride limit 64 and about every octave edge 2^k
    for width in _WIDTHS:
        hi = lo + width - 1
        assert pr.primes_in_range(lo, hi).tolist() == bytearray_primes(lo, hi), width


@pytest.mark.parametrize("p", [61, 67, 127, 131])
def test_primes_in_range_about_a_base_prime_square(p):
    # 61 strides and 67 is the first octave's; 127 and 131 straddle 2^7.
    # A window from p itself must keep p, since strikes start at p*p.
    for lo in (p, p * p - 1, p * p, p * p + 1):
        for width in (1, 2, 100, 5000):
            hi = lo + width - 1
            assert pr.primes_in_range(lo, hi).tolist() == bytearray_primes(lo, hi)


@pytest.mark.parametrize("lo, hi", [
    (2**31 - 3000, 2**31 + 3000),
    (10**12 - 1500, 10**12 + 1500),
    (2**63 - 3000, 2**63 - 1),
])
def test_primes_in_range_far_windows_against_bytearray_sieve(lo, hi):
    assert pr.primes_in_range(lo, hi).tolist() == bytearray_primes(lo, hi)


def test_primes_in_range_memory_stays_linear_in_the_width():
    # one scatter per octave keeps each index rectangle within about twice
    # its multiples; a single rectangle over all base primes up to 10^6
    # would hold about 10^6/67 columns for each of them
    lo, width = 10**12, 10**6
    pr.primes_upto(2**20)  # the shared table is not the sieve's to count
    tracemalloc.start()
    try:
        found = pr.primes_in_range(lo, lo + width - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(found) == 36249
    assert peak < 16 * width


def _check_factorization(n):
    fac = pr.factorize(n)
    assert math.prod(p**e for p, e in fac.items()) == n
    assert all(pr.is_prime(p) for p in fac)
    assert list(fac) == sorted(fac)


@settings(deadline=None)
@given(st.one_of(st.integers(min_value=1, max_value=10**6),
                 st.integers(min_value=1, max_value=pr.FACTORIZE_LIMIT - 1)))
def test_factorize_roundtrip(n):
    _check_factorization(n)


def test_factorize_large_semiprime():
    n = 1000003 * 999983
    assert pr.factorize(n) == {999983: 1, 1000003: 1}


@pytest.mark.parametrize("n", [
    1048571 * 1048573,  # the two largest primes below 2^20
    1048573**2,  # the square of the largest
    2**39,
    2**40 - 1,
    10**12 + 38,
])
def test_factorize_fixed_cases(n):
    _check_factorization(n)


def test_factorize_refuses_outside_range_and_keeps_table_small(monkeypatch):
    # start from an empty table, whatever earlier tests sieved
    monkeypatch.setattr(pr, "_table", np.array([], dtype=np.int64))
    monkeypatch.setattr(pr, "_table_limit", 1)
    assert pr.FACTORIZE_LIMIT == 2**40
    for n in (0, -5, 2**40, 2**64):
        with pytest.raises(ValueError):
            pr.factorize(n)
    assert pr.factorize(2**40 - 1) == {3: 1, 5: 2, 11: 1, 17: 1, 31: 1, 41: 1, 61681: 1}
    assert pr.factorize(1048573**2) == {1048573: 2}
    assert pr._table_limit <= 2**20


def test_is_prime_small_oracle():
    known = set(trial_division_primes(2000))
    for n in range(2000):
        assert pr.is_prime(n) == (n in known)


def test_is_prime_carmichael_and_large():
    assert not pr.is_prime(561)  # Carmichael
    assert not pr.is_prime(341550071728321)
    assert pr.is_prime(2**61 - 1)


def test_divisors():
    assert pr.divisors(12) == [1, 2, 3, 4, 6, 12]
    assert pr.divisors(1) == [1]
    assert pr.divisors(97) == [1, 97]
    for n in (1, 12, 97, 360, 2**40 - 1):  # from a given factorization, the same list
        assert pr.divisors(n, pr.factorize(n)) == pr.divisors(n)


@given(st.integers(min_value=1, max_value=3000))
def test_euler_phi_matches_gcd_count(n):
    assert pr.euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_totient_sieve_matches_euler_phi():
    phi = pr.totient_sieve(500)
    assert phi[0] == 0
    for n in range(1, 501):
        assert int(phi[n]) == pr.euler_phi(n)


def test_totient_sieve_agrees_at_every_limit():
    # a prime limit must sieve its own multiples too: phi(p) = p - 1
    phi = pr.totient_sieve(500).tolist()
    for limit in range(200):
        assert pr.totient_sieve(limit).tolist() == phi[: limit + 1], limit


def test_totient_sieve_refuses_a_negative_limit():
    assert pr.totient_sieve(0).tolist() == [0]
    for limit in (-1, -5):
        with pytest.raises(ValueError, match="limit >= 0"):
            pr.totient_sieve(limit)


def test_smallest_prime_factors_match_factorize():
    spf = pr.smallest_prime_factors(5000)
    assert spf[:2].tolist() == [0, 1]
    for k in range(2, 5001):
        assert int(spf[k]) == min(pr.factorize(k)), k
    assert pr.smallest_prime_factors(0).tolist() == [0]
    assert pr.smallest_prime_factors(1).tolist() == [0, 1]
    with pytest.raises(ValueError, match="limit >= 0"):
        pr.smallest_prime_factors(-1)


def test_errors():
    with pytest.raises(ValueError):
        pr.factorize(0)
    with pytest.raises(ValueError):
        pr.euler_phi(0)
