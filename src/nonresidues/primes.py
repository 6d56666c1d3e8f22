"""Prime and multiplicative-function plumbing used across the package.

Everything here is exact integer arithmetic.  Sieves are numpy bool arrays.

Small primes have one source: primes_upto, a view of a single cached int64
table that grows by doubling on demand.  The nonresidue search walks it,
the segmented range sieve and the least-prime-factor sieve take their base
primes from it, the totient sieve its primes, and factorize trial-divides
by it.  The package factorizes only p-1 for small p (primitive roots and
divisor lists in the lemma sweeps), so factorize refuses n >= 2^40: below
that, isqrt(n) < 2^20 and the table never grows past the size a scan near
10^12 already builds.
The range sieve takes its base primes up to 2^20 as well, and above 2^40
it tests each survivor with is_prime, so that a scan near 2^63 does not
sieve up to 2^32 first.
"""

from __future__ import annotations

import math

import numpy as np

# Trial divisors, and the Miller-Rabin witnesses: with them the test is
# deterministic for all n < 3.3 * 10^24, far above anything this package scans.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

FACTORIZE_LIMIT = 1 << 40

# The shared prime table: every prime <= _table_limit.  It starts empty, so
# importing the module sieves nothing.
_TABLE_MIN_LIMIT = 1 << 16
_RANGE_BASE_LIMIT = 1 << 20  # base primes of the range sieve, at most
_STRIDE_LIMIT = 1 << 6  # base primes below it stride one slice each
_table = np.array([], dtype=np.int64)
_table_limit = 1


def is_prime(n: int) -> bool:
    """Deterministic primality test for n below ~3.3e24."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sieve(limit: int) -> np.ndarray:
    """All primes <= limit as an int64 array."""
    if limit < 2:
        return np.array([], dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n, as a read-only view of the shared prime table.

    A request past the sieved limit re-sieves up to the limit doubled (at
    least 2^16) as often as it takes to cover n.  Earlier entries never
    change, and views handed out before keep their values.
    """
    global _table, _table_limit
    if n > _table_limit:
        limit = max(_TABLE_MIN_LIMIT, _table_limit)
        while limit < n:
            limit *= 2
        table = sieve(limit)
        table.flags.writeable = False
        _table, _table_limit = table, limit
    return _table[: np.searchsorted(_table, n, side="right")]


def primes_in_range(lo: int, hi: int) -> np.ndarray:
    """Primes in [lo, hi] via a segmented sieve (memory ~ hi - lo).

    Base primes come from the shared table, up to isqrt(hi) but at most
    _RANGE_BASE_LIMIT.  Each base prime p strikes its multiples from
    max(p*p, lo) on.  Starting at p*p keeps a base prime that lies inside
    the window, and loses nothing: a multiple kp < p*p has k < p, so a
    prime factor of k below p strikes it.

    Base primes below _STRIDE_LIMIT stride through the window, one slice
    each.  The larger ones are struck in one numpy scatter per octave
    [2^j, 2^(j+1)), over the primes of the octave that have a multiple in
    the window.  The scatter's index rectangle has one row per prime and
    (width - 1 - s) // p0 + 1 columns, for the least start offset s and
    the least prime p0 of its rows: as many as the most multiples any row
    has.  A row's prime p < 2 p0 has about width/p > width/(2 p0)
    multiples, so each rectangle is at most about twice its true number of
    multiples (its spill past the window is dropped before the scatter),
    and memory stays O(width) however wide the window.  The octaves stop
    at the first power of two above the width, and the primes beyond it
    form the last rectangle: each has at most one multiple, so it has one
    column.

    If isqrt(hi) is above the limit, a survivor has no prime factor up to
    the limit but may still be composite, so each one is then tested with
    is_prime.
    """
    if hi < 2 or hi < lo:
        return np.array([], dtype=np.int64)
    lo = max(lo, 2)
    width = hi - lo + 1
    root = math.isqrt(hi)
    base = primes_upto(min(root, _RANGE_BASE_LIMIT))
    flags = np.ones(width, dtype=bool)
    n_stride = int(np.searchsorted(base, _STRIDE_LIMIT))
    for p in base[:n_stride].tolist():
        start = max(p * p, ((lo + p - 1) // p) * p)
        flags[start - lo :: p] = False
    big = base[n_stride:]
    first = (-lo) % big  # offset of each prime's first multiple >= lo
    squared = int(np.searchsorted(big, math.isqrt(lo) + 1))  # p*p > lo from here
    first[squared:] = big[squared:] * big[squared:] - lo
    edges = np.searchsorted(
        big, [1 << j for j in range(_STRIDE_LIMIT.bit_length(), width.bit_length() + 1)]
    ).tolist()
    for a, b in zip([0, *edges], [*edges, len(big)]):
        live = first[a:b] < width
        p, start = big[a:b][live], first[a:b][live]
        if len(p):
            columns = (width - 1 - int(start.min())) // int(p[0]) + 1
            at = start[:, None] + p[:, None] * np.arange(columns)
            flags[at[at < width]] = False
    found = np.flatnonzero(flags).astype(np.int64) + lo
    if root > _RANGE_BASE_LIMIT:
        found = found[[is_prime(x) for x in found.tolist()]]
    return found


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} of 1 <= n < 2^40, keys increasing.

    Trial division by the shared table up to isqrt(n): the primes dividing
    n are picked out in one vectorised step and divided out, and a cofactor
    above 1 has no prime factor <= isqrt(n), so it is prime.  Larger n are
    refused, so that the table never grows past 2^20.
    """
    if not 1 <= n < FACTORIZE_LIMIT:
        raise ValueError(f"factorize needs 1 <= n < 2^40, got {n}")
    out: dict[int, int] = {}
    base = primes_upto(math.isqrt(n))
    for p in base[n % base == 0].tolist():
        out[p] = 0
        while n % p == 0:
            out[p] += 1
            n //= p
    if n > 1:
        out[n] = 1
    return out


def divisors(n: int, factors: dict[int, int] | None = None) -> list[int]:
    """All positive divisors of n, sorted; from factors, n's factorization
    as factorize returns it, when given."""
    out = [1]
    for p, e in (factorize(n) if factors is None else factors).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError(f"euler_phi needs n >= 1, got {n}")
    r = n
    for p in factorize(n):
        r = r // p * (p - 1)
    return r


def smallest_prime_factors(limit: int) -> np.ndarray:
    """The least prime factor of k for k = 0..limit as an int64 array, with
    0 and 1 mapped to themselves, so that k is prime iff k >= 2 and
    spf[k] == k.

    Each prime p <= isqrt(limit) from the shared table marks its multiples
    from p*p on, the largest prime first, so that the least one marks last.
    A composite k has its least prime factor p <= isqrt(k), and p*p <= k,
    so p marks it; a prime keeps itself."""
    if limit < 0:
        raise ValueError(f"smallest_prime_factors needs limit >= 0, got {limit}")
    spf = np.arange(limit + 1, dtype=np.int64)
    for p in primes_upto(math.isqrt(limit))[::-1].tolist():
        spf[p * p :: p] = p
    return spf


def totient_sieve(limit: int) -> np.ndarray:
    """phi(a) for a = 0..limit as an int64 array (phi(0) set to 0), each
    prime p <= limit from primes_upto scaling its multiples by 1 - 1/p."""
    if limit < 0:
        raise ValueError(f"totient_sieve needs limit >= 0, got {limit}")
    phi = np.arange(limit + 1, dtype=np.int64)
    phi[0] = 0
    for p in primes_upto(limit).tolist():
        phi[p::p] -= phi[p::p] // p
    return phi
