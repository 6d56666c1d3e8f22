"""Prime and multiplicative-function plumbing used across the package.

Everything here is exact integer arithmetic.  Sieves are numpy bool arrays;
factorization is trial division with a Pollard-rho (Brent) fallback that
gives up loudly when its effort budget is exhausted.

Small primes have one source: primes_upto, a view of a single cached int64
table that grows by doubling on demand.  The nonresidue search walks it,
and the segmented range sieve takes its base primes from it.
"""

from __future__ import annotations

import math

import numpy as np

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Deterministic Miller-Rabin with the witness set below is correct for all
# n < 3.3 * 10^24, far above anything this package scans.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

TRIAL_DIVISION_LIMIT = 10**7
RHO_ITERATION_BUDGET = 10**7

# The shared prime table: every prime <= _table_limit.  It starts empty, so
# importing the module sieves nothing.
_TABLE_MIN_LIMIT = 1 << 16
_table = np.array([], dtype=np.int64)
_table_limit = 1


class FactorizationError(RuntimeError):
    """Raised when a factorization exceeds the configured effort budget."""


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
    for a in _MR_WITNESSES:
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

    Base primes come from the shared table.  Those up to the segment width
    stride through the segment.  A wider base prime p has at most one
    multiple in it, and that multiple is a proper one (p > hi - lo + 1 and
    p*p <= hi force p < lo), so all of those are struck in one vectorised
    step.
    """
    if hi < 2 or hi < lo:
        return np.array([], dtype=np.int64)
    lo = max(lo, 2)
    width = hi - lo + 1
    base = primes_upto(math.isqrt(hi))
    n_narrow = int(np.searchsorted(base, width, side="right"))
    flags = np.ones(width, dtype=bool)
    for p in base[:n_narrow].tolist():
        # from p*p on, so a base prime inside the window is kept
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start > hi:
            continue
        flags[start - lo :: p] = False
    offsets = (-lo) % base[n_narrow:]
    flags[offsets[offsets < width]] = False
    return np.flatnonzero(flags).astype(np.int64) + lo


def _pollard_brent(n: int, seed: int = 1) -> int:
    """One Brent-cycle attempt at a nontrivial factor of odd composite n."""
    if n % 2 == 0:
        return 2
    y, c, m = seed % n + 1, seed % (n - 1) + 1, 128
    g = r = q = 1
    x = ys = y
    count = 0
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
            count += m
            if count > RHO_ITERATION_BUDGET:
                raise FactorizationError(f"factor search budget exhausted for {n}")
        r *= 2
    if g == n:
        while True:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            if g > 1:
                break
    return g


def factorize(n: int, trial_limit: int = TRIAL_DIVISION_LIMIT) -> dict[int, int]:
    """Prime factorization {p: exponent} of n >= 1.

    Trial division up to trial_limit, then Pollard rho; raises
    FactorizationError if the rho budget runs out.
    """
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    steps = (4, 2, 4, 2, 4, 6, 2, 6)  # wheel mod 30
    i = 0
    while f * f <= n and f <= trial_limit:
        if n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        else:
            f += steps[i]
            i = (i + 1) % 8
    if n == 1:
        return out
    if f * f > n:
        out[n] = out.get(n, 0) + 1
        return out
    # n still composite beyond the trial range: recurse through rho splits
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = m
        seed = 1
        while d == m:
            d = _pollard_brent(m, seed)
            seed += 1
            if seed > 20:
                raise FactorizationError(f"could not split {m}")
        stack.extend((d, m // d))
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError(f"euler_phi needs n >= 1, got {n}")
    r = n
    for p in factorize(n):
        r = r // p * (p - 1)
    return r


def totient_sieve(limit: int) -> np.ndarray:
    """phi(a) for a = 0..limit as an int64 array (phi(0) set to 0)."""
    phi = np.arange(limit + 1, dtype=np.int64)
    phi[0] = 0
    for p in range(2, limit + 1):
        if phi[p] == p:  # p is prime
            phi[p::p] -= phi[p::p] // p
    return phi
