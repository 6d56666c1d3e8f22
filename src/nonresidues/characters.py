"""Exact Dirichlet-character arithmetic to a prime modulus.

A character of order d mod a prime p is realized concretely: pick a
primitive root g, pick an exponent m with (p-1)/gcd(m, p-1) = d, and set
chi(g^k) = e^(2 pi i m k / (p-1)).  Values are kept exact as residue
classes t mod d, standing for the root of unity e^(2 pi i t / d); no
floating point enters until a caller asks for a complex value.

The kernel of an order-d character mod p is exactly the set of d-th power
residues, so membership is a single modular exponentiation
q^((p-1)/d) == 1 (mod p) and never needs a discrete logarithm.  That is
what makes smallest-prime-nonresidue computations cheap for large p; the
full table of t-values (CharacterSpec.t_table) is only built for small p,
where the character-sum oracles need arbitrary values of chi.  Candidate
nonresidues are read from the package's one shared prime table
(primes.primes_upto), so a search never sieves anything that an earlier
search already sieved.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import primes as pr

__all__ = [
    "CharacterSpec",
    "CharacterValue",
    "DiscreteLogThresholdError",
    "SearchCapExceededError",
    "char_value",
    "find_primitive_root",
    "is_kernel",
    "mod_pow",
    "prime_nonresidues",
]

# Full t-tables cost O(p) memory; beyond this, use is_kernel instead.
DLOG_TABLE_THRESHOLD = 10**6

DEFAULT_SEARCH_CAP = 10**6


class DiscreteLogThresholdError(RuntimeError):
    """Modulus too large for a t-table; kernel tests don't need one."""


class SearchCapExceededError(RuntimeError):
    """Nonresidue search hit its cap before finding enough primes."""

    def __init__(self, p: int, d: int, cap: int, found: list[int]):
        super().__init__(
            f"found only {len(found)} prime nonresidues for (p={p}, d={d}) "
            f"below cap {cap}"
        )
        self.p = p
        self.d = d
        self.cap = cap
        self.found = found


def mod_pow(a: int, e: int, p: int) -> int:
    """a^e mod p, result in [0, p)."""
    if p < 2:
        raise ValueError(f"modulus must be >= 2, got {p}")
    if e < 0:
        raise ValueError(f"exponent must be >= 0, got {e}")
    return pow(a, e, p)


def _primitive_root_test(p: int) -> Callable[[int], bool]:
    """The test "g generates the units mod the prime p": p does not divide
    g, and g^((p-1)/q) != 1 (mod p) for every prime q | p-1.  p-1 is
    factorized once, so it must be below primes.FACTORIZE_LIMIT."""
    exponents = [(p - 1) // q for q in pr.factorize(p - 1)]
    return lambda g: g % p != 0 and all(pow(g, e, p) != 1 for e in exponents)


def find_primitive_root(p: int) -> int:
    """Least g >= 2 generating the multiplicative group mod an odd prime p."""
    if p == 2:
        raise ValueError("p = 2 has a trivial unit group; no root to find")
    if not pr.is_prime(p):
        raise ValueError(f"{p} is not prime")
    is_root = _primitive_root_test(p)
    return next(g for g in range(2, p) if is_root(g))


@dataclass(frozen=True)
class CharacterValue:
    """A character value: zero, or the root of unity e^(2 pi i t / d)."""

    t: int | None
    d: int

    @property
    def is_zero(self) -> bool:
        return self.t is None

    @property
    def is_one(self) -> bool:
        return self.t == 0


@dataclass(frozen=True)
class CharacterSpec:
    """A Dirichlet character mod prime p of order d, via primitive root g.

    chi(g^k) = e^(2 pi i m k / (p-1)); the order condition is
    (p-1)/gcd(m, p-1) = d.
    """

    p: int
    d: int
    g: int
    m: int

    def __post_init__(self) -> None:
        if not pr.is_prime(self.p) or self.p == 2:
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.d < 2 or (self.p - 1) % self.d != 0:
            raise ValueError(f"order d={self.d} does not divide p-1={self.p - 1}")
        if (self.p - 1) // math.gcd(self.m, self.p - 1) != self.d:
            raise ValueError(
                f"exponent m={self.m} gives order "
                f"{(self.p - 1) // math.gcd(self.m, self.p - 1)}, expected {self.d}"
            )
        if not _primitive_root_test(self.p)(self.g):
            raise ValueError(f"g={self.g} is not a primitive root mod {self.p}")

    @classmethod
    def of_order(cls, p: int, d: int, g: int | None = None) -> "CharacterSpec":
        """The canonical character of order d mod p: m = (p-1)/d."""
        if g is None:
            g = find_primitive_root(p)
        if d < 2 or (p - 1) % d != 0:
            raise ValueError(f"order d={d} does not divide p-1={p - 1}")
        return cls(p=p, d=d, g=g, m=(p - 1) // d)

    @cached_property
    def t_table(self) -> np.ndarray:
        """t-values of all residues 0..p-1 (-1 at 0), built once per spec.

        A read-only int64 array: chi(a) = e^(2 pi i t[a] / d), and t = -1
        marks chi(0) = 0.  One pass over the powers of g, exact.
        """
        p = self.p
        step = self.m * self.d // (p - 1)  # t advances by this per g-step
        powers = [1] * (p - 1)  # g^k mod p
        for k in range(1, p - 1):
            powers[k] = powers[k - 1] * self.g % p
        table = np.full(p, -1, dtype=np.int64)
        table[powers] = np.arange(p - 1, dtype=np.int64) * step % self.d
        table.flags.writeable = False
        return table

    def value_table(self) -> list[int | None]:
        """t-values for all residues 0..p-1 (None at 0), read from t_table."""
        return [None if t < 0 else t for t in self.t_table.tolist()]


def char_value(spec: CharacterSpec, a: int) -> CharacterValue:
    """chi(a) as an exact root-of-unity exponent t mod d (zero if p | a).

    Reads the spec's t_table, hence p below the table threshold; callers
    that only care whether chi(a) = 1 should use is_kernel, which works for
    any p.
    """
    if spec.p > DLOG_TABLE_THRESHOLD:
        raise DiscreteLogThresholdError(
            f"p={spec.p} exceeds the table threshold "
            f"{DLOG_TABLE_THRESHOLD}; use is_kernel for membership tests"
        )
    t = int(spec.t_table[a % spec.p])
    return CharacterValue(t=None if t < 0 else t, d=spec.d)


def is_kernel(p: int, d: int, q: int) -> bool:
    """True iff q is a d-th power residue mod p, i.e. chi(q) = 1 for any
    character of order d mod p.  Tested as q^((p-1)/d) == 1 (mod p)."""
    if d < 1 or (p - 1) % d != 0:
        raise ValueError(f"order d={d} does not divide p-1={p - 1}")
    if q % p == 0:
        raise ValueError(f"q={q} is divisible by the modulus {p}")
    return pow(q, (p - 1) // d, p) == 1


def prime_nonresidues(
    p: int, d: int, count: int, search_cap: int = DEFAULT_SEARCH_CAP
) -> list[int]:
    """The `count` smallest prime nonresidues of an order-d character mod p.

    p must be prime; that is not checked here, because a primality test per
    call would cost as much as the search itself (scans take p from the
    sieve, and the CLI checks its input).  A prime q != p is a nonresidue
    iff it is not a d-th power residue; this depends only on (p, d).
    Candidates q are read in increasing order from the shared prime table,
    in chunks of doubling length up to search_cap; if the cap is reached
    first, SearchCapExceededError reports the partial list.
    """
    if d < 2 or (p - 1) % d != 0:
        raise ValueError(f"order d={d} invalid for p={p}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    out: list[int] = []
    if count == 0:
        return out
    done = 0  # table entries already tested
    limit = 64
    while True:
        primes = pr.primes_upto(min(limit, search_cap))
        for q in primes[done:].tolist():
            if q != p and not is_kernel(p, d, q):
                out.append(q)
                if len(out) == count:
                    return out
        if limit >= search_cap:
            raise SearchCapExceededError(p, d, search_cap, out)
        done = len(primes)
        limit *= 2
