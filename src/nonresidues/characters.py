"""Exact Dirichlet-character arithmetic to a prime modulus.

A character of order d mod a prime p is realized concretely: pick a
primitive root g and set chi(g^k) = e^(2 pi i k / d).  Every character of
order d is one of these, for some choice of g.  A CharacterSpec is the one
table of chi: t_table holds each value exactly as a residue class t mod d,
standing for the root of unity e^(2 pi i t / d), and values holds the
numbers themselves (exact int64 0/+-1 for d = 2, complex128 roots rounded
once from mpmath for d > 2).  Both are built once per spec, on first use,
and cost O(p) memory.  t_table is the discrete logarithm mod d, read from
one table of discrete logs to the base g, built from sqrt(p) baby and giant
steps and one int64 outer product mod p (_discrete_logs).
CharacterSpec.family gives the characters of several orders mod one p
from one primitive root and one such table, shared by every order.

The kernel of an order-d character mod p is exactly the set of d-th power
residues, so membership is a single modular exponentiation
q^((p-1)/d) == 1 (mod p) (Euler's criterion) and never needs a discrete
logarithm or a table.  The nonresidue search decides a quadratic (d = 2)
candidate q, a prime, by reciprocity instead: one exponentiation mod the
small q, not mod p.  That is what makes smallest-prime-nonresidue
computations cheap for large p; the tables are for the character-sum
oracles, which need arbitrary values of chi.  Kernel tests and searches
are batched over (p, d) rows (kernel_mask, nonresidue_table), in int64
numpy for moduli below 2^50 (reducing each product by a float64 quotient
from 2^31 on; long exponents by 2^3-ary windowed exponentiation, short
ones by square-and-multiply) and by Python pow above; a search runs its
quadratic rows and its d > 2 rows as two groups.
prime_nonresidues walks one row in Python, and is_kernel is one Python
pow: for one row, numpy's cost per call outweighs the work.
Candidate nonresidues are read from the package's one shared prime table
(primes.primes_upto), so a search never sieves anything that an earlier
search already sieved.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import cached_property, lru_cache

import mpmath
import numpy as np

from . import primes as pr

__all__ = [
    "CharacterSpec",
    "SearchCapExceededError",
    "find_primitive_root",
    "is_kernel",
    "kernel_mask",
    "nonresidue_table",
    "prime_nonresidues",
    "root_values",
]

DEFAULT_SEARCH_CAP = 10**6

_INT64_MODULUS_LIMIT = 1 << 31  # below it, products of residues fit in int64
_FLOAT_QUOTIENT_LIMIT = 1 << 50  # below it, a float64 quotient reduces them exactly
_INT64_MIN_CELLS = 64  # below it, numpy's cost per call outweighs Python pow
_STEP_CELLS = 1 << 11  # cells a search step aims at, to repay numpy's cost per call
_KERNEL_BLOCK = 1 << 14  # cells of one search step at most, to bound its memory
_WINDOW = 3  # bits of one digit of a windowed chain
_WINDOW_MIN_BITS = 14  # shorter exponents run the binary chain: <= 3 more products


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


@lru_cache(maxsize=1)
def _unit_order_factors(p: int) -> dict[int, int]:
    """The factorization of p-1, the order of the units mod the prime p,
    which must be below primes.FACTORIZE_LIMIT.  The last p's is kept, so
    that finding a root, validating every spec of a family mod p and
    listing the family's orders factorize p-1 once.  Callers must not
    modify it."""
    return pr.factorize(p - 1)


@lru_cache(maxsize=1)
def _primitive_root_test(p: int) -> Callable[[int], bool]:
    """The test "g generates the units mod the prime p": p does not divide
    g, and g^((p-1)/q) != 1 (mod p) for every prime q | p-1.  The test of
    the last p is kept."""
    exponents = [(p - 1) // q for q in _unit_order_factors(p)]
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
class CharacterSpec:
    """A Dirichlet character mod prime p of order d, via primitive root g:
    chi(g^k) = e^(2 pi i m k / (p-1)) with m = (p-1)/d, i.e. e^(2 pi i k / d).
    """

    p: int
    d: int
    g: int

    def __post_init__(self) -> None:
        if not pr.is_prime(self.p) or self.p == 2:
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.d < 2 or (self.p - 1) % self.d != 0:
            raise ValueError(f"order d={self.d} does not divide p-1={self.p - 1}")
        if not _primitive_root_test(self.p)(self.g):
            raise ValueError(f"g={self.g} is not a primitive root mod {self.p}")

    @classmethod
    def of_order(cls, p: int, d: int, g: int | None = None) -> "CharacterSpec":
        """The character of order d mod p via g, by default the least
        primitive root."""
        return cls(p=p, d=d, g=find_primitive_root(p) if g is None else g)

    @classmethod
    def family(cls, p: int, orders: Iterable[int] | None = None) -> list["CharacterSpec"]:
        """The character of each order d in orders mod p, via the least
        primitive root: one find_primitive_root call and one table of
        discrete logs for all of them, from which each spec's t_table is
        set at once.  The table itself is dropped on return.  By default
        the orders are every d >= 2 dividing p-1, increasing, taken from
        the root test's factorization of p-1."""
        g = find_primitive_root(p)
        if orders is None:
            orders = pr.divisors(p - 1, _unit_order_factors(p))[1:]
        specs = [cls(p=p, d=d, g=g) for d in orders]
        if specs:
            logs = _discrete_logs(p, g)
            for spec in specs:  # t_table is a cached_property: fill its slot
                object.__setattr__(spec, "t_table", _t_values(logs, spec.d))
        return specs

    @property
    def m(self) -> int:
        """The exponent (p-1)/d of chi(g^k) = e^(2 pi i m k / (p-1))."""
        return (self.p - 1) // self.d

    @cached_property
    def t_table(self) -> np.ndarray:
        """t-values of all residues 0..p-1 (-1 at 0), built once per spec.

        A read-only int64 array: chi(a) = e^(2 pi i t[a] / d), and t = -1
        marks chi(0) = 0.  Exact: t = k mod d at g^k, from _discrete_logs.
        """
        return _t_values(_discrete_logs(self.p, self.g), self.d)

    @cached_property
    def values(self) -> np.ndarray:
        """chi(a) for all residues 0..p-1, built once per spec:
        root_values(t_table, d), read-only."""
        return root_values(self.t_table, self.d)


def _discrete_logs(p: int, g: int) -> np.ndarray:
    """logs[a] = k with g^k = a (mod p), 0 <= k < p-1, for a = 1..p-1 and a
    primitive root g of a prime p < 2^31 (logs[0] is 0), as int64.

    Baby and giant steps (Shanks, 1971): with m = isqrt(p) + 1, g^(m i + j)
    = (g^m)^i g^j is cell (i, j) of the outer product mod p of the m giant
    steps g^(m i) and the m baby steps g^j.  Row-major, cell (i, j) is
    number m i + j, and m^2 > p - 1, so the first p - 1 cells are g^k for
    k = 0..p-2.  A product of two residues is below p^2 < 2^62, exact in
    int64."""
    if p >= _INT64_MODULUS_LIMIT:
        raise ValueError(f"discrete-log tables need p < 2^31, got {p}")
    m = math.isqrt(p) + 1  # p is prime, so not a square
    baby = [1]
    for _ in range(m - 1):
        baby.append(baby[-1] * g % p)
    giant, step = [1], baby[-1] * g % p  # step = g^m
    for _ in range(m - 1):
        giant.append(giant[-1] * step % p)
    powers = np.outer(giant, baby)
    powers %= p
    logs = np.zeros(p, dtype=np.int64)
    logs[powers.ravel()[: p - 1]] = np.arange(p - 1)
    return logs


def _t_values(logs: np.ndarray, d: int) -> np.ndarray:
    """The read-only t_table of the order-d character to the base of a
    _discrete_logs table: log mod d, and -1 at 0."""
    table = logs % d
    table[0] = -1
    table.flags.writeable = False
    return table


def root_values(t_table: np.ndarray, d: int) -> np.ndarray:
    """The values a t-table of an order-d character stands for, read-only:
    0 where t < 0; for d = 2, exactly 1 - 2t as int64; for d > 2,
    e^(2 pi i t/d) from mpmath at 113 bits, rounded once to complex128
    (each component within 2u of exact)."""
    if d == 2:
        values = np.where(t_table < 0, 0, 1 - 2 * t_table)
    else:
        values = _roots_of_unity(d)[t_table]  # t = -1 reads the final 0
    values.flags.writeable = False
    return values


@lru_cache(maxsize=None)
def _roots_of_unity(d: int) -> np.ndarray:
    """e^(2 pi i t/d) for t = 0..d-1, then 0, read-only; computed once per d
    on first use, since the lemma sweeps ask for the same few orders at
    many primes."""
    with mpmath.workprec(113):
        roots = [complex(mpmath.expjpi(mpmath.mpf(2 * t) / d)) for t in range(d)]
    table = np.array(roots + [0j])
    table.flags.writeable = False
    return table


def _int_array(x) -> np.ndarray:
    """x as an int64 array (at least 1-d), or of Python ints if int64
    cannot hold it."""
    x = np.atleast_1d(x)
    return x.astype(np.int64 if x.dtype.kind == "i" else object, copy=False)


def _int64_moduli(p: np.ndarray) -> bool:
    """Every p < 2^50, so that _kernel can reduce products of residues in int64."""
    return p.dtype != object and p.max(initial=0) < _FLOAT_QUOTIENT_LIMIT


def _reciprocal(p: np.ndarray) -> np.ndarray | None:
    """The float64 factor by which _mulmod reduces products mod p: None if
    every p < 2^31, else fl(1/fl(p)) (see _kernel)."""
    return None if p.max() < _INT64_MODULUS_LIMIT else 1.0 / p.astype(np.float64)


def _mulmod(a: np.ndarray, b: np.ndarray, p: np.ndarray,
            pinv: np.ndarray | None) -> np.ndarray:
    """A residue r = a*b (mod p) with -p < r < p, for int64 residues
    -p < a, b < p of moduli p < 2^50: by % below 2^31 (pinv None; then r is
    in [0, p)), else by the quotient rint(fl(fl(ab) pinv)) for
    pinv = _reciprocal(p), a multiply instead of a divide (see _kernel)."""
    if pinv is None:
        return a * b % p
    x = np.multiply(a, b, dtype=np.float64)
    x *= pinv
    r = a * b
    r -= np.rint(x, out=x).astype(np.int64) * p  # wraps mod 2^64, exact: |r| < p
    return r


def _binary_chain(p: np.ndarray, e: np.ndarray, base: np.ndarray,
                  bits: int) -> np.ndarray:
    """base^e (mod p) as a signed residue, by right-to-left square-and-multiply
    over the low `bits` bits of e, broadcast over p, e and base.  A bit that
    no exponent has costs no multiply, so a uniform e (kernel_mask at one
    (p, d)) pays one per set bit."""
    pinv = _reciprocal(p)
    bit = (e[..., None] >> np.arange(bits)) & 1
    r = np.ones(np.broadcast(p, e, base).shape, dtype=np.int64)
    for k in range(bits):
        if k:
            base = _mulmod(base, base, p, pinv)
        if bit[..., k].any():
            r = np.where(bit[..., k], _mulmod(r, base, p, pinv), r)
    return r


def _windowed_chain(p: np.ndarray, e: np.ndarray, base: np.ndarray,
                    bits: int) -> np.ndarray:
    """base^e (mod p) as a signed residue, by left-to-right 2^w-ary
    exponentiation (w = _WINDOW) over the low `bits` bits of e, for 1-d
    arrays of one length n: a table of base^0 .. base^(2^w - 1) per cell,
    then per w-bit digit of e, top first, w squarings and one multiply by
    the entry that the digit picks.  The table holds 2^w n cells."""
    pinv = _reciprocal(p)
    n, size = len(base), 1 << _WINDOW
    table = np.empty((size, n), dtype=np.int64)
    table[0], table[1] = 1, base
    for j in range(2, size):
        table[j] = _mulmod(table[j - 1], base, p, pinv)
    shifts = np.arange(_WINDOW * ((bits - 1) // _WINDOW), -1, -_WINDOW)
    picks = (e >> shifts[:, None]) & (size - 1)  # one row per digit, top first
    picks *= n
    picks += np.arange(n)
    table = table.reshape(-1)
    r = table.take(picks[0])
    for pick in picks[1:]:
        for _ in range(_WINDOW):
            r = _mulmod(r, r, p, pinv)
        r = _mulmod(r, table.take(pick), p, pinv)
    return r


def _kernel(p: np.ndarray, e: np.ndarray, q: np.ndarray) -> np.ndarray:
    """q^e == 1 (mod p), broadcast over int64 or Python-int arrays.

    Python pow on each cell if there are fewer than _INT64_MIN_CELLS cells
    or some p >= 2^50 or p holds Python ints; an int64 chain otherwise.
    A call whose largest exponent has fewer than _WINDOW_MIN_BITS bits runs
    _binary_chain; any other runs _windowed_chain over blocks of at most
    _KERNEL_BLOCK cells, so that its table holds at most 2^w _KERNEL_BLOCK
    cells.

    Below 2^31 a product of two residues in [0, p) is below 2^62 and is
    reduced by %, into [0, p).  If some modulus of a chain is 2^31 or
    more, every product is reduced by a float64 quotient instead, into a
    signed residue.  For -p < a, b < p < 2^50, fl(a), fl(b) and fl(p) are
    exact (all below 2^53 in magnitude), and x = fl(fl(ab) fl(1/p)) =
    (ab/p)(1+d1)(1+d2)(1+d3) with |di| <= u = 2^-53, so as |ab/p| < p,
    |x - ab/p| < pc with c = 3u + 3u^2 + u^3, and pc < 3/8 + 2^-50.  So
    k = rint(x) has |k - ab/p| < 1/2 + pc < 7/8 + 2^-50 < 1, and
    r = ab - kp, congruent to ab mod p, has |r| < p.  Both products wrap
    mod 2^64 in int64, but their difference is r exactly, because
    |r| < 2^63.  The chains stay exact mod p: every factor is 1, the base
    q mod p in [0, p), or an earlier product's r (the windowed table's
    entries are these three too), so every factor meets -p < a, b < p.
    The verdict r == 1 is exact too.  The final r is one of those three,
    and r = 1 (mod p) with |r| < p leaves r = 1 or r = 1 - p, which the
    base cannot be.  A product's r = 1 - p would need k - ab/p = 1 - 1/p,
    but 1 - 1/p > 1/2 + pc for every modulus 3 <= p <= 2^50:
    1/2 - 1/p - pc is concave in p, and positive at p = 3 (1/6 - 3c) and
    at p = 2^50 (1/8 - 2^-50 - 3 * 2^-56 - 2^-109).  That covers the prime
    moduli p of a call and the moduli of nonresidue_table's quadratic
    cells: the candidates q >= 3, and 8.
    """
    cells = np.broadcast(p, e, q)
    if cells.size < _INT64_MIN_CELLS or not _int64_moduli(p):
        return np.frompyfunc(pow, 3, 1)(q, e, p) == 1
    base = (q % p).astype(np.int64, copy=False)  # q may hold Python ints
    bits = int(e.max(initial=0)).bit_length()
    if bits < _WINDOW_MIN_BITS:
        return _binary_chain(p, e, base, bits) == 1
    p, e, base = (np.broadcast_to(x, cells.shape).ravel() for x in (p, e, base))
    out = np.empty(cells.size, dtype=bool)
    for s in range(0, cells.size, _KERNEL_BLOCK):
        block = slice(s, s + _KERNEL_BLOCK)
        out[block] = _windowed_chain(p[block], e[block], base[block], bits) == 1
    return out.reshape(cells.shape)


def kernel_mask(p, d, q) -> np.ndarray:
    """Whether q^((p-1)/d) == 1 (mod p), i.e. q is a d-th power residue,
    broadcast over integer arrays p, d and q (d | p-1, p not dividing q).
    An int64 chain when every p < 2^50, with a float64 quotient reducing
    each product from 2^31 on (see _kernel), and there are at least
    _INT64_MIN_CELLS cells to repay numpy's fixed cost per call; Python pow
    on each cell otherwise."""
    p = _int_array(p)
    return _kernel(p, (p - 1) // _int_array(d), _int_array(q))


def is_kernel(p: int, d: int, q: int) -> bool:
    """True iff q is a d-th power residue mod p, i.e. chi(q) = 1 for any
    character of order d mod p: Euler's criterion, one Python pow."""
    p, d, q = map(operator.index, (p, d, q))  # numpy ints too, no floats
    if d < 1 or (p - 1) % d != 0:
        raise ValueError(f"order d={d} does not divide p-1={p - 1}")
    if q % p == 0:
        raise ValueError(f"q={q} is divisible by the modulus {p}")
    return pow(q, (p - 1) // d, p) == 1


def _reciprocity_cells(p: np.ndarray, q: np.ndarray) -> tuple:
    """(modulus, exponent, base) of the d = 2 kernel cells of rows p (a
    column) and prime candidates q, by reciprocity (see nonresidue_table)."""
    p_star = p * (1 - (p & 2))  # p & 2 is 2 iff p = 3 (mod 4)
    return np.where(q == 2, 8, q), q >> 1, p_star


def nonresidue_table(
    p, d, count: int, search_cap: int = DEFAULT_SEARCH_CAP
) -> tuple[np.ndarray, np.ndarray]:
    """(q, found): row i of q holds the first found[i] of the `count`
    smallest prime nonresidues of (p[i], d[i]), then zeros; found[i] <
    count means the search reached search_cap.  p must be prime and d | p-1;
    a prime q != p is a nonresidue iff it is not a d-th power residue.

    The d = 2 rows and the d > 2 rows are searched as two groups, first
    the d = 2 group, and scattered back: their cells differ widely in
    exponent length (a few bits against up to 50), and so each step of a
    group is one _kernel call.  Candidates come from the shared prime table
    in increasing order, in chunks of doubling length up to search_cap
    exactly, and a row retires once it is full.  Each step tests the
    group's active rows against a block of candidates if the moduli of
    its cells are below 2^50, where _kernel runs in int64 (a d = 2 cell's
    modulus is a candidate, see below): as long as all earlier blocks, as
    the most nonresidues that an active row still needs (it cannot finish
    on fewer tests), and aiming at _STEP_CELLS cells, whichever is
    longest, but of at most _KERNEL_BLOCK cells.  Otherwise a step tests
    one candidate per row, so that no Python exponentiation of a modulus
    of 2^50 or more is spent past a row's last nonresidue.

    A d > 2 cell is Euler's criterion mod p: q^((p-1)/d) == 1 (mod p).  A
    d = 2 cell is decided mod q instead, by quadratic reciprocity.  Let
    p* = (-1)^((p-1)/2) p, so p* = 1 (mod 4).  For an odd prime q != p,
    (q|p) = (p|q) (-1)^((p-1)/2 (q-1)/2), and (-1|q) = (-1)^((q-1)/2), so
    (q|p) = (p*|q), which is Euler's criterion mod q:
    (p* mod q)^((q-1)/2) == 1 (mod q).  For q = 2, (2|p) = 1 iff
    p = +-1 (mod 8), i.e. iff p* = 1 (mod 8), and since (2-1)/2 rounds to
    1 = 2 >> 1, the cell is (p* mod 8)^1 == 1 (mod 8).  So a d = 2 cell is
    the kernel test of modulus q (8 for q = 2), exponent q >> 1 and base
    p* (which _kernel reduces mod q), its modulus is a candidate below 2^31
    at any p, and a search of d = 2 rows steps in blocks at any p.
    kernel_mask and is_kernel stay Euler's criterion mod p, because their q
    need not be prime.
    """
    p, d = _int_array(p), _int_array(d)
    q = np.zeros((len(p), count), dtype=np.int64)
    found = np.zeros(len(p), dtype=np.int64)
    quad = d == 2
    if quad.any() and not quad.all():  # two groups, each searched on its own
        for rows in (quad, ~quad):  # with its own dtype: int64 unless its p need more
            q[rows], found[rows] = nonresidue_table(p[rows].tolist(), d[rows], count,
                                                    search_cap)
        return q, found
    quadratic = quad.all()  # also for no rows, which take no step
    blocks = quadratic or _int64_moduli(p)
    e = (p - 1) // d
    active = np.arange(len(p) if count else 0)
    done, limit = 0, 64  # table entries tested, and the chunk's end
    while active.size:
        primes = pr.primes_upto(min(limit, search_cap))
        while done < len(primes) and active.size:
            # one candidate per row, or for int64 moduli a block as long as all
            # earlier ones and as the most that a row still needs, over
            # >= _STEP_CELLS and <= _KERNEL_BLOCK cells
            n = active.size
            step = max(done, _STEP_CELLS // n, count - found[active].min())
            step = max(1, min(step, _KERNEL_BLOCK // n))
            block = primes[done : done + (step if blocks else 1)]
            done += len(block)
            pa = p[active, None]
            cells = (_reciprocity_cells(pa, block) if quadratic
                     else (pa, e[active, None], block))
            hit = (block != pa) & ~_kernel(*cells)
            rank = found[active, None] + hit.cumsum(axis=1)  # 1-based
            r, c = np.nonzero(hit & (rank <= count))
            q[active[r], rank[r, c] - 1] = block[c]
            found[active] = np.minimum(rank[:, -1], count)
            active = active[found[active] < count]
        if limit >= search_cap:
            break
        limit *= 2
    return q, found


def prime_nonresidues(
    p: int, d: int, count: int, search_cap: int = DEFAULT_SEARCH_CAP
) -> list[int]:
    """The `count` smallest prime nonresidues of an order-d character mod p:
    the row nonresidue_table finds, walked in Python with one pow per
    candidate, as is_kernel tests it, since numpy's cost per call outweighs
    a one-row step.

    p must be prime; that is not checked here, because a primality test per
    call would cost as much as the search itself (scans take p from the
    sieve, and the CLI checks its input).  Candidates come from the shared
    prime table in chunks of doubling length up to search_cap, so a search
    sieves no further than its last candidate needs.  If search_cap is
    reached first, SearchCapExceededError reports the partial list.
    """
    if d < 2 or (p - 1) % d != 0:
        raise ValueError(f"order d={d} invalid for p={p}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    e, out = (p - 1) // d, []
    done, limit = 0, 64  # table entries tested, and the chunk's end
    while len(out) < count:
        primes = pr.primes_upto(min(limit, search_cap))
        for q in primes[done:].tolist():
            if q != p and pow(q, e, p) != 1:
                out.append(q)
                if len(out) == count:
                    return out
        done = len(primes)
        if limit >= search_cap:
            raise SearchCapExceededError(p, d, search_cap, out)
        limit *= 2
    return out
