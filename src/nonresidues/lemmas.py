"""Brute-force oracles for the inequalities behind the nonresidue bound.

The explicit constant machinery rests on a short chain of elementary
inequalities about the complete character-sum moment

    S(chi, h, r) = sum_{x=0}^{p-1} | sum_{m=0}^{h-1} chi(x+m) |^(2r),

Farey-fraction interval families around the rationals b p / a, a totient
summation bound, and two purely combinatorial estimates.  Each oracle here
verifies one of those statements by exact computation on concrete
desk-scale instances:

  * check_stirling_ratio      (2r)!/(2^r r!) <= sqrt(2) (2r/e)^r
  * check_S_upper             S(chi,h,r) <= sqrt(2)(2r/e)^r p h^r
                                            + (2r-1) sqrt(p) h^(2r)
  * check_interval_disjointness   the intervals I(a,b), J(a,b) with
        0 <= b < a <= X, gcd(a,b)=1 are disjoint subintervals of
        (0, p-H), except J(1,0) = [-H, 0)
  * check_shifted_sum_lower   |sum_{m<h} chi(z+m)| >= h - 2j for z in a
        starred interval, when chi is 1 on (0,H] off the support of u
  * check_totient_inequality  2x sum_{a<=x} phi(a)/a - sum_{a<=x} phi(a)
                                  >= (9/pi^2) x^2 f(x)
  * check_proposition_lower   S(chi,h,r) >= (18/pi^2) h (h-2j)^(2r)
                                  (phi(u1)/u1^2) X^2 f(X/u1)
  * check_convexity_bound     (h/(h-2j))^(2r) <= exp(16rj/(3h)) for j <= h/8

plus sandwich_report, which squeezes the exact S between the lower and
upper bounds on one instance.

Rounding discipline: the exact side of every inequality is integer or
rational arithmetic; the real side is evaluated in interval arithmetic and
compared at its unfavorable endpoint (see rounding.py).  Constant factors
are certified once per constant, in bounded caches that fill on first use:
the lower endpoints of sqrt(2)(2r/e)^r and sqrt(p), and the upper endpoint
of 9/pi^2, each an integer ratio (n, d).  Each instance multiplies them by
positive exact integers, and every exact verdict and slack comes from one
call of rounding.certify(small, big).  The only per-instance interval work
is one raw logarithm or exponential endpoint in a single call of
check_totient_inequality, check_proposition_lower or check_convexity_bound.

The closed-form sweeps (totient, convexity, s-upper) decide their grids
in float64 columns, one LemmaReport.fold per chunk: per x_max, per h and
per p.  Each cell gets an estimate est of its exact slack and a bound err,
proved in the sweep's docstring (through _float_slack), on both |est - s|
and |est - fl(s)|.  A cell with est - err > 0 passes and one with
est + err < 0 fails; only the cells whose interval holds 0, and those that
could set the report's first minimum slack, take the exact path above.  So
every pass is still a certificate, and every report field is the one a
per-instance loop gives.  A cell's exact path is its lemma's
single-instance check: check_totient_inequality (one libmp log),
check_convexity_bound (one libmp exp) and check_S_upper on the column's
moment (no libmp call).  Convexity's j = 0 rows, exact equalities, are
decided in the columns.  Disjointness sorts exact int64 endpoint keys, a
floor and a fraction over lcm(1..floor X), with one lexsort.

Every character sum comes from one window kernel (_window_m2) over the
spec's one table of values (CharacterSpec.values).  One pass grows the
windows to the largest h and returns |w_x|^2 for all p window starts, one
row per h <= h_max: exact integers for quadratic characters, complex128
with a per-row a-priori error bound (Higham, ch. 3-4) for higher orders.
Every (h, r) moment of a character comes from one such table, and one
pass over a stack of characters of one modulus gives each of them its
table, bit for bit.  The moments propagate the row's bound, and the
shifted-window check passes a window only when the enclosure clears the
bound or |w| = h exactly.

These statements are theorems, so every check on a valid instance must
pass; a failure signals a bug in this package, never new mathematics.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import primes as pr
from .characters import CharacterSpec, SearchCapExceededError, prime_nonresidues
from .rounding import (
    DEFAULT_PREC,
    IV,
    certify,
    interval_context,
    lower,
    lower_exp,
    lower_log,
    minus,
    ratio,
    to_float,
    upper,
)

__all__ = [
    "FareyInterval",
    "HypothesisError",
    "NonresidueFactorization",
    "SumStats",
    "build_instance",
    "check_S_upper",
    "check_convexity_bound",
    "check_interval_disjointness",
    "check_proposition_lower",
    "check_shifted_sum_lower",
    "check_stirling_ratio",
    "check_totient_inequality",
    "exact_sum_S",
    "farey_interval",
    "nonresidue_factorization",
    "run_verification",
    "sandwich_report",
]


class HypothesisError(ValueError):
    """The supplied instance does not satisfy a lemma's hypothesis.

    Distinct from a failed inequality: this means the question was not even
    well-posed for the instance, e.g. chi is not identically 1 on the
    window (0, H] off the support of u.
    """


# ---------------------------------------------------------------------------
# Character-sum moments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SumStats:
    """Value of the 2r-th moment S(chi, h, r) with its numerical error.

    For quadratic characters the value is an exact integer and error_bound
    is zero; otherwise value is a float midpoint and error_bound a rigorous
    absolute-error estimate.
    """

    p: int
    h: int
    r: int
    value: int | float
    error_bound: float

    def lower(self) -> tuple[int, int]:
        """value - error_bound exactly, as an unreduced ratio (n, d), d > 0."""
        if not self.error_bound:  # an exact moment
            return self.value.as_integer_ratio()
        return minus(self.value.as_integer_ratio(), self.error_bound.as_integer_ratio())

    def upper(self) -> tuple[int, int]:
        """value + error_bound exactly, as an unreduced ratio (n, d), d > 0."""
        if not self.error_bound:  # an exact moment
            return self.value.as_integer_ratio()
        return minus(self.value.as_integer_ratio(), (-self.error_bound).as_integer_ratio())


def _check_stats(p: int, h: int, r: int, stats: SumStats | None) -> None:
    """Refuse a moment passed in for another instance than (p, h, r)."""
    if stats is not None and (stats.p, stats.h, stats.r) != (p, h, r):
        raise ValueError(
            f"stats is the moment at (p, h, r) = {(stats.p, stats.h, stats.r)}, "
            f"not at {(p, h, r)}"
        )


_U = 2.0**-53  # unit roundoff of float64


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), which bounds k stacked roundings."""
    return k * _U / (1 - k * _U)


def _window_m2(values: np.ndarray, h_max: int) -> tuple[np.ndarray, np.ndarray]:
    """|w_x|^2 for every window length h <= h_max and start x in [0, p),
    w_x = sum_{m<h} chi(x+m): row h-1 of the (h_max, p) table, and its
    error bound errs[h-1].

    The one window-sum kernel behind every character-sum oracle.  values
    holds chi(0), ..., chi(p-1) as in CharacterSpec.values; windows wrap
    mod p = len(values) and are summed in the order m = 0, ..., h-1.  One
    pass grows the windows to h_max: the running sum after term m is the
    window of length m + 1, so row h-1 holds the same additions in the
    same order whatever h_max is, bit for bit.  values may also be a
    (k, p) stack of k characters mod p; then row h-1 is a (k, p) block
    whose i-th row is, bit for bit, the table of values[i] alone, since
    every sum and square is an elementwise operation.  For int64 values
    (d = 2) the sums are exact and the error is 0.  For complex128 values
    (d > 2) errs[h-1] bounds |computed - exact| for every window of length
    h a priori (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., ch. 3-4): each component of w sums h terms of modulus <= 1,
    each within 2u of exact, so it is within e = h (2u + gamma_{h-1});
    then |a^2 - a'^2| <= e (2h + e) per component, and forming the squares
    and their sum adds gamma_2 of a value below h^2 + 2e (2h + e).
    """
    p = values.shape[-1]
    vals = values[..., np.arange(p + h_max - 1) % p]
    w = np.empty((h_max, *values.shape), dtype=vals.dtype)
    w[0] = vals[..., :p]
    for m in range(1, h_max):
        np.add(w[m - 1], vals[..., m : m + p], out=w[m])
    if w.dtype.kind == "i":
        return w * w, np.zeros(h_max)
    h = np.arange(1.0, h_max + 1)
    e = h * (2 * _U + _gamma(h - 1))
    shift = 2 * e * (2 * h + e)
    # A positive expression evaluated in float is within a factor 1/2 of its
    # exact value, so doubling (itself exact) makes it an upper bound.
    return w.real * w.real + w.imag * w.imag, 2 * (shift + _gamma(2) * (h * h + shift))


def _moment_columns(
    stack: Sequence[CharacterSpec], grid: Sequence[tuple[int, int]]
) -> tuple[list[list[int]] | np.ndarray, np.ndarray]:
    """The moment columns of a stack of characters, (values, errors): row i
    holds the moments S(chi, h, r) of the i-th character and their error
    bounds for every (h, r) in grid, in grid order, from one window-kernel
    pass over the stacked values grown to the largest h.
    The stack holds characters of one modulus, all quadratic or all of
    order d > 2; every pair needs 1 <= h < p and r >= 1.  One sanity pass
    (_sanity_moments) checks every moment before they are returned.

    d = 2: lists of exact Python integers from one bincount per row of
    |w_x|^2, with error 0.0.  d > 2: a float64 array of sums of |w_x|^(2r)
    with a propagated bound.  With E the row's kernel error and Y = m2_x + E, above both the
    computed and the exact |w_x|^2, the power misses by at most
    r Y^(r-1) E + gamma_{r-1} Y^r per window, and the sum over the p
    windows adds gamma_{p-1} times a sum below 2 sum Y^r.  The products
    run elementwise on the (h, character, x) table of the rows that grid
    asks for; each row of p windows is C-contiguous, and NumPy reduces
    each contiguous row along the last axis with the same pairwise
    summation as the 1-D .sum() of that row, so every moment and bound is
    the one a single-h, single-r, single-character call computes.
    """
    p = stack[0].p
    if any(s.p != p or (s.d == 2) != (stack[0].d == 2) for s in stack):
        raise ValueError("a stack needs one modulus, and orders all 2 or all above 2")
    h_set = sorted({h for h, _ in grid})
    table, errs = _window_m2(np.stack([s.values for s in stack]), h_set[-1])
    if stack[0].d == 2:
        values = []
        for i in range(len(stack)):
            pairs = {}
            for h in h_set:
                counts = np.bincount(table[h - 1, i])
                squares = np.flatnonzero(counts)
                pairs[h] = list(zip(squares.tolist(), counts[squares].tolist()))
            values.append([sum(c * v**r for v, c in pairs[h]) for h, r in grid])
        errors = np.zeros((len(stack), len(grid)))
    else:
        rows = [h - 1 for h in h_set]
        m2, err = table[rows], errs[rows][:, None]
        y = m2 + err[..., None]
        pw = np.ones(m2.shape)
        y_pw = np.ones(m2.shape)
        y_prev = y_pw.sum(axis=2)
        r_max = max(r for _, r in grid)
        sums, bounds = np.empty((2, r_max, *m2.shape[:2]))  # (r, h, character)
        for r in range(1, r_max + 1):
            pw *= m2
            y_pw *= y
            y_sum = y_pw.sum(axis=2)
            gamma = _gamma(r - 1) + 2 * _gamma(p - 1)
            sums[r - 1] = pw.sum(axis=2)
            bounds[r - 1] = 2 * (r * err * y_prev + gamma * y_sum)  # doubled as in _window_m2
            y_prev = y_sum
        at = {h: k for k, h in enumerate(h_set)}
        cells = [r - 1 for _, r in grid], [at[h] for h, _ in grid]
        values, errors = sums[cells].T, bounds[cells].T
    _sanity_moments(p, grid, values, errors)
    return values, errors


def _sanity_moments(p: int, grid: Sequence[tuple[int, int]], values, errors: np.ndarray) -> None:
    """AssertionError at the first moment of a _moment_columns call, in
    character then grid order, that lies outside [0, p h^(2r)] by more
    than its error bound: |inner sum| <= h termwise, so S <= p h^(2r).
    A cheap cross-check over every moment at once: float columns in one
    vectorized test (each cap rounded to float as float - int rounds it),
    exact integer columns (error 0) compared exactly."""
    caps = [p * h ** (2 * r) for h, r in grid]
    if isinstance(values, list):
        bad = [(i, k) for i, row in enumerate(values)
               for k, (v, cap) in enumerate(zip(row, caps)) if not 0 <= v <= cap]
    else:
        bad = np.argwhere((values < -errors) | (values - np.array(caps, dtype=float) > errors))
    if len(bad):
        i, k = bad[0]
        value, (h, r) = values[i][k], grid[k]
        raise AssertionError(
            f"moment {value} outside [0, p*h^(2r)] at (p={p}, h={h}, r={r})"
        )


def _sum_S_multi(
    specs: CharacterSpec | Sequence[CharacterSpec],
    h_values: Sequence[int],
    r_values: Sequence[int],
) -> dict[tuple[int, int], SumStats] | list[dict[tuple[int, int], SumStats]]:
    """S(chi, h, r) for every h in h_values and r in r_values, keyed (h, r)
    in h-major order, as SumStats read from the moment columns of one
    _moment_columns call (so one window-kernel pass and one sanity pass).
    Given a sequence of characters of one modulus, all quadratic or all of
    order d > 2, it returns one such dict per character, in order; each is
    the dict a call on that character alone returns."""
    single = isinstance(specs, CharacterSpec)
    stack = [specs] if single else list(specs)
    p = stack[0].p if stack else 0
    h_set, r_set = sorted(set(h_values)), sorted(set(r_values))
    if not (h_set and r_set and 1 <= h_set[0] and h_set[-1] < p and r_set[0] >= 1):
        raise ValueError(f"need some 1 <= h < p={p} and r >= 1, got {h_values!r}, {r_values!r}")
    grid = [(h, r) for h in h_set for r in r_set]
    values, errors = _moment_columns(stack, grid)
    rows = values if isinstance(values, list) else values.tolist()
    moments = [{(h, r): SumStats(p=p, h=h, r=r, value=v, error_bound=e)
                for (h, r), v, e in zip(grid, vals, errs)}
               for vals, errs in zip(rows, errors.tolist())]
    return moments[0] if single else moments


def exact_sum_S(spec: CharacterSpec, h: int, r: int) -> SumStats:
    """The complete moment S(chi, h, r): exact for d = 2, else with a
    rigorous error bound.  Reads spec.values, O(h p) memory."""
    return _sum_S_multi(spec, (h,), (r,))[h, r]


@dataclass(frozen=True)
class InequalityCheck:
    """Outcome of one certified inequality comparison."""

    passed: bool
    lhs: float
    rhs: float
    slack: float
    vacuous: bool = False
    detail: str = ""


@functools.lru_cache(maxsize=1 << 10)
def _stirling_rhs_lo(r: int, prec: int = DEFAULT_PREC) -> tuple[int, int]:
    """Lower endpoint of sqrt(2) (2r/e)^r at binary precision prec."""
    ctx = interval_context(prec)
    return lower(ctx.sqrt(ctx.mpf(2)) * (ctx.mpf(2 * r) / ctx.e) ** r)


@functools.lru_cache(maxsize=1 << 14)
def _sqrt_lo(p: int) -> tuple[int, int]:
    """Lower endpoint of sqrt(p) at the default precision."""
    return lower(IV.sqrt(IV.mpf(p)))


def _s_upper_rhs_lo(p: int, h: int, r: int) -> tuple[int, int]:
    """Lower bound on sqrt(2)(2r/e)^r p h^r + (2r-1) sqrt(p) h^(2r), as an
    unreduced ratio (n, d): the cached lower endpoints of sqrt(2)(2r/e)^r
    and sqrt(p) times positive integers, summed exactly.  check_S_upper
    decides certify(stats.upper(), this), S taken at value + error_bound."""
    hr = h**r
    (a, a_d), (b, b_d) = _stirling_rhs_lo(r), _sqrt_lo(p)
    return a * (p * hr) * b_d + b * ((2 * r - 1) * hr * hr) * a_d, a_d * b_d


def check_S_upper(
    spec: CharacterSpec, h: int, r: int, stats: SumStats | None = None
) -> InequalityCheck:
    """Certify S(chi,h,r) <= sqrt(2)(2r/e)^r p h^r + (2r-1) sqrt(p) h^(2r).

    Hypotheses: h < p and r <= 9h.  The right side is bounded below by
    A(r) p h^r + B(p) (2r-1) h^(2r), where A(r) and B(p) are the cached
    lower interval endpoints of sqrt(2)(2r/e)^r and sqrt(p); both terms are
    positive, so the sum is exact integer arithmetic and no interval is
    evaluated per instance.  The moment is compared at value + error_bound.
    """
    p = spec.p
    if not h < p:
        raise ValueError(f"need h < p, got h={h}, p={p}")
    if not r <= 9 * h:
        raise ValueError(f"need r <= 9h, got r={r}, h={h}")
    _check_stats(p, h, r, stats)
    if stats is None:
        stats = exact_sum_S(spec, h, r)
    rhs_lo = _s_upper_rhs_lo(p, h, r)
    passed, slack = certify(stats.upper(), rhs_lo)
    return InequalityCheck(
        passed=passed, lhs=float(stats.value), rhs=to_float(*rhs_lo), slack=slack
    )


# ---------------------------------------------------------------------------
# Stirling-type factorial ratio
# ---------------------------------------------------------------------------


def check_stirling_ratio(r: int) -> InequalityCheck:
    """Certify (2r)! / (2^r r!) <= sqrt(2) (2r/e)^r with an exact LHS.

    The left side is an exact big integer (it is the odd double factorial
    (2r-1)!!); the right side is lower-bounded by interval arithmetic, in
    one cached context per precision.  The relative gap shrinks like
    1/(24r), so precision is raised with r.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    lhs = math.factorial(2 * r) // ((1 << r) * math.factorial(r))
    n, d = _stirling_rhs_lo(r, DEFAULT_PREC + 2 * r.bit_length())
    passed, slack = certify((lhs * d, n), (1, 1))  # lhs / rhs_lo <= 1
    return InequalityCheck(passed=passed, lhs=to_float(lhs, 1), rhs=to_float(n, d),
                           slack=slack, detail="slack is relative")


# ---------------------------------------------------------------------------
# Totient summation inequality
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=1)
def _nine_over_pi2_up() -> tuple[int, int]:
    """Upper endpoint of 9/pi^2 at the default precision."""
    return upper(9 / IV.pi**2)


def _totient_rhs_upper(x: tuple[int, int]) -> tuple[int, int]:
    """Upper bound on (9/pi^2) x^2 f(x), f(x) = 1 - (pi^2/9)(log x + 9)/(3x),
    for x = a/b > 0 given as a ratio (a, b) of positive integers, as an
    unreduced ratio (n, d) of integers, d > 0.

    Through the identity (9/pi^2) x^2 f(x) = 9x^2/pi^2 - x (log x + 9)/3,
    the bound is up(9/pi^2) x^2 - x (lo(log x) + 9)/3: 9/pi^2 is rounded up
    once and cached, and lo(log x) is one raw endpoint at most log x
    (rounding.lower_log).  With up(9/pi^2) = P/Q and lo(log x) + 9 = m/e,
    the bound is (3 P a^2 e - a b Q m) / (3 b^2 Q e).
    """
    a, b = x
    P, Q = _nine_over_pi2_up()
    m, e = minus(ratio(lower_log(Fraction(a, b))), (-9, 1))
    return 3 * P * a * a * e - a * b * Q * m, 3 * b * b * Q * e


def _totient_lhs(x: tuple[int, int], s0: int, s1: tuple[int, int]) -> tuple[int, int]:
    """The exact left side 2x s1 - s0 for ratios x = (a, b) and s1 = (n1, d1)
    with positive denominators, as an unreduced ratio (n, d), d > 0, so no
    gcd of the large s1 is taken."""
    (a, b), (n1, d1) = x, s1
    return 2 * a * n1 - s0 * b * d1, b * d1


def check_totient_inequality(x) -> InequalityCheck:
    """Certify 2x sum_{a<=x} phi(a)/a - sum_{a<=x} phi(a) >= (9/pi^2) x^2 f(x).

    The left side is exact rational; the right side is bounded above with
    the cached endpoint of 9/pi^2 and one raw logarithm endpoint (see
    _totient_rhs_upper).  x may be any rational (or float) > 1.
    """
    x = Fraction(x)
    if not x > 1:
        raise ValueError(f"need x > 1, got {x}")
    n = math.floor(x)
    phi = pr.totient_sieve(n)
    s0 = int(phi[1:].sum())
    s1 = sum(Fraction(int(phi[a]), a) for a in range(1, n + 1))
    xr = x.as_integer_ratio()
    rhs_up, lhs = _totient_rhs_upper(xr), _totient_lhs(xr, s0, s1.as_integer_ratio())
    passed, slack = certify(rhs_up, lhs)
    return InequalityCheck(
        passed=passed, lhs=to_float(*lhs), rhs=to_float(*rhs_up), slack=slack
    )


# ---------------------------------------------------------------------------
# Farey intervals and disjointness
# ---------------------------------------------------------------------------

INTERVAL_KINDS = ("I", "J", "I*", "J*")


@dataclass(frozen=True)
class FareyInterval:
    """One member of the interval family attached to the fraction b/a.

    I(a,b) = (bp/a, (bp+H)/a],   J(a,b) = [(bp-H)/a, bp/a);
    the starred variants shorten the far end by h-1 so a full window of
    length h starting at any integer of the interval stays inside the
    unstarred one.  Endpoints are exact rationals.
    """

    a: int
    b: int
    kind: str
    left: Fraction
    right: Fraction
    left_closed: bool
    right_closed: bool

    def is_empty(self) -> bool:
        if self.left > self.right:
            return True
        if self.left == self.right:
            return not (self.left_closed and self.right_closed)
        return False

    def integers(self) -> range:
        """All integers contained in the interval."""
        if self.is_empty():
            return range(0)
        lo = math.floor(self.left) + 1
        if self.left_closed and self.left.denominator == 1:
            lo = int(self.left)
        if self.right_closed:
            hi = math.floor(self.right)
        else:
            hi = math.ceil(self.right) - 1
        return range(lo, hi + 1)


def farey_interval(kind: str, a: int, b: int, p: int, H: int, h: int = 1) -> FareyInterval:
    if kind not in INTERVAL_KINDS:
        raise ValueError(f"kind must be one of {INTERVAL_KINDS}, got {kind!r}")
    if not (0 <= b < a and math.gcd(a, b) == 1):
        raise ValueError(f"need 0 <= b < a coprime, got a={a}, b={b}")
    center = Fraction(b * p, a)
    if kind in ("I", "I*"):
        right = Fraction(b * p + H, a)
        if kind == "I*":
            right -= h - 1
        return FareyInterval(a, b, kind, center, right, False, True)
    left = Fraction(b * p - H, a)
    right = center if kind == "J" else center - (h - 1)
    return FareyInterval(a, b, kind, left, right, True, False)


def _starred_count(c, H: int, a, h: int):
    """Integers in I*(a,b) and J*(a,b) together, for c = bp; elementwise
    over columns c and a.  I*(a,b) = (c/a, (c+H)/a - h + 1] holds
    max(0, floor((c+H)/a) - floor(c/a) - h + 1) integers and
    J*(a,b) = [(c-H)/a, c/a - h + 1) holds
    max(0, ceil(c/a) - ceil((c-H)/a) - h + 1)."""
    return np.maximum(0, (c + H) // a - c // a - h + 1) + np.maximum(
        0, (H - c) // a - (-c) // a - h + 1)


def _meets(right, right_closed, left, left_closed):
    """Whether an interval ending at right shares a point with one starting
    at left that starts no earlier; elementwise over columns.  An endpoint
    is its sort key, a (floor, fraction) pair compared in that order."""
    (rf, rq), (lf, lq) = right, left
    return (lf < rf) | (lf == rf) & ((lq < rq) | (lq == rq) & right_closed & left_closed)


@dataclass(frozen=True)
class DisjointnessCheck:
    passed: bool
    intervals: int
    overlap_violations: tuple[str, ...]
    containment_violations: tuple[str, ...]
    count_violations: tuple[str, ...]
    exception_interval_ok: bool


def check_interval_disjointness(p: int, H: int, X, h: int | None = None) -> DisjointnessCheck:
    """Verify the Farey interval family is pairwise disjoint in (0, p-H).

    Enumerates I(a,b), J(a,b) over 0 <= b < a <= X with gcd(a,b) = 1 and
    checks, with exact endpoint comparisons: disjointness of neighbours in
    left-endpoint order; containment in (0, p-H) for every interval except
    J(1,0), which must equal [-H, 0); and, when h is given, that the
    starred pair I*(a,b), J*(a,b) contains at least 2(H/a - h) integers (the
    element count the lower-bound proof relies on).  Requires 2XH < p and
    H >= 1; _disjointness does the enumeration.

    Under 2XH < p every check passes, by this proof:
      * Overlap.  Distinct b/a != b'/a' with a, a' <= X differ by at least
        1/(aa'), so the centres bp/a and b'p/a' are at least p/(aa') apart,
        while the intervals around them reach H/a and H/a', which sum to
        H(a + a')/(aa') <= 2XH/(aa') < p/(aa').  I(a,b) and J(a,b) share
        their centre and both are open there.
      * Containment.  For b >= 1, (bp - H)/a > 0 as p > H, and on the right
        ((a-1)p + H)/a < p - H iff H(a + 1) < p, which holds as a + 1 <= 2X.
        For b = 0 the gcd leaves a = 1, and I(1,0) = (0, H] lies below p - H
        as 2H < p.
      * Starred counts.  I*(a,b) is half-open of length l = H/a - h + 1: if
        l > 0 it holds at least floor(l) > H/a - h integers, and if l <= 0
        it holds none while H/a - h < 0.  J*(a,b) is alike, so
        n_star a >= 2(H - a h) always.
    The enumeration still runs, as a check of this proof on each instance.
    """
    X = Fraction(X)
    if not 2 * X * H < p:
        raise ValueError(f"need 2XH < p, got 2*{X}*{H} >= {p}")
    if H < 1:
        raise ValueError(f"need H >= 1, got {H}")
    return _disjointness(p, H, math.floor(X), h)


def _disjointness(p: int, H: int, n: int, h: int | None = None) -> DisjointnessCheck:
    """The checks of check_interval_disjointness for a <= n, without its
    hypothesis 2nH < p (H >= 1 is still assumed), on columns.

    The coprime pairs (a, b) are columns in (a, b) order, and the
    intervals interleave them: I(a,b), then J(a,b).  Every endpoint is x/a
    with x in {bp - H, bp, bp + H}, and its exact sort key is
    (x // a, (x % a) (L // a)) with L = lcm(1..n): the second part is the
    fraction x/a - floor(x/a) over the common denominator L, so it is below
    L.  One stable lexsort by (left key, is I) gives the left-endpoint
    order, with J before I at a tie; I(a,b) is open on the left and closed
    on the right, J(a,b) the reverse.  Containment compares x with
    a (p - H), and the count test is n_star a < 2(H - a h), with n_star
    from _starred_count over the pairs.

    The columns are int64 when L < 2^63 (n <= 42) and n (p + H + |h|) <
    2^62, and hold Python ints otherwise; the code is the same.  Messages are
    formatted only for the flagged rows.
    """
    wide = n > 42 or max(n, 1) * (p + H + abs(h or 0)) >= 1 << 62
    L = math.lcm(*range(1, n + 1))
    a = np.repeat(np.arange(1, n + 1), np.arange(1, n + 1))
    b = np.arange(len(a)) - a * (a - 1) // 2  # 0 <= b < a <= n, in (a, b) order
    keep = np.gcd(a, b) == 1
    a, b = (col[keep].astype(object if wide else np.int64) for col in (a, b))
    c = b * p
    # interval columns, I(a,b) then J(a,b) for each pair
    lo, hi = ((c[:, None] + ends).ravel() for ends in ((0, -H), (H, 0)))
    ia, ib = np.repeat(a, 2), np.repeat(b, 2)
    is_i = np.arange(len(lo)) % 2 == 0
    scale = L // ia
    left, right = ((x // ia, x % ia * scale) for x in (lo, hi))

    o = np.lexsort((is_i, left[1], left[0]))
    u, v = o[:-1], o[1:]
    meets = _meets((right[0][u], right[1][u]), is_i[u], (left[0][v], left[1][v]), ~is_i[v])
    overlap_viol = [
        f"{'IJ'[not is_i[s]]}({ia[s]},{ib[s]}) overlaps {'IJ'[not is_i[t]]}({ia[t]},{ib[t]})"
        for s, t in zip(u[meets].tolist(), v[meets].tolist())
    ]
    top = ia * (p - H)
    inside = ((lo > 0) | (lo == 0) & is_i) & ((hi < top) | (hi == top) & ~is_i)
    escapes = (is_i | (ia > 1)) & ~inside  # J(1,0), the only J with a = 1, is the exception
    contain_viol = [
        f"{'IJ'[not is_i[s]]}({ia[s]},{ib[s]}) escapes (0, p-H)"
        for s in escapes.nonzero()[0].tolist()
    ]
    count_viol = []
    if h is not None:
        n_star = _starred_count(c, H, a, h)
        short = (n_star * a < 2 * (H - a * h)).nonzero()[0].tolist()
        count_viol = [f"starred count {n_star[k]} < 2(H/a - h) at (a={a[k]}, b={b[k]})"
                      for k in short]
    exception_ok = n < 1 or (lo[1], hi[1]) == (-H, 0)

    return DisjointnessCheck(
        passed=not overlap_viol
        and not contain_viol
        and not count_viol
        and exception_ok,
        intervals=len(lo),
        overlap_violations=tuple(overlap_viol),
        containment_violations=tuple(contain_viol),
        count_violations=tuple(count_viol),
        exception_interval_ok=exception_ok,
    )


# ---------------------------------------------------------------------------
# Nonresidue factorizations and the shifted-window lower bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NonresidueFactorization:
    """A squarefree u split by window length: u = u1 * u2.

    u1 collects the k prime factors below h, u2 the j factors in [h, p);
    n = j + k + 1, and chi is expected to equal 1 on (0, H] away from the
    support of u.  Instances built from the first n-1 prime nonresidues
    with H = q_n - 1 satisfy that hypothesis by construction.
    """

    u: int
    u1: int
    u2: int
    k: int
    j: int
    n: int
    H: int
    u1_primes: tuple[int, ...]
    u2_primes: tuple[int, ...]


def nonresidue_factorization(
    q_primes: Sequence[int], h: int, H: int, p: int
) -> NonresidueFactorization:
    """Split the distinct primes q_primes at the window length h."""
    qs = tuple(sorted(q_primes))
    if len(set(qs)) != len(qs):
        raise ValueError(f"prime factors must be distinct, got {qs}")
    for q in qs:
        if not pr.is_prime(q):
            raise ValueError(f"{q} is not prime")
        if not q < p:
            raise ValueError(f"factor {q} is not below p={p}")
    if H < 1:
        raise ValueError(f"need H >= 1, got {H}")
    u1p = tuple(q for q in qs if q < h)
    u2p = tuple(q for q in qs if q >= h)
    u1 = math.prod(u1p)
    u2 = math.prod(u2p)
    return NonresidueFactorization(
        u=u1 * u2,
        u1=u1,
        u2=u2,
        k=len(u1p),
        j=len(u2p),
        n=len(qs) + 1,
        H=H,
        u1_primes=u1p,
        u2_primes=u2p,
    )


def verify_window_hypothesis(spec: CharacterSpec, u: int, H: int) -> None:
    """Enumerate (0, H] and confirm chi(n) = 1 whenever gcd(n, u) = 1."""
    if not H < spec.p:
        raise HypothesisError(f"window H={H} reaches the modulus p={spec.p}")
    for n in (np.flatnonzero(spec.t_table[1 : H + 1]) + 1).tolist():
        if math.gcd(n, u) == 1:
            raise HypothesisError(
                f"chi({n}) != 1 inside (0, {H}] although gcd({n}, {u}) = 1"
            )


@dataclass(frozen=True)
class ShiftedSumCheck:
    passed: bool
    vacuous: bool
    points_checked: int
    threshold: int
    min_abs: float
    detail: str = ""


def check_shifted_sum_lower(
    spec: CharacterSpec,
    nf: NonresidueFactorization,
    h: int,
    interval: FareyInterval,
    window: tuple[np.ndarray, float] | None = None,
) -> ShiftedSumCheck:
    """Certify |sum_{m=0}^{h-1} chi(z+m)| >= h - 2j on a starred interval.

    Requires: the window hypothesis (chi = 1 on (0, H] off u, enumerated
    directly, HypothesisError otherwise), u1 | a, gcd(a, b) = 1, and a
    starred interval kind.  Each window reads its |w|^2 from the window
    kernel's row for h (_window_m2, or that row and its error passed as
    `window`): exact for quadratic characters.  For higher orders a window passes
    only if the kernel's enclosure clears the
    bound, m2 - E >= (h-2j)^2, or if its h values are one and the same
    nonzero root, so that |w| = h exactly; that covers the equality case
    j = 0.  Any other window fails, and `detail` names the first one.
    min_abs reads such a uniform window as exactly h, not as its float m2.
    Instances with h <= 2j are vacuous and reported as such.
    """
    if interval.kind not in ("I*", "J*"):
        raise ValueError(f"interval must be starred, got kind {interval.kind!r}")
    if interval.a % max(nf.u1, 1) != 0:
        raise ValueError(f"u1={nf.u1} must divide a={interval.a}")
    _validate_split(spec, nf, h)
    verify_window_hypothesis(spec, nf.u, nf.H)

    bound = h - 2 * nf.j
    if bound <= 0:
        return ShiftedSumCheck(
            passed=True, vacuous=True, points_checked=0, threshold=bound, min_abs=0.0
        )

    p = spec.p
    zs = np.array(interval.integers(), dtype=np.int64)
    xs = zs % p
    m2, err = window if window is not None else [a[h - 1] for a in _window_m2(spec.values, h)]
    # m2 >= need gives |w|^2 >= m2 - err >= bound^2; need is rounded up
    need = bound * bound if err == 0 else math.nextafter(bound * bound + err, math.inf)
    t_win = spec.t_table[(xs[:, None] + np.arange(h)) % p]
    uniform = (t_win == t_win[:, :1]).all(axis=1) & (t_win[:, 0] >= 0)
    bad = np.flatnonzero(~(uniform | (m2[xs] >= need)))
    detail = ""
    if len(bad):
        first = bad[0]
        detail = (
            f"{len(bad)} of {len(zs)} windows not certified; first at "
            f"z={zs[first]}: |w|^2 = {m2[xs[first]].item()!r} with error <= {err:.3g}, "
            f"need >= {bound * bound}"
        )
    return ShiftedSumCheck(
        passed=not len(bad),
        vacuous=False,
        points_checked=len(zs),
        threshold=bound,
        min_abs=math.sqrt(np.where(uniform, h * h, m2[xs]).min()) if len(zs) else math.inf,
        detail=detail,
    )


def _validate_split(spec: CharacterSpec, nf: NonresidueFactorization, h: int) -> None:
    if any(q >= h for q in nf.u1_primes):
        raise ValueError(f"u1 primes {nf.u1_primes} not all below h={h}")
    if any(not h <= q < spec.p for q in nf.u2_primes):
        raise ValueError(f"u2 primes {nf.u2_primes} not all in [h={h}, p={spec.p})")


# ---------------------------------------------------------------------------
# The moment lower bound and the sandwich
# ---------------------------------------------------------------------------


def _proposition_rhs_upper(nf: NonresidueFactorization, h: int, r: int) -> tuple[int, int]:
    """Upper bound on (18/pi^2) h (h-2j)^(2r) (phi(u1)/u1^2) X^2 f(X/u1),
    as an unreduced ratio (n, d) of integers.

    With x = X/u1 that is the positive integer 2h (h-2j)^(2r) phi(u1) times
    the totient right side (9/pi^2) x^2 f(x), bounded by _totient_rhs_upper.
    """
    phi_u1 = math.prod(q - 1 for q in nf.u1_primes)
    n, d = _totient_rhs_upper((nf.H, 2 * h * nf.u1))
    return 2 * h * (h - 2 * nf.j) ** (2 * r) * phi_u1 * n, d


def check_proposition_lower(
    spec: CharacterSpec,
    nf: NonresidueFactorization,
    h: int,
    r: int,
    stats: SumStats | None = None,
) -> InequalityCheck:
    """Certify S(chi,h,r) >= (18/pi^2) h (h-2j)^(2r) (phi(u1)/u1^2) X^2 f(X/u1).

    X = H/(2h).  Preconditions (ValueError, not a failed check): the window
    hypothesis, 2h < H < sqrt(hp), X > 1 and X/u1 > 1.  Instances with
    h <= 2j are vacuous: the shifted-window bound degenerates there.
    """
    p = spec.p
    _check_stats(p, h, r, stats)
    _validate_split(spec, nf, h)
    if not (2 * h < nf.H and nf.H * nf.H < h * p):
        raise ValueError(f"need 2h < H < sqrt(hp): h={h}, H={nf.H}, p={p}")
    x = Fraction(nf.H, 2 * h)
    if not x > 1:
        raise ValueError(f"need X = H/(2h) > 1, got {x}")
    if not x / nf.u1 > 1:
        raise ValueError(f"need X/u1 > 1, got {x / nf.u1}")
    verify_window_hypothesis(spec, nf.u, nf.H)

    if h - 2 * nf.j <= 0:
        return InequalityCheck(
            passed=True, lhs=math.nan, rhs=math.nan, slack=math.nan, vacuous=True,
            detail="h <= 2j: lower bound is vacuous",
        )

    if stats is None:
        stats = exact_sum_S(spec, h, r)

    rhs_up = _proposition_rhs_upper(nf, h, r)
    passed, slack = certify(rhs_up, stats.lower())
    return InequalityCheck(
        passed=passed, lhs=float(stats.value), rhs=to_float(*rhs_up), slack=slack
    )


@dataclass(frozen=True)
class SandwichReport:
    """lower <= S <= upper on one instance, with certification slacks."""

    lower: float
    value: float
    upper: float
    passed: bool
    vacuous: bool
    lower_slack: float
    upper_slack: float


def sandwich_report(
    spec: CharacterSpec, nf: NonresidueFactorization, h: int, r: int,
    stats: SumStats | None = None,
) -> SandwichReport:
    """Squeeze the exact moment between its lower and upper bounds; stats,
    if given, is exact_sum_S(spec, h, r) (ValueError if its (p, h, r) is
    another)."""
    _check_stats(spec.p, h, r, stats)
    if stats is None:
        stats = exact_sum_S(spec, h, r)
    low = check_proposition_lower(spec, nf, h, r, stats=stats)
    if low.vacuous:
        return SandwichReport(
            lower=math.nan, value=float(stats.value), upper=math.nan,
            passed=True, vacuous=True, lower_slack=math.nan, upper_slack=math.nan,
        )
    up = check_S_upper(spec, h, r, stats=stats)
    return SandwichReport(
        lower=low.rhs,
        value=float(stats.value),
        upper=up.rhs,
        passed=low.passed and up.passed,
        vacuous=False,
        lower_slack=low.slack,
        upper_slack=up.slack,
    )


# ---------------------------------------------------------------------------
# Convexity bound
# ---------------------------------------------------------------------------


def check_convexity_bound(h: int, r: int, j: int) -> InequalityCheck:
    """Certify (h/(h-2j))^(2r) <= exp(16rj/(3h)) for 0 <= j <= h/8.

    The left side stays the ratio of the integers h^(2r) and (h-2j)^(2r);
    the right side is compared at the lower endpoint of its interval
    exponential (exp(0) = 1 is exact, so j = 0 is the equality case and
    still passes).
    """
    if h < 1 or r < 1 or j < 0:
        raise ValueError(f"need h, r >= 1 and j >= 0, got h={h}, r={r}, j={j}")
    if 8 * j > h:
        raise ValueError(f"need j <= h/8, got j={j}, h={h}")
    num, den = h ** (2 * r), (h - 2 * j) ** (2 * r)
    rhs_lo = ratio(lower_exp(Fraction(16 * r * j, 3 * h)))
    passed, slack = certify((num, den), rhs_lo)
    return InequalityCheck(
        passed=passed, lhs=to_float(num, den), rhs=to_float(*rhs_lo), slack=slack
    )


# ---------------------------------------------------------------------------
# Grid sweeps and the verification report
# ---------------------------------------------------------------------------

@dataclass
class LemmaReport:
    """Aggregated outcome of one lemma's sweep, JSON-serializable."""

    lemma: str
    instances_run: int = 0
    passes: int = 0
    failures: int = 0
    vacuous_skips: int = 0
    min_slack: float | None = None
    worst_instance: dict | None = None
    failure_examples: list = field(default_factory=list)
    elapsed_s: float = 0.0

    def record(self, instance: dict, passed: bool, slack: float | None,
               vacuous: bool = False) -> None:
        self.instances_run += 1
        if vacuous:
            self.vacuous_skips += 1
            return
        if passed:
            self.passes += 1
        else:
            self.failures += 1
            if len(self.failure_examples) < 10:
                self.failure_examples.append(instance)
        if slack is not None and not math.isnan(slack):
            if self.min_slack is None or slack < self.min_slack:
                self.min_slack = slack
                self.worst_instance = instance

    def fold(self, est: np.ndarray, err: np.ndarray,
             exact: Callable[[int], tuple[bool, float]],
             instance: Callable[[int], dict]) -> np.ndarray:
        """Record a chunk of cells in instance order, as record(instance(i),
        *exact(i)) would for each cell i in turn, and return its verdict
        column; exact(i) is called only where the float columns cannot
        settle cell i.

        exact(i) returns (s >= 0, fl(s)) for the exact slack s of cell i,
        and est[i] is an estimate with |est - s| <= err and
        |est - fl(s)| <= err, or est + err is not finite.  The columns
        lo and hi are est -+ err rounded to nearest, which is monotone and
        keeps doubles: lo > 0 gives est - err > 0, hi < 0 gives
        est + err < 0, and the double fl(s) lies in [lo, hi].  A cell
        passes without further work if lo > 0 and fails if hi < 0.
        Any other cell, and every cell that could set the report's first
        minimum, is decided by exact(i): those whose lo is at or below both
        the running minimum and the least finite hi of the chunk; a cell
        with err = 0 and est finite needs no call, since est = s = fl(s).
        Skipping the rest changes nothing.  If lo_i > m, the running
        minimum, then fl(s_i) > m and record would not replace m.  If
        lo_i > hi_k, then fl(s_i) > fl(s_k) for the chunk's cell k of least
        finite hi, which is itself decided, so cell i is not the chunk's
        first minimum.  So
        min_slack and worst_instance are the first minimum as record sets
        them, ties included; the counts and the first failure_examples
        follow from the verdicts.
        """
        lo, hi = est - err, est + err
        finite = np.isfinite(hi)
        passed = finite & (lo > 0)
        least = np.min(hi[finite], initial=math.inf)
        if self.min_slack is not None:
            least = min(least, self.min_slack)
        for i in np.flatnonzero(~(passed | finite & (hi < 0)) | (lo <= least)).tolist():
            if err[i] == 0 and finite[i]:
                passed[i], slack = est[i] >= 0, est[i].item()
            else:
                passed[i], slack = exact(i)
            if slack is not None and not math.isnan(slack) and (
                    self.min_slack is None or slack < self.min_slack):
                self.min_slack, self.worst_instance = slack, instance(i)
        failed = np.flatnonzero(~passed).tolist()
        self.instances_run += len(passed)
        self.passes += len(passed) - len(failed)
        self.failures += len(failed)
        room = max(0, 10 - len(self.failure_examples))
        self.failure_examples.extend(instance(i) for i in failed[:room])
        return passed

    @property
    def all_passed(self) -> bool:
        return self.failures == 0

    def to_json_obj(self) -> dict:
        """The fields, with elapsed_s rounded to milliseconds."""
        return {**asdict(self), "elapsed_s": round(self.elapsed_s, 3)}


def sweep_stirling(r_max: int = 500) -> LemmaReport:
    rep = LemmaReport("stirling")
    for r in range(1, r_max + 1):
        c = check_stirling_ratio(r)
        rep.record({"r": r}, c.passed, c.slack)
    return rep


def _float_slack(x: np.ndarray, y: np.ndarray, k) -> tuple[np.ndarray, np.ndarray]:
    """(est, err) for the slacks s = X - Y of a fold: est = fl(x - y), and
    err bounds both |est - s| and |est - fl(s)| (LemmaReport.fold).  X and
    Y are exact reals >= 0, x and y float columns within a factor
    1 +- gamma_k of them, and x + y >= 1; k is a scalar or a column.

    Proof.  |x - X| <= gamma_k X <= gamma_k x / (1 - gamma_k), and so for
    y, and est is within u |x - y| <= u |est| / (1 - u) of x - y.  So
    |est - s| <= E = gamma_k (x + y) / (1 - gamma_k) + u |est| / (1 - u).
    fl(s) is within u |s| <= u (|est| + E) of s, or within 2^-1075 if it is
    subnormal, so |est - fl(s)| <= (1 + u) E + u |est| + 2^-1075.  With
    k u <= 2^-20 that is below (1 + 2^-19)(gamma_k (x + y) + 2u |est|), as
    gamma_k (x + y) >= u.  The float value of that sum of positive terms is
    within a factor 1 - 2^-45 of it, so doubling it (exact) makes it a bound
    on both.  A cell with k u > 2^-20 gets err = inf, which sends it to the
    exact path; so does any overflow, since err is then inf or nan.
    """
    est = x - y
    err = 2 * (_gamma(k) * (x + y) + 2 * _U * np.abs(est))
    return est, np.where(k * _U <= 2.0**-20, err, np.inf)


def sweep_totient(x_max: int = 5000) -> LemmaReport:
    """Sweep x = k/10 over the tenths {1.1, 1.2, ..., x_max}: certify
    2x s1 - s0 >= (9/pi^2) x^2 f(x), s0 and s1 the sums of phi(a) and
    phi(a)/a over a <= x, in one fold of float columns.

    Exact path: check_totient_inequality(k/10).  Its slack s = lhs - rhs_up
    splits into X - Y with X = 2x s1 + x (lo + 9)/3 and Y = s0 + (P/Q) x^2,
    lo = lower_log's endpoint of log x and P/Q = up(9/pi^2), all terms
    positive (lo > 0 for k >= 11).

    Float columns, with n = floor(x) and every step rounded once: x_f =
    fl(k/10) = x (1 + d), |d| <= u; s1 is the cumsum of fl(phi(a)/a), which
    is within gamma_n of s1 (n positive terms, each rounded, n - 1
    additions); 2x s1 is then within gamma_(n+2).  lo_f = log(x_f) from
    libm (math.log, as bounds.bound_shapes takes it), which glibc documents
    within 1 ulp, so |lo_f - log x_f| <= 2u log x_f.  With |log x_f -
    log x| <= u / (1 - u) and |lo - log x| < 2^-90 (log x + 1) (the 96-bit
    lower endpoint of x, and a log rounded at 96 bits), |lo_f - lo| is
    below 2u log x + 1.1u, less than 2u (lo + 9) by about 16u: lo_f + 9 is
    (lo + 9)(1 + t) with |t| < 2u <= gamma_2.  So fl(fl(fl(lo_f + 9) x_f)
    / 3) is within gamma_6 of x (lo + 9)/3, and the sum of the two terms
    within gamma_(max(n+2, 6) + 1), at most gamma_(n+6) as n >= 1, of X.
    The column of Y rounds s0 once, P/Q once, x_f^2 thrice counting x_f,
    their product once more and the sum once: gamma_6.  _float_slack then
    bounds est with k = n + 6; every Y > 1.
    """
    rep = LemmaReport("totient")
    phi = pr.totient_sieve(x_max)
    ks = np.arange(11, x_max * 10 + 1)
    n, x_f = ks // 10, ks / 10
    s1 = np.cumsum(phi[1:] / np.arange(1, x_max + 1))[n - 1]
    s0 = np.cumsum(phi[1:])[n - 1].astype(float)
    lo_f = np.array(list(map(math.log, x_f.tolist())))
    est, err = _float_slack(2 * x_f * s1 + (lo_f + 9) * x_f / 3,
                            s0 + to_float(*_nine_over_pi2_up()) * (x_f * x_f), n + 6)

    def exact(i: int) -> tuple[bool, float]:
        c = check_totient_inequality(Fraction(11 + i, 10))
        return c.passed, c.slack

    rep.fold(est, err, exact, lambda i: {"x": f"{11 + i}/10"})
    return rep


def sweep_convexity(h_max: int = 200, r_max: int = 200) -> LemmaReport:
    """All (h <= h_max, r <= r_max, j <= h/8), one fold per h of its cells
    in (j, r) order: certify (h/(h-2j))^(2r) <= exp(16rj/(3h)).

    Exact path: check_convexity_bound(h, r, j), whose slack is s = X - Y,
    X = lower_exp's endpoint of exp(ra), a = 16j/(3h) <= 2/3, and
    Y = (h/(h-2j))^(2r).

    Float columns: x = the cumprod over r of b = exp(fl(a)) from libm
    (math.exp, as sweep_totient takes math.log), y = the cumprod of
    t = fl(h^2 / (h-2j)^2); fl(a) and t are correctly rounded int
    quotients.  |fl(a) - a| <= 2u/3, and glibc documents exp within 1 ulp,
    at most 2u b as b < 2, so b = exp(a)(1 + theta) with |theta| < 3u:
    b^r is within gamma_(3r) of exp(ra), and x, after r - 1 roundings,
    within gamma_(4r-1).  lower_exp rounds ra down at 96 bits (16rj and 3h
    are exact below 2^96) and its exp down again, so
    exp(ra) - X < (ra + 2) 2^-95 exp(ra) <= u X while ra <= 2^40: x is
    within gamma_(4r) of X, and y within gamma_(2r-1) of Y.  _float_slack
    then bounds est with k = 4r (err is inf from 4r u > 2^-20 on, long
    before ra reaches 2^40); both columns are at least 1.
    """
    rep = LemmaReport("convexity")
    k = 4 * np.arange(1, r_max + 1)
    for h in range(1, h_max + 1):
        js = range(h // 8 + 1)
        b = [math.exp(16 * j / (3 * h)) for j in js]
        t = [h * h / (h - 2 * j) ** 2 for j in js]
        shape = len(js), len(k)
        est, err = _float_slack(np.cumprod(np.broadcast_to(np.array(b)[:, None], shape), axis=1),
                                np.cumprod(np.broadcast_to(np.array(t)[:, None], shape), axis=1),
                                k)
        err[0] = 0  # j = 0: b = exp(0.0) = 1 and t = h^2/h^2 = 1 exactly, so est = s = 0

        def instance(i: int) -> dict:
            return {"h": h, "r": i % r_max + 1, "j": i // r_max}

        def exact(i: int) -> tuple[bool, float]:
            c = check_convexity_bound(**instance(i))
            return c.passed, c.slack

        rep.fold(est.ravel(), err.ravel(), exact, instance)
    return rep


def sweep_s_upper(p_max: int = 300, h_max: int = 8, r_max: int = 6) -> LemmaReport:
    """All odd primes p <= p_max, all orders d | p-1, h <= min(h_max, p-1)
    and r <= min(r_max, 9h), the hypothesis r <= 9h of check_S_upper; one
    fold per p of its cells in (d, h, r) order.

    The characters of one p are one CharacterSpec.family: one
    factorization of p-1 for the root test and the orders, one primitive
    root and one discrete-log table for every order.  Two _moment_columns
    calls per p give every (d, h, r) moment as plain columns, each call
    with one sanity pass: one for the quadratic character, whose moments
    are exact integers, and one window pass over the stacked values of
    all orders d > 2.  Each character's row of that stack is C-contiguous
    and reduced on its own, so its moments and error bounds are bit for
    bit those of a call on it alone.  Exact path: check_S_upper on the
    column's moment, compared at value + error_bound.

    Float columns: x = fl(A_f p h^r + B_f (2r-1) h^(2r)) with A_f, B_f the
    rounded endpoints of sqrt(2)(2r/e)^r and sqrt(p), and h^r, h^(2r)
    rounded from integers; each product of four rounded factors is within
    gamma_4 and the sum of positive terms within gamma_5 of the exact right
    side.  y = fl(fl(v) + e) for the moment v (a float, or an integer that
    may exceed 2^53) and its error bound e >= 0, within gamma_2 of v + e.
    _float_slack then bounds est with k = 5; every x > 1."""
    rep = LemmaReport("s-upper")
    a_f = np.array([to_float(*_stirling_rhs_lo(r))
                    for r in range(1, min(r_max, 9 * h_max) + 1)])
    for p in map(int, pr.primes_upto(p_max)):
        hs = range(1, min(h_max, p - 1) + 1)
        if p == 2 or not hs or r_max < 1:
            continue
        specs = CharacterSpec.family(p)
        grid = [(h, r) for h in hs for r in range(1, min(r_max, 9 * h) + 1)]
        quad, errors = _moment_columns(specs[:1], grid)
        values = np.array(quad, dtype=float)
        if len(specs) > 1:
            rest, rest_errors = _moment_columns(specs[1:], grid)
            values, errors = np.vstack([values, rest]), np.vstack([errors, rest_errors])
        r = np.array([r for _, r in grid])
        hr = np.array([h**r for h, r in grid], dtype=float)
        h2r = np.array([h ** (2 * r) for h, r in grid], dtype=float)
        rhs = a_f[r - 1] * p * hr + to_float(*_sqrt_lo(p)) * (2 * r - 1) * h2r
        est, err = _float_slack(rhs, values + errors, 5)

        def exact(i: int) -> tuple[bool, float]:
            s, g = divmod(i, len(grid))
            v = quad[0][g] if s == 0 else float(values[s, g])
            c = check_S_upper(specs[s], *grid[g], SumStats(p, *grid[g], v, float(errors[s, g])))
            return c.passed, c.slack

        def instance(i: int) -> dict:
            s, g = divmod(i, len(grid))
            return {"p": p, "d": specs[s].d, "h": grid[g][0], "r": grid[g][1]}

        rep.fold(est.ravel(), err.ravel(), exact, instance)
    return rep


def sweep_disjointness(trials: int = 200, p_max: int = 10**5, seed: int = 0) -> LemmaReport:
    """Random (p, H, X) with 2XH < p and X a quarter in [1, 40]; exact
    rational interval checks."""
    rep = LemmaReport("disjointness")
    rng = random.Random(seed)
    table = pr.primes_upto(p_max)
    plist = table[table >= 11].tolist()
    if not plist:
        raise ValueError(f"disjointness draws primes p >= 11, got p_max={p_max}")
    done = 0
    while done < trials:
        p = rng.choice(plist)
        x = Fraction(rng.randint(4, 160), 4)
        h_cap = (p - 1) // (2 * x)
        if h_cap < 1:
            continue
        H = rng.randint(1, int(min(h_cap, p // 3)))
        h = rng.randint(1, max(1, H))
        c = check_interval_disjointness(p, H, x, h=h)
        rep.record(
            {"p": p, "H": H, "X": f"{x.numerator}/{x.denominator}", "h": h},
            c.passed,
            None,
        )
        done += 1
    return rep


@dataclass(frozen=True)
class ConstructedInstance:
    """A moment-bound instance built from actual smallest prime nonresidues.

    u is the product of the first n-1 prime nonresidues of chi and
    H = q_n - 1, so the window hypothesis holds by construction (and is
    re-verified by enumeration inside every check)."""

    spec: CharacterSpec
    nf: NonresidueFactorization
    h: int
    q: tuple[int, ...]


def build_instance(p: int, d: int, n: int, h: int) -> ConstructedInstance:
    spec = CharacterSpec.of_order(p, d)
    q = prime_nonresidues(p, d, n)
    nf = nonresidue_factorization(q[: n - 1], h, q[n - 1] - 1, p)
    return ConstructedInstance(spec=spec, nf=nf, h=h, q=tuple(q))


def _window_split_candidates(u_primes: Sequence[int], H: int) -> list[int]:
    """Window lengths h with 2h < H that exercise every split of u into u1 * u2:
    1, 2, 3, 5, and each prime q of u, in u2 at h = q and in u1 at h = q + 1."""
    cands = {1, 2, 3, 5, *u_primes, *(q + 1 for q in u_primes)}
    return sorted(c for c in cands if 2 * c < H)


def _constructed(p: int, d: int, n_max: int) -> Iterator[tuple[int, int, list[int]]]:
    """(n, h, q) for each constructed instance of the order-d character mod p:
    q lists its first n_max prime nonresidues, u = q_1 ... q_{n-1} and H = q_n - 1
    for every n <= n_max with q_n <= p (so u's factors are below p), and h runs
    over _window_split_candidates(u, H).  Nothing if the search hits its cap."""
    try:
        q = prime_nonresidues(p, d, n_max)
    except SearchCapExceededError:
        return
    for n in range(1, n_max + 1):
        if q[n - 1] > p:
            return
        for h in _window_split_candidates(q[: n - 1], q[n - 1] - 1):
            yield n, h, q


def iter_proposition_instances(
    p_limit: int = 10**5,
    n_max: int = 3,
    r_values: Sequence[int] = (1, 2),
    max_instances: int | None = None,
) -> Iterable[tuple[ConstructedInstance, int]]:
    """Construction sweep for the moment lower bound, quadratic characters:
    the instances of _constructed(p, 2, n_max), odd p <= p_limit, with H^2 < hp,
    X/u1 > 1 for X = H/(2h) (2h < H by construction) and h > 2j, each paired
    with every r of r_values; at most max_instances pairs in all."""
    if max_instances is not None and max_instances < 1:
        return
    count = 0
    for p in map(int, pr.primes_upto(p_limit)[1:]):
        spec = None
        for n, h, q in _constructed(p, 2, n_max):
            H = q[n - 1] - 1
            if H * H >= h * p:  # before the factorization's primality tests
                continue
            nf = nonresidue_factorization(q[: n - 1], h, H, p)
            if H <= 2 * h * nf.u1 or h <= 2 * nf.j:
                continue
            if spec is None:
                spec = CharacterSpec.of_order(p, 2)
            inst = ConstructedInstance(spec=spec, nf=nf, h=h, q=tuple(q))
            for r in r_values:
                yield inst, r
                count += 1
                if count == max_instances:
                    return


def sweep_proposition(min_instances: int = 50, p_limit: int = 10**5) -> LemmaReport:
    """Lower bound plus sandwich on constructed quadratic instances, with
    iter_proposition_instances' n <= 3 and r in (1, 2).  The moments of all
    r come from one window table per instance."""
    rep = LemmaReport("proposition")
    regimes = {"u1_only": 0, "u2_only": 0, "mixed": 0, "trivial": 0}
    r_values, last = (1, 2), None
    instances = iter_proposition_instances(p_limit, r_values=r_values,
                                           max_instances=min_instances)
    for inst, r in instances:
        if inst is not last:  # the instance's pairs come one after another
            moments, last = _sum_S_multi(inst.spec, [inst.h], r_values), inst
        sw = sandwich_report(inst.spec, inst.nf, inst.h, r, stats=moments[inst.h, r])
        key = {"p": inst.spec.p, "n": inst.nf.n, "h": inst.h, "r": r,
               "j": inst.nf.j, "k": inst.nf.k}
        slack = None if sw.vacuous else min(sw.lower_slack, sw.upper_slack)
        rep.record(key, sw.passed, slack, vacuous=sw.vacuous)
        if inst.nf.j == 0 and inst.nf.k == 0:
            regimes["trivial"] += 1
        elif inst.nf.j == 0:
            regimes["u1_only"] += 1
        elif inst.nf.k == 0:
            regimes["u2_only"] += 1
        else:
            regimes["mixed"] += 1
    if rep.worst_instance is not None:
        rep.worst_instance = dict(rep.worst_instance, regimes=regimes)
    return rep


def sweep_shifted_sum(p_limit: int = 1500, max_instances: int = 300) -> LemmaReport:
    """Shifted-window lower bound on the instances of _constructed(p, d, 3) for
    odd p <= p_limit, d = 2 and the least d | p-1 in [3, 7].  Intervals, in
    order: a = u1, 2u1, 3u1 with H > a(h-1) (else I*, J* hold no point), the
    first three b coprime to a, kinds I* then J*, and only those holding
    integers.  A vacuous h (h <= 2j) runs its first interval only, and only
    the first vacuous h of each n runs.  max_instances bounds the non-vacuous
    checks, tested between characters: a character's instances all run."""
    rep = LemmaReport("sum-chi")
    done = 0
    for p in map(int, pr.primes_upto(p_limit)[1:]):
        for d in [2] + [d for d in pr.divisors(p - 1) if 3 <= d <= 7][:1]:
            if done >= max_instances:
                return rep
            spec = CharacterSpec.of_order(p, d)
            table = errs = None  # the window kernel's rows for spec, grown on demand
            vacuous_ns = set()
            for n, h, q in _constructed(p, d, 3):
                H = q[n - 1] - 1
                nf = nonresidue_factorization(q[: n - 1], h, H, p)
                vacuous = h <= 2 * nf.j
                if vacuous:
                    if n in vacuous_ns:
                        continue
                    vacuous_ns.add(n)
                itvs = (itv for a in (nf.u1, 2 * nf.u1, 3 * nf.u1) if H > a * (h - 1)
                        for b in islice((b for b in range(a) if math.gcd(a, b) == 1), 3)
                        for kind in ("I*", "J*")
                        for itv in [farey_interval(kind, a, b, p, H, h)] if itv.integers())
                for itv in islice(itvs, 1 if vacuous else None):
                    if table is None or h > len(table):
                        table, errs = _window_m2(spec.values, h)
                    c = check_shifted_sum_lower(spec, nf, h, itv, (table[h - 1], errs[h - 1]))
                    key = {"p": p, "d": d, "n": n, "h": h,
                           "a": itv.a, "b": itv.b, "kind": itv.kind}
                    slack = None if c.vacuous else c.min_abs - c.threshold
                    done += not c.vacuous
                    rep.record(key, c.passed, slack, vacuous=c.vacuous)
    return rep


@dataclass
class VerifyConfig:
    """Grid parameters for run_verification; defaults are the desk-scale run."""

    stirling_r_max: int = 500
    totient_x_max: int = 5000
    convexity_h_max: int = 200
    convexity_r_max: int = 200
    s_upper_p_max: int = 300
    s_upper_h_max: int = 8
    s_upper_r_max: int = 6
    disjoint_trials: int = 200
    disjoint_p_max: int = 10**5
    proposition_instances: int = 50
    proposition_p_limit: int = 10**5
    shifted_p_limit: int = 1500
    shifted_max_instances: int = 300
    seed: int = 0

    def to_json_obj(self) -> dict:
        return dict(self.__dict__)


# lemma selector -> its sweep on a VerifyConfig, in report order; each sweep
# is looked up as a module global at call time, so a wrapper put on it is seen
_SWEEPS = {
    "stirling": lambda c: sweep_stirling(c.stirling_r_max),
    "totient": lambda c: sweep_totient(c.totient_x_max),
    "convexity": lambda c: sweep_convexity(c.convexity_h_max, c.convexity_r_max),
    "s-upper": lambda c: sweep_s_upper(c.s_upper_p_max, c.s_upper_h_max, c.s_upper_r_max),
    "disjointness": lambda c: sweep_disjointness(c.disjoint_trials, c.disjoint_p_max,
                                                 seed=c.seed),
    "proposition": lambda c: sweep_proposition(c.proposition_instances,
                                               c.proposition_p_limit),
    "sum-chi": lambda c: sweep_shifted_sum(c.shifted_p_limit,
                                           max_instances=c.shifted_max_instances),
}
LEMMA_NAMES = tuple(_SWEEPS)


def run_verification(
    lemmas: Sequence[str] | None = None, config: VerifyConfig | None = None
) -> dict:
    """Run the selected lemma sweeps, timing each into its elapsed_s, and
    assemble a JSON-ready report: all of them if lemmas is None, each named
    one once otherwise.  An empty selection, and a sweep whose grid holds
    no instance, are refused (ValueError): their pass would certify nothing."""
    cfg = config or VerifyConfig()
    names = list(LEMMA_NAMES) if lemmas is None else list(dict.fromkeys(lemmas))
    if not names:
        raise ValueError(f"no lemma selected; valid: {LEMMA_NAMES}")
    unknown = [x for x in names if x not in LEMMA_NAMES]
    if unknown:
        raise ValueError(f"unknown lemma selectors {unknown}; valid: {LEMMA_NAMES}")
    reports: dict[str, LemmaReport] = {}
    for name in names:
        t0 = time.perf_counter()
        reports[name] = _SWEEPS[name](cfg)
        reports[name].elapsed_s = time.perf_counter() - t0
        if reports[name].instances_run == 0:
            raise ValueError(f"the {name} grid holds no instances; widen its bounds")
    return {
        "seed": cfg.seed,
        "config": cfg.to_json_obj(),
        "lemmas": {name: rep.to_json_obj() for name, rep in reports.items()},
        "all_passed": all(rep.all_passed for rep in reports.values()),
    }
