"""Shortest round-trip decimal digits of a column of doubles, in numpy,
and the %-cells that write them as repr does.

repr(x) writes the shortest decimal D * 10^E that rounds back to x, and of
two such decimals the one nearer to x.  shortest_digits finds that (D, E)
for a whole column at once, the output that Ryu (U. Adams, PLDI 2018) also
gives, and certifies each value or hands it back to repr; repr_cells turns
the digits into %-format cells and an id of their notation.

For x = M * 2^e (M of 53 bits, -73 <= e <= 0) take the least k >= 0 with
10^k * 2^e >= 1, so k <= 22 and 10^k is an exact double.  Then v = x * 10^k
is exactly hi + lo, Dekker's two-product (T. J. Dekker, "A floating-point
technique for extending the available precision", Numer. Math. 18, 1971)
with Veltkamp's split, and hi is an integer, as hi >= 2^52.  Moving lo's
floor into hi gives v = V + lo with V an int64 below 2^58 and 0 <= lo < 1.
The doubles that round to x fill v - wl .. v + wh, scaled by 10^k, with
the exact half-widths wh = 10^k 2^(e-1) = 5^k 2^(k+e-1) and wl = wh, or
wh/2 below a power of two.  The integers inside are L..U, L = V +
ceil(lo - wl) and U = V + floor(lo + wh), with no rounding anywhere: the
product and so lo are multiples of 2^(k+e), both sums are exact (multiples
of 2^(k+e-2) small enough for 53 bits at every e; see the tests), and the
ends, odd multiples of 2^(k+e-1) or 2^(k+e-2) with k + e <= 0, are never
integers, so whether they belong to the interval does not matter.  The
shortest decimal in it is t * 10^j for the largest j with a multiple of
10^j in L..U, found by bisection over j.  Those multiples are consecutive
and none ends in 0, so all have the same digit count, and t is the one
nearest v: base = V // 10^j or base + 1, by the sign of
2 (V - base 10^j) - 10^j + 2 lo, an int64 plus an exact double (exact in
sign), then kept inside L..U, which only a power of two's narrow lower gap
can need.  A tie is not certified, since repr breaks it to the even
digit.  Subnormals, e outside [-73, 0] (x below about 4.8e-7 or from 2^53
on), ties (half of [2^50, 2^51)), and an interval that holds no integer
are left to repr.
"""

from __future__ import annotations

import numpy as np

_E_MIN = -73  # the least e with 10^k * 2^e >= 1 at some k <= 22
_K = np.array([next(k for k in range(23) if 10**k >= 2**-e) for e in range(_E_MIN, 1)])
_P10 = 10.0 ** np.arange(23)  # exact doubles
_P10_INT = 10 ** np.arange(19, dtype=np.int64)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split: a = hi + lo, each of at most 26 significant bits."""
    c = a * 134217729.0  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def shortest_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, E, sure) for positive finite doubles x: where sure, D * 10^E is
    repr(x)'s decimal, D an int64 not divisible by 10; elsewhere D and E
    are meaningless and repr must write x."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    bits = x.view(np.int64)
    e = (bits >> 52) - 1075
    sure = (e >= _E_MIN) & (e <= 0)
    e = np.where(sure, e, 0)  # a stand-in, so that the others compute quietly
    x = np.where(sure, x, 1.0)
    k = _K[e - _E_MIN]
    p = _P10[k]
    hi = x * p
    (xh, xl), (ph, pl) = _split(x), _split(p)
    lo = ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl
    whole = np.floor(lo)  # x * 10^k = v + lo, v an int64 and 0 <= lo < 1
    v, lo = hi.astype(np.int64) + whole.astype(np.int64), lo - whole
    wh = np.ldexp(p, e - 1)
    wl = np.where(bits & ((1 << 52) - 1) == 0, wh / 2, wh)
    low = v + np.ceil(lo - wl).astype(np.int64)
    high = v + np.floor(lo + wh).astype(np.int64)
    sure &= low <= high
    # bisection for the largest j with a multiple of 10^j in low..high: j = 0
    # has one (where sure), j = 18 none, as high < 2^58 < 10^18
    j0, j1 = np.zeros_like(v), np.full_like(v, 18)
    for _ in range(5):
        mid = (j0 + j1) // 2
        step = _P10_INT[mid]
        has = high // step * step >= low
        j0, j1 = np.where(has, mid, j0), np.where(has, j1, mid)
    step = _P10_INT[j0]
    base = v // step
    # the sign of 2 (v - base * step) - step + 2 lo is exact: the int64
    # converts exactly below 2^53 in size, and beyond 2 it decides the sign
    # alone, as 0 <= 2 lo < 2
    side = (2 * (v - base * step) - step).astype(np.float64) + 2 * lo
    sure &= side != 0
    t = np.clip(base + (side > 0), -(-low // step), high // step)
    return t, j0 - k, sure


def notation(i: int) -> str:
    """The %-format of notation id i (see repr_cells), as repr writes a
    value of n shortest digits D whose decimal point sits point digits
    after D's first (x = 0.D * 10^point): positional for -4 < point <= 16,
    else scientific, with the exponent as text.  %d.%0md takes D // 10^m
    and D % 10^m, the others D alone; id 0 is %r, repr itself."""
    if not i:
        return "%r"
    n, point = i % 18, i // 18 - 8
    if not -4 < point <= 16:
        return ("%d" if n == 1 else f"%d.%0{n - 1}d") + f"e{point - 1:+03d}"
    if point <= 0:
        return "0." + "0" * -point + "%d"
    if point >= n:
        return "%d" + "0" * (point - n) + ".0"
    return f"%d.%0{n - point}d"


NOTATIONS = 18 * 25  # ids n + 18 (point + 8) for n <= 17, -6 <= point <= 16


def repr_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(id, head, tail) for each double of x: where shortest_digits
    certifies its n digits, id is n + 18 (point + 8) (see notation), and
    head and tail are the notation's %d cells (tail -1 if it has one);
    elsewhere id is 0, for %r, head is unused and tail is -1."""
    digits, exp, sure = shortest_digits(x)
    n = np.searchsorted(_P10_INT, digits, side="right")
    point = n + exp
    # the digits after the point of a %d.%0md notation
    m = np.where((point <= -4) | (point > 16), n - 1,
                 np.where((0 < point) & (point < n), n - point, 0))
    head, tail = np.divmod(digits, _P10_INT[np.where(sure, m, 0)])
    return (np.where(sure, n + 18 * (point + 8), 0), head,
            np.where(sure & (m > 0), tail, -1))
