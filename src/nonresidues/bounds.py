"""Closed-form constants for explicit prime-nonresidue bounds.

For a nonprincipal Dirichlet character mod a prime p, the n-th smallest
prime nonresidue q_n satisfies

    q_n <= g(n, p) * p^(1/4) * (log p)^((n+1)/2)

with the explicit constant

    g(n, p) = (pi/3) * sqrt(2e) * (n/(n+1))
              * ( (1 + sqrt(2)/(2B log p - 3)) / f(X*) )^(1/2),

    B = n / (2(n+1)),
    f(x) = 1 - (pi^2/9) * (log x + 9) / (3x),
    X* = (pi/3) * (2e)^(-1/2) * ((n+1)/n)^(n-1) * p^(1/4) / (log p)^((n-1)/2)
         * (1 - ((n+1)/n) * e^(-1/n) * (log p)^(-1)),

valid when X* > 3.8, log p > exp(8/3) and log p > 8(n-1).  Fixing a
reference pair (n0, p0) with X*(p0, n0) > 3.8 and
p0 > max(2*10^6, exp(8(n0-1))) yields a single constant C = g(n0, p0) that
works for all p >= p0 and n <= n0.

This module evaluates those closed forms once, in interval arithmetic
with p exact (enclose_g), so every constant it reports is a certificate:
reference_g decides a reference pair's conditions and reports g rounded up
to a double, make_table builds the reference constant table from it, and
certify_freeze certifies a frozen C for every p >= p0 and n <= n0.
compute_bound rounds the bound C p^(1/4) (log p)^((n+1)/2) up from its
enclosure too; bound_shape and bound_shapes are its double-precision
shape, which scans filter with before certifying border cells.  p is a
real number, so 10^35 may be a float or an int and need not be prime.  All
logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from itertools import repeat
from operator import mul

from mpmath.libmp import from_int, mpf_cmp, mpf_mul

from .rounding import IV, certify, iv_from_fraction, upper, upper_float

__all__ = [
    "BurgessParameters",
    "FreezeCertificate",
    "TableCell",
    "bound_shape",
    "bound_shapes",
    "burgess_params",
    "certify_freeze",
    "compute_bound",
    "enclose_g",
    "make_table",
    "reference_g",
]

# Validity condition identifiers, reported verbatim in results and JSON.
COND_XSTAR = "xstar_gt_3.8"
COND_LOGP_EXP = "logp_gt_exp(8/3)"
COND_LOGP_8N = "logp_gt_8(n-1)"
COND_P0_MIN = "p0_gt_2e6"
COND_P0_EXP8N = "p0_gt_exp(8(n-1))"
COND_G_LE_C = "g_le_c"

_XSTAR_FLOOR = (19, 5)  # 3.8


def _check_np(n: int, p: float) -> None:
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not p >= 2:
        raise ValueError(f"p must be >= 2, got {p!r}")


def bound_shape(n: int, p: float, c: float = 1.0) -> float:
    """c * p^(1/4) * (log p)^((n+1)/2), evaluated in one place and order;
    ValueError if the power overflows a double (n in the hundreds)."""
    try:
        return c * p**0.25 * math.log(p) ** ((n + 1) / 2.0)
    except OverflowError:
        raise ValueError(
            f"(log p)^((n+1)/2) overflows a double at n={n}, p={p}"
        ) from None


def bound_shapes(ps: list[int], n_max: int) -> list[list[float]]:
    """For n = 1..n_max, the list of bound_shape(n, p) over p in ps, bit for
    bit (c = 1.0 and 1.0 * a == a): p^(1/4) and log p once per p, then one
    power and one product per (p, n), each a map over the list.  Like
    bound_shape it uses libm's log and pow only: numpy's vectorised log
    and power need not round as libm does.  Overflow is the caller's to
    rule out."""
    roots = list(map(pow, ps, repeat(0.25)))
    logs = list(map(math.log, ps))
    return [list(map(mul, roots, map(pow, logs, repeat((n + 1) / 2.0))))
            for n in range(1, n_max + 1)]


def compute_bound(n: int, p: float, c: float) -> float:
    """c * p^(1/4) * (log p)^((n+1)/2) for a frozen constant c > 0, rounded
    up: the least double at or above its enclosure on IV, with p and c
    exact, so never below the real product.  ValueError if that is past
    the doubles (n in the hundreds)."""
    _check_np(n, p)
    if not 0 < c < math.inf:
        raise ValueError(f"constant c must be positive and finite, got {c!r}")
    p_iv = iv_from_fraction(Fraction(p))
    bound = upper_float(iv_from_fraction(Fraction(c)) * IV.sqrt(IV.sqrt(p_iv))
                        * IV.sqrt(IV.log(p_iv)) ** (n + 1))
    if bound == math.inf:
        raise ValueError(f"the bound overflows a double at n={n}, p={p}")
    return bound


def _above(x, r: tuple[int, int] = (0, 1)) -> bool:
    """Whether the interval x lies entirely above the ratio r = (n, d),
    d > 0: lo * d > n for its raw lower endpoint lo, in exact libmp
    arithmetic, so a tiny lo (X* at a large n) costs no integer as wide as
    its exponent."""
    n, d = r
    return mpf_cmp(mpf_mul(x._mpi_[0], from_int(d)), from_int(n)) > 0


def enclose_g(n: int, p) -> tuple:
    """Enclosures (X*, f(X*), g(n, p)) on the 96-bit context rounding.IV.
    p is exact (an int, a Fraction, or a float, which converts exactly), so
    10**25 means 10^25.  f(X*) is None unless X* > 1, and g is None unless
    its denominators f(X*) and 2B log p - 3 are certainly positive."""
    _check_np(n, p)
    p_iv = iv_from_fraction(Fraction(p))
    logp = IV.log(p_iv)
    ratio = IV.mpf(n + 1) / n
    xstar = (IV.pi / 3 / IV.sqrt(2 * IV.e) * ratio ** (n - 1)
             * IV.sqrt(IV.sqrt(p_iv)) / IV.sqrt(logp) ** (n - 1)
             * (1 - ratio * IV.exp(IV.mpf(-1) / n) / logp))
    if not _above(xstar, (1, 1)):
        return xstar, None, None
    f_at_xstar = 1 - IV.pi ** 2 / 9 * (IV.log(xstar) + 9) / (3 * xstar)
    sqrt_den = IV.mpf(n) / (n + 1) * logp - 3
    if not (_above(f_at_xstar) and _above(sqrt_den)):
        return xstar, f_at_xstar, None
    g = (IV.pi / 3 * IV.sqrt(2 * IV.e) * IV.mpf(n) / (n + 1)
         * IV.sqrt((1 + IV.sqrt(2) / sqrt_den) / f_at_xstar))
    return xstar, f_at_xstar, g


def _p0_failed(n0: int, p0, logp) -> list[str]:
    """Names of the reference conditions on p0 that fail: p0 > 2*10^6, and
    log p0 > 8(n0-1) on logp, an enclosure of log p0."""
    return [name for name, holds in (
        (COND_P0_MIN, Fraction(p0) > 2 * 10**6),
        (COND_P0_EXP8N, _above(logp, (8 * (n0 - 1), 1)))) if not holds]


def reference_g(n0: int, p0) -> tuple[float | None, tuple[str, ...]]:
    """(g, failed) for a reference pair (n0, p0), p0 exact as in enclose_g.

    failed names the conditions X*(n0, p0) > 3.8, p0 > 2*10^6 and
    log p0 > 8(n0-1) that do not hold, each decided at the unfavorable
    endpoint of its enclosure.  g is None if one fails, and otherwise
    g(n0, p0) rounded up: the least double at or above its enclosure's
    upper end.  The conditions leave g enclosed: X* > 3.8 gives
    f(X*) > f(3.8) > 0.005, as f increases (see certify_freeze), and
    log p0 > max(8(n0-1), log(2*10^6)) gives (n0/(n0+1)) log p0 > 3.  It
    takes one enclose_g call, at n0, so an invalid pair is refused in
    constant time whatever n0 is, unlike certify_freeze.
    """
    xstar, _, g = enclose_g(n0, p0)
    failed = ([] if _above(xstar, _XSTAR_FLOOR) else [COND_XSTAR]) + _p0_failed(
        n0, p0, IV.log(iv_from_fraction(Fraction(p0))))
    return (None, tuple(failed)) if failed else (upper_float(g), ())


@dataclass(frozen=True)
class FreezeCertificate:
    """ok iff no (n, condition) failed; min_slack is the least certified
    c - g(n, p0) over the n whose g is enclosed, at n = min_slack_n."""

    ok: bool
    failed: tuple[tuple[int, str], ...]
    min_slack: float | None
    min_slack_n: int | None


def certify_freeze(n0: int, p0, c: float) -> FreezeCertificate:
    """Certify that (n, p) is valid and g(n, p) <= c for all p >= p0 and
    n <= n0.  At p0 (exact, as in enclose_g) and each n <= n0, X* > 3.8,
    log p0 > exp(8/3), log p0 > 8(n-1) and g <= c (rounding.certify against
    c's exact ratio) are decided at the unfavorable endpoints of their
    enclosures, and so are reference_g's conditions on p0.

    Checking p0 is enough.  Let L = log p and k = ((n+1)/n) e^(-1/n).
      - k < 1, because e^(1/n) > 1 + 1/n; so X* > 0 for L > 1.
      - On L > 8(n-1), d log X*/dL = 1/4 - (n-1)/(2L) + (k/L^2)/(1 - k/L)
        >= 1/4 - 1/16 = 3/16, so X* increases with p.
      - f'(x) = (pi^2/27)(log x + 8)/x^2 > 0, so f(X*) increases with p.
      - sqrt(2)/(2BL - 3) decreases in L, where 2BL >= L/2 > 3.
    So each condition that holds at p0 holds for all p >= p0, and there
    g(n, p) <= g(n, p0), its numerator falling and f(X*) > 0 rising.
    """
    _check_np(n0, p0)
    logp = IV.log(iv_from_fraction(Fraction(p0)))
    failed = [(n0, name) for name in _p0_failed(n0, p0, logp)]
    slacks = []
    for n in range(1, n0 + 1):
        xstar, _, g = enclose_g(n, p0)
        ok, slack = (False, None) if g is None else certify(upper(g), c.as_integer_ratio())
        failed += [(n, name) for name, holds in (
            (COND_XSTAR, _above(xstar, _XSTAR_FLOOR)),
            (COND_LOGP_EXP, _above(logp - IV.exp(IV.mpf(8) / 3))),
            (COND_LOGP_8N, _above(logp, (8 * (n - 1), 1))),
            (COND_G_LE_C, ok)) if not holds]
        if slack is not None:
            slacks.append((slack, n))
    return FreezeCertificate(not failed, tuple(failed), *min(slacks, default=(None, None)))


@dataclass(frozen=True)
class TableCell:
    n0: int
    p0: float
    g: float | None  # None renders as a dash
    failed_conditions: tuple[str, ...]


def make_table(n0_list: list[int], p0_list: list[float]) -> list[list[TableCell]]:
    """Grid of frozen constants: one row per n0, one column per p0.

    A cell carries reference_g's g(n0, p0), rounded up to a double, when
    (n0, p0) is a usable reference pair and None (a dash) otherwise; dashes
    still record which condition failed.
    """
    return [[TableCell(n0, p0, *reference_g(n0, p0)) for p0 in p0_list]
            for n0 in n0_list]


def ceil_3dp(g: float) -> float:
    """Round a constant up to 3 decimals: the least double k/1000 (k an
    integer, the quotient correctly rounded) that is >= g.

    A frozen constant must be rounded up, never to nearest: any value below
    the true g(n0, p0) would void the bound for some (n, p).
    """
    k = math.ceil(g * 1000)  # g * 1000 is rounded, so k may be one off
    while k / 1000 < g:
        k += 1
    while (k - 1) / 1000 >= g:
        k -= 1
    return k / 1000


def render_table_text(table: list[list[TableCell]]) -> str:
    """Fixed-width text rendering, one row per n0, dash for invalid cells."""
    if not table:
        return ""
    p0s = [cell.p0 for cell in table[0]]
    header = "n0\\p0".ljust(8) + "".join(f"{_p0_label(p):>10}" for p in p0s)
    lines = [header]
    for row in table:
        lines.append(f"{row[0].n0:<8}" + "".join(f"{_cell(c):>10}" for c in row))
    return "\n".join(lines)


def render_table_csv(table: list[list[TableCell]]) -> str:
    """CSV with a header row of p0 values and one row per n0; dash = "-"."""
    if not table:
        return ""
    lines = ["n0," + ",".join(_p0_label(c.p0) for c in table[0])]
    for row in table:
        lines.append(f"{row[0].n0}," + ",".join(map(_cell, row)))
    return "\n".join(lines) + "\n"


def _cell(c: TableCell) -> str:
    """A table cell's text: its g rounded up to 3 decimals, or a dash."""
    return "-" if c.g is None else f"{ceil_3dp(c.g):.3f}"


def table_to_json_obj(table: list[list[TableCell]]) -> list[dict]:
    return [asdict(c) for row in table for c in row]


def _p0_label(p0: float) -> str:
    e = math.log10(p0)
    if abs(e - round(e)) < 1e-12:
        return f"1e{round(e)}"
    return repr(p0)


@dataclass(frozen=True)
class BurgessParameters:
    """Window length h and moment power r used by the character-sum method.

    h = ceil(A log p) and r = floor(B log p) with A = (n/(n+1)) e^(1/n) and
    B = n/(2(n+1)).  These choices force (2B/(Ae))^(B log p) = p^(-1/2)
    (proved in burgess_params); identity_error records how far the floating
    evaluation of that identity is from exact.
    """

    a: float
    b: float
    h: int
    r: int
    identity_error: float


def burgess_params(n: int, p: float) -> BurgessParameters:
    """Window/moment parameters for (n, p).

    The identity holds exactly: 2B = n/(n+1) = A e^(-1/n), so
    2B/(Ae) = e^(-1-1/n), and with L = log p,
    (2B/(Ae))^(BL) = e^(-(1+1/n) nL/(2(n+1))) = e^(-L/2) = p^(-1/2).

    p must be large enough that r = floor(B log p) >= 1, i.e.
    log p >= 2(n+1)/n.  Then 1/4 <= B < 1/2 and, as A = 2B e^(1/n) >= 2B,
    1 <= r <= h/2, well inside the moment bound's r <= 9h.
    """
    _check_np(n, p)
    logp = math.log(p)
    a = n / (n + 1.0) * math.exp(1.0 / n)
    b = n / (2.0 * (n + 1))
    h = math.ceil(a * logp)
    r = math.floor(b * logp)
    if r < 1:
        raise ValueError(
            f"p={p!r} is too small for n={n}: floor(B log p) = {r} < 1"
        )
    err = abs((2.0 * b / (a * math.e)) ** (b * logp) * math.sqrt(p) - 1.0)
    return BurgessParameters(a=a, b=b, h=h, r=r, identity_error=err)
