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
works for all p >= p0 and n <= n0; g is nonincreasing in p and nondecreasing
in n on the validity region, which is what makes the freeze legitimate.

This module evaluates all of those closed forms, reports validity condition
by condition, regenerates the reference constant table, and checks the
monotonicity claims on a grid.  All logarithms are natural.  p enters the
formulas only as a real number, so moduli like 10^35 are accepted as floats
and need not be prime here.

Every quantity is computed twice: in double precision (the `compute_*`
functions) and, for cross-checking, with mpmath at >= 100 bits
(`compute_g_highprec`).  The two paths share no code.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import mpmath

__all__ = [
    "BurgessParameters",
    "ConstantsResult",
    "MonotonicityReport",
    "TableCell",
    "bound_shape",
    "bound_shapes",
    "burgess_params",
    "compute_bound",
    "compute_g",
    "compute_g_highprec",
    "compute_xstar",
    "reference_validity",
    "make_table",
    "monotonicity_scan",
    "totient_factor_f",
]

# Validity condition identifiers, reported verbatim in results and JSON.
COND_XSTAR = "xstar_gt_3.8"
COND_LOGP_EXP = "logp_gt_exp(8/3)"
COND_LOGP_8N = "logp_gt_8(n-1)"
COND_P0_MIN = "p0_gt_2e6"
COND_P0_EXP8N = "p0_gt_exp(8(n-1))"

XSTAR_FLOOR = 3.8
HIGHPREC_DPS = 40  # ~133 bits


def _check_np(n: int, p: float) -> None:
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not p >= 2:
        raise ValueError(f"p must be >= 2, got {p!r}")


def totient_factor_f(x: float) -> float:
    """f(x) = 1 - (pi^2/9)(log x + 9)/(3x), defined for x > 1.

    This is the correction factor in the totient-sum lower bound
    2x sum_{a<=x} phi(a)/a - sum_{a<=x} phi(a) >= (9/pi^2) x^2 f(x);
    it is strictly increasing for x > 3.8 and tends to 1 as x -> infinity.
    """
    if not x > 1:
        raise ValueError(f"totient_factor_f needs x > 1, got {x!r}")
    return 1.0 - (math.pi**2 / 9.0) * (math.log(x) + 9.0) / (3.0 * x)


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
    bit (c = 1.0 and 1.0 * a == a), one comprehension per n.  Like
    bound_shape it uses libm's log and pow only: numpy's vectorised log
    and power need not round as libm does.  Overflow is the caller's to
    rule out."""
    return [[x**0.25 * math.log(x) ** ((n + 1) / 2.0) for x in ps]
            for n in range(1, n_max + 1)]


def compute_xstar(n: int, p: float) -> float:
    """The threshold quantity X*(n, p); the bound is usable when X* > 3.8."""
    _check_np(n, p)
    logp = math.log(p)
    ratio = (n + 1) / n
    try:
        damping = logp ** ((n - 1) / 2.0)
    except OverflowError:  # beyond the double range (n > ~500): X* is ~0
        return 0.0
    return (
        (math.pi / 3.0)
        / math.sqrt(2.0 * math.e)
        * ratio ** (n - 1)
        * p**0.25
        / damping
        * (1.0 - ratio * math.exp(-1.0 / n) / logp)
    )


@dataclass(frozen=True)
class ConstantsResult:
    """Everything the constant evaluation produces for one (n, p) pair.

    g and bound are None when a denominator is nonpositive (which only
    happens outside the validity region).  failed_conditions lists the
    validity conditions that do not hold, by identifier.
    """

    n: int
    p: float
    xstar: float
    f_at_xstar: float | None
    g: float | None
    bound: float | None
    valid: bool
    failed_conditions: tuple[str, ...]


def compute_g(n: int, p: float) -> ConstantsResult:
    """Evaluate g(n, p) and the resulting nonresidue bound.

    Validity requires X* > 3.8, log p > exp(8/3) and log p > 8(n-1); each
    failure is recorded by name.  Outside the validity region g is still
    reported whenever both denominators (f(X*) and 2B log p - 3) are
    positive, since that is how the gaps in the reference table were found.
    """
    _check_np(n, p)
    logp = math.log(p)
    xstar = compute_xstar(n, p)
    b = n / (2.0 * (n + 1))

    failed = []
    if not xstar > XSTAR_FLOOR:
        failed.append(COND_XSTAR)
    if not logp > math.exp(8.0 / 3.0):
        failed.append(COND_LOGP_EXP)
    if not logp > 8.0 * (n - 1):
        failed.append(COND_LOGP_8N)

    f_at_xstar = totient_factor_f(xstar) if xstar > 1 else None
    sqrt_den = 2.0 * b * logp - 3.0

    g = bound = None
    if f_at_xstar is not None and f_at_xstar > 0 and sqrt_den > 0:
        g = (
            (math.pi / 3.0)
            * math.sqrt(2.0 * math.e)
            * (n / (n + 1.0))
            * math.sqrt((1.0 + math.sqrt(2.0) / sqrt_den) / f_at_xstar)
        )
        bound = bound_shape(n, p, g)

    return ConstantsResult(
        n=n,
        p=p,
        xstar=xstar,
        f_at_xstar=f_at_xstar,
        g=g,
        bound=bound,
        valid=not failed,
        failed_conditions=tuple(failed),
    )


def compute_g_highprec(n: int, p, dps: int = HIGHPREC_DPS):
    """Independent evaluation of g(n, p) with mpmath at >= 100 bits.

    Returns an mpmath.mpf, or None outside the region where the expression
    is defined.  Used as the precision cross-check for compute_g; shares no
    arithmetic with the double-precision path.
    """
    if not (isinstance(n, int) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    with mpmath.workdps(dps):
        n_ = mpmath.mpf(n)
        p_ = mpmath.mpf(p)
        if not p_ >= 2:
            raise ValueError(f"p must be >= 2, got {p!r}")
        logp = mpmath.log(p_)
        ratio = (n_ + 1) / n_
        xstar = (
            (mpmath.pi / 3)
            / mpmath.sqrt(2 * mpmath.e)
            * ratio ** (n_ - 1)
            * p_ ** mpmath.mpf("0.25")
            / logp ** ((n_ - 1) / 2)
            * (1 - ratio * mpmath.exp(-1 / n_) / logp)
        )
        if not xstar > 1:
            return None
        f_x = 1 - (mpmath.pi**2 / 9) * (mpmath.log(xstar) + 9) / (3 * xstar)
        den = logp * n_ / (n_ + 1) - 3
        if not (f_x > 0 and den > 0):
            return None
        g = (
            (mpmath.pi / 3)
            * mpmath.sqrt(2 * mpmath.e)
            * (n_ / (n_ + 1))
            * mpmath.sqrt((1 + mpmath.sqrt(2) / den) / f_x)
        )
        return +g


def compute_bound(n: int, p: float, c: float) -> float:
    """c * p^(1/4) * (log p)^((n+1)/2) for a frozen constant c > 0."""
    _check_np(n, p)
    if not c > 0:
        raise ValueError(f"constant c must be positive, got {c!r}")
    return bound_shape(n, p, c)


def reference_validity(n0: int, p0: float) -> tuple[bool, tuple[str, ...]]:
    """Whether (n0, p0) can serve as a reference pair for a frozen constant.

    Requires X*(p0, n0) > 3.8 and p0 > max(2*10^6, exp(8(n0-1))).  Returns
    (ok, failed_condition_names).
    """
    _check_np(n0, p0)
    failed = []
    if not compute_xstar(n0, p0) > XSTAR_FLOOR:
        failed.append(COND_XSTAR)
    if not p0 > 2e6:
        failed.append(COND_P0_MIN)
    try:
        p0_floor = math.exp(8.0 * (n0 - 1))
    except OverflowError:  # n0 >= 90: no double p0 exceeds the floor
        p0_floor = math.inf
    if not p0 > p0_floor:
        failed.append(COND_P0_EXP8N)
    return (not failed, tuple(failed))


@dataclass(frozen=True)
class TableCell:
    n0: int
    p0: float
    g: float | None  # None renders as a dash
    failed_conditions: tuple[str, ...]


def make_table(n0_list: list[int], p0_list: list[float]) -> list[list[TableCell]]:
    """Grid of frozen constants: one row per n0, one column per p0.

    A cell carries g(n0, p0) when (n0, p0) is a usable reference pair and
    None (a dash) otherwise; dashes still record which condition failed.
    """
    rows = []
    for n0 in n0_list:
        row = []
        for p0 in p0_list:
            ok, failed = reference_validity(n0, p0)
            g = compute_g(n0, p0).g if ok else None
            row.append(TableCell(n0=n0, p0=p0, g=g, failed_conditions=failed))
        rows.append(row)
    return rows


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
        cells = "".join(
            f"{'-':>10}" if c.g is None else f"{ceil_3dp(c.g):>10.3f}" for c in row
        )
        lines.append(f"{row[0].n0:<8}" + cells)
    return "\n".join(lines)


def render_table_csv(table: list[list[TableCell]]) -> str:
    """CSV with a header row of p0 values and one row per n0; dash = "-"."""
    if not table:
        return ""
    lines = ["n0," + ",".join(_p0_label(c.p0) for c in table[0])]
    for row in table:
        vals = ",".join(
            "-" if c.g is None else f"{ceil_3dp(c.g):.3f}" for c in row
        )
        lines.append(f"{row[0].n0},{vals}")
    return "\n".join(lines) + "\n"


def table_to_json_obj(table: list[list[TableCell]]) -> list[dict]:
    return [asdict(c) for row in table for c in row]


def _p0_label(p0: float) -> str:
    e = math.log10(p0)
    if abs(e - round(e)) < 1e-12:
        return f"1e{round(e)}"
    return repr(p0)


@dataclass(frozen=True)
class MonotonicityReport:
    pairs_checked: int
    valid_points: int
    violations: tuple[tuple[str, int, float, int, float], ...]
    # each violation: (axis, n, p, n', p') with g moving the wrong way

    @property
    def ok(self) -> bool:
        return not self.violations


def monotonicity_scan(n_values: list[int], p_values: list[float]) -> MonotonicityReport:
    """Check that g is nonincreasing in p and nondecreasing in n on a grid.

    Only grid points satisfying the validity conditions participate; within
    each row (fixed n) and column (fixed p) consecutive valid entries are
    compared.  Violations are reported, not raised.
    """
    n_values = sorted(n_values)
    p_values = sorted(p_values)
    g = {}
    valid_points = 0
    for n in n_values:
        for p in p_values:
            res = compute_g(n, p)
            if res.valid and res.g is not None:
                g[(n, p)] = res.g
                valid_points += 1

    violations = []
    pairs = 0
    for n in n_values:
        prev = None
        for p in p_values:
            if (n, p) not in g:
                continue
            if prev is not None:
                pairs += 1
                if g[(n, p)] > g[(n, prev)]:
                    violations.append(("p", n, prev, n, p))
            prev = p
    for p in p_values:
        prev = None
        for n in n_values:
            if (n, p) not in g:
                continue
            if prev is not None:
                pairs += 1
                if g[(n, p)] < g[(prev, p)]:
                    violations.append(("n", prev, p, n, p))
            prev = n
    return MonotonicityReport(
        pairs_checked=pairs, valid_points=valid_points, violations=tuple(violations)
    )


@dataclass(frozen=True)
class BurgessParameters:
    """Window length h and moment power r used by the character-sum method.

    h = ceil(A log p) and r = floor(B log p) with A = (n/(n+1)) e^(1/n) and
    B = n/(2(n+1)).  These choices satisfy A = (2B/e) e^(1/(2B)), which
    forces (2B/(Ae))^(B log p) = p^(-1/2); identity_error records how far
    the floating evaluation of that identity is from exact.
    """

    a: float
    b: float
    h: int
    r: int
    identity_error: float

    def __post_init__(self) -> None:
        if not (0 < self.b < 0.5):
            raise ValueError(f"B out of range: {self.b}")
        if self.h < 1 or self.r < 1:
            raise ValueError(f"degenerate parameters h={self.h}, r={self.r}")
        if self.r > 9 * self.h:
            raise ValueError(f"r={self.r} exceeds 9h={9 * self.h}")


IDENTITY_RTOL = 1e-9


def burgess_params(n: int, p: float) -> BurgessParameters:
    """Window/moment parameters for (n, p), with the p^(-1/2) identity check.

    p must be large enough that r = floor(B log p) >= 1, i.e.
    log p >= 2(n+1)/n.
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
    if err >= IDENTITY_RTOL:
        raise ArithmeticError(
            f"parameter identity violated at n={n}, p={p!r}: error {err:.3e}"
        )
    return BurgessParameters(a=a, b=b, h=h, r=r, identity_error=err)
