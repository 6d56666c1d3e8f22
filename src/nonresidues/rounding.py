"""Directed-rounding helpers on top of mpmath interval arithmetic.

Every certificate in this package decides a statement small <= big where
one side is exact (integers, or a rational) and the other is a real
expression.  The real side is evaluated in interval arithmetic (outward
rounding guaranteed), and only its unfavorable endpoint is used: the
bigger side is rounded down, the smaller side rounded up.  A reported pass
is then a numerical certificate at the working precision, never a rounding
accident.

One exact form serves every comparison: an unreduced integer ratio (n, d)
with d > 0.  ratio() reads a raw endpoint man * 2^exp by shifts, lower()
and upper() read an interval's endpoints, and minus() subtracts two ratios
by cross-multiplication, with no Fraction and no gcd.  certify(small, big)
is the one comparison: it returns small <= big and big - small as a float
(to_float, int true division, which rounds correctly as float() of a
Fraction does).  upper_float() rounds an interval's upper endpoint up to a
double, for the constants and bounds the package reports.  The oracles
cache the endpoints of their constant factors (sqrt(2)(2r/e)^r, sqrt(p),
9/pi^2) and combine them with exact integers, so an interval evaluation
per instance is needed only where the instance itself enters a
transcendental function.  There lower_log and lower_exp return the one
endpoint needed as a raw (sign, man, exp, bc) tuple, from the libmp calls
and rounding modes that mpmath's interval functions make for it, so no
interval object is built.  fixed_log serves a sweep over many arguments of
one logarithm: it rounds log(n) of an integer n to a multiple of
2^-bits in a chosen direction, so that such endpoints add as integers.

A chain of interval products of positive numbers needs no libmp call at
all.  lower_product keeps the lower endpoint as a dyadic (man, exp), the
value man * 2^exp with man > 0, and truncates the exact product of two
mantissas to prec significant bits.  For a positive product, rounding
toward -inf is truncation, and the truncation of a value to prec
significant bits depends on the value alone, not on trailing zeros of its
mantissa, so each step has the value of mpf_mul(lo, base_lo, prec,
round_floor), the lower endpoint of mpmath's interval product.
certify_dyadic is certify against such an endpoint: it forms the integers
that certify forms with ratio((0, man, exp, bc)), but applies 2^exp by
shifts instead of building 1 << -exp and multiplying by it.  The two give
the same verdict, and the same slack, since int true division rounds the
exact quotient.

Interval contexts are package-private and cached per precision, so
precision here never affects the global mpmath.iv singleton.  Callers must
not change a cached context's precision.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import (
    from_int, mpf_div, mpf_exp, mpf_log, round_ceiling, round_floor, to_float as raw_to_float)

DEFAULT_PREC = 96


@functools.lru_cache(maxsize=32)
def interval_context(prec: int) -> MPIntervalContext:
    """The shared interval context at the given binary precision."""
    ctx = MPIntervalContext()
    ctx.prec = prec
    return ctx


IV = interval_context(DEFAULT_PREC)


def ratio(raw) -> tuple[int, int]:
    """Exact value man * 2^exp of a raw endpoint (sign, man, exp, bc) as an
    integer ratio (n, d), d > 0."""
    sign, man, exp, _ = raw
    if man == 0 and exp != 0:
        raise ValueError(f"nonfinite interval endpoint: {raw}")
    man = -int(man) if sign else int(man)
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


def lower(x) -> tuple[int, int]:
    """Exact lower endpoint of an interval number, as a ratio."""
    return ratio(x._mpi_[0])


def upper(x) -> tuple[int, int]:
    """Exact upper endpoint of an interval number, as a ratio."""
    return ratio(x._mpi_[1])


def upper_float(x) -> float:
    """The least double at or above the upper endpoint of an interval
    number (inf past the largest double): its mantissa rounded up to 53
    bits, which is exact for normal doubles."""
    return raw_to_float(x._mpi_[1], rnd=round_ceiling)


def minus(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """x - y for ratios (n, d) with d > 0, cross-multiplied and unreduced."""
    return x[0] * y[1] - y[0] * x[1], x[1] * y[1]


def to_float(n: int, d: int) -> float:
    """n / d correctly rounded (as float(Fraction(n, d))), clamped to +-inf."""
    try:
        return n / d
    except OverflowError:
        return math.inf if n > 0 else -math.inf


def certify(small: tuple[int, int], big: tuple[int, int]) -> tuple[bool, float]:
    """(small <= big, big - small as a float), exactly, for ratios (n, d)
    with d > 0."""
    n, d = minus(big, small)
    return n >= 0, to_float(n, d)


def iv_from_fraction(q: Fraction, ctx: MPIntervalContext = IV):
    """Smallest representable interval containing the rational q."""
    return ctx.mpf(q.numerator) / q.denominator


def _lower_quotient(q: Fraction, prec: int):
    """Raw lower endpoint of iv_from_fraction(q) for a rational q >= 0: the
    numerator rounded down over the denominator rounded up, their quotient
    rounded down."""
    num = from_int(q.numerator, prec, round_floor)
    den = from_int(q.denominator, prec, round_ceiling)
    return mpf_div(num, den, prec, round_floor)


def lower_log(q: Fraction, prec: int = DEFAULT_PREC):
    """Raw lower endpoint of log(iv_from_fraction(q)) for a rational q > 0:
    the lower endpoint of q, its log rounded down."""
    return mpf_log(_lower_quotient(q, prec), prec, round_floor)


def fixed_log(n: int, bits: int, up: bool = False) -> int:
    """log(n) * 2^bits for an integer n >= 1, rounded to an integer: down,
    or up if up is set.

    One libmp log at bits + 32 bits rounds in that direction, and the shift
    to bits fractional bits rounds the same way, so the result is at most
    log(n) 2^bits, or at least it if up is set.  The log is off by less than
    one unit in its last place, which is below 2^-(bits + 28) while
    log n < 16 (n < 8.8 * 10^6), so there the result is within 1 + 2^-28
    of log(n) 2^bits."""
    _, man, exp, _ = mpf_log(from_int(n), bits + 32, round_ceiling if up else round_floor)
    shift = exp + bits
    if shift >= 0:
        return man << shift
    return -(-man >> -shift) if up else man >> -shift


def lower_exp(q: Fraction, prec: int = DEFAULT_PREC):
    """Raw lower endpoint of exp(iv_from_fraction(q)) for a rational q >= 0:
    the lower endpoint of q, its exp rounded down."""
    return mpf_exp(_lower_quotient(q, prec), prec, round_floor)


def lower_product(x: tuple[int, int], y: tuple[int, int],
                  prec: int = DEFAULT_PREC) -> tuple[int, int]:
    """Lower endpoint of x * y for positive dyadics x = (man, exp) and y,
    each the value man * 2^exp with man > 0: the exact product truncated to
    prec significant bits, which is the value of mpf_mul at prec with
    round_floor.  Mantissas keep their trailing zeros."""
    man, exp = x[0] * y[0], x[1] + y[1]
    excess = man.bit_length() - prec
    return (man >> excess, exp + excess) if excess > 0 else (man, exp)


def certify_dyadic(small: tuple[int, int], big: tuple[int, int]) -> tuple[bool, float]:
    """certify(small, big) for a ratio small = (n, d), d > 0, and a dyadic
    big = (man, exp) worth man * 2^exp, with 2^exp applied by shifts."""
    (n, d), (man, exp) = small, big
    if exp >= 0:
        diff, den = (man << exp) * d - n, d
    else:
        diff, den = man * d - (n << -exp), d << -exp
    return diff >= 0, to_float(diff, den)
