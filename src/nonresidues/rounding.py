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
interval object is built.

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


def lower_exp(q: Fraction, prec: int = DEFAULT_PREC):
    """Raw lower endpoint of exp(iv_from_fraction(q)) for a rational q >= 0:
    the lower endpoint of q, its exp rounded down."""
    return mpf_exp(_lower_quotient(q, prec), prec, round_floor)
