"""Directed-rounding helpers on top of mpmath interval arithmetic.

The inequality oracles in this package certify statements of the form
LHS <= RHS where one side is exact (a Python int or Fraction) and the other
is a real expression.  The real side is evaluated in interval arithmetic
(outward rounding guaranteed), and the unfavorable endpoint is extracted as
an exact dyadic number man * 2^exp for the final comparison: the RHS of a
"<=" is rounded down, the RHS of a ">=" is rounded up.  A reported pass is
then a numerical certificate at the working precision, never a rounding
accident.

Endpoints come out either as Fractions (lower_fraction, upper_fraction) or,
for comparisons in a hot loop, as an unreduced integer difference against a
rational (lower_minus), built by shifts with no Fraction and no gcd.  The
oracles cache the endpoints of their constant factors (sqrt(2)(2r/e)^r,
sqrt(p), 9/pi^2) and combine them with exact integers, so an interval
evaluation per instance is needed only where the instance itself enters a
transcendental function.  There lower_log and lower_product return the
one endpoint needed as a raw (sign, man, exp, bc) tuple, from the libmp
call and rounding mode that mpmath's interval function makes for it, so no
interval object is built per instance.

Interval contexts are package-private and cached per precision, so
precision here never affects the global mpmath.iv singleton.  Callers must
not change a cached context's precision.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from mpmath.ctx_iv import MPIntervalContext
from mpmath.libmp import from_int, mpf_div, mpf_log, mpf_mul, round_ceiling, round_floor

DEFAULT_PREC = 96


@functools.lru_cache(maxsize=32)
def interval_context(prec: int) -> MPIntervalContext:
    """The shared interval context at the given binary precision."""
    ctx = MPIntervalContext()
    ctx.prec = prec
    return ctx


IV = interval_context(DEFAULT_PREC)


def _signed_man_exp(raw) -> tuple[int, int]:
    """(m, e) with endpoint value m * 2^e, from a raw (sign, man, exp, bc)."""
    sign, man, exp, _ = raw
    if man == 0 and exp != 0:
        raise ValueError(f"nonfinite interval endpoint: {raw}")
    return (-int(man) if sign else int(man)), exp


def _raw_to_fraction(raw) -> Fraction:
    """Exact value of one interval endpoint from its raw (sign, man, exp, bc)."""
    man, exp = _signed_man_exp(raw)
    return Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)


def lower_fraction(x) -> Fraction:
    """Exact lower endpoint of an interval number."""
    return _raw_to_fraction(x._mpi_[0])


def upper_fraction(x) -> Fraction:
    """Exact upper endpoint of an interval number."""
    return _raw_to_fraction(x._mpi_[1])


def lower_minus(lo, num: int, den: int) -> tuple[int, int]:
    """lo - num/den exactly, as an unreduced fraction (n, d) with d > 0, for
    a raw lower endpoint lo (x._mpi_[0], or from lower_log/lower_product).

    The sign of n decides lo >= num/den, and n / d (int true division,
    correctly rounded) is the same float as float() of the reduced Fraction.
    """
    man, exp = _signed_man_exp(lo)
    if exp >= 0:
        return (man << exp) * den - num, den
    return man * den - (num << -exp), den << -exp


def iv_from_fraction(q: Fraction, ctx: MPIntervalContext = IV):
    """Smallest representable interval containing the rational q."""
    return ctx.mpf(q.numerator) / q.denominator


def lower_log(q: Fraction, prec: int = DEFAULT_PREC):
    """Raw lower endpoint of log(iv_from_fraction(q)) for a rational q > 0:
    the numerator rounded down over the denominator rounded up, their
    quotient rounded down, and its log rounded down."""
    num = from_int(q.numerator, prec, round_floor)
    den = from_int(q.denominator, prec, round_ceiling)
    return mpf_log(mpf_div(num, den, prec, round_floor), prec, round_floor)


def lower_product(lo, base_lo, prec: int = DEFAULT_PREC):
    """Raw lower endpoint of x * y for positive intervals x, y with raw
    lower endpoints lo and base_lo: their product rounded down."""
    return mpf_mul(lo, base_lo, prec, round_floor)
