"""Directed-rounding helpers on top of mpmath interval arithmetic.

The inequality oracles in this package certify statements of the form
LHS <= RHS where one side is exact (a Python int or Fraction) and the other
is a real expression.  The real side is evaluated in interval arithmetic
(outward rounding guaranteed), and the unfavorable endpoint is extracted as
an exact dyadic Fraction for the final comparison: the RHS of a "<=" is
rounded down, the RHS of a ">=" is rounded up.  A reported pass is then a
numerical certificate at the working precision, never a rounding accident.

A package-private interval context is used so that precision changes here
never affect the global mpmath.iv singleton.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath.ctx_iv import MPIntervalContext

DEFAULT_PREC = 96

IV = MPIntervalContext()
IV.prec = DEFAULT_PREC


def fresh_context(prec: int) -> MPIntervalContext:
    """A new interval context at the given binary precision."""
    ctx = MPIntervalContext()
    ctx.prec = prec
    return ctx


def _raw_to_fraction(raw) -> Fraction:
    """Exact value of one interval endpoint from its raw (sign, man, exp, bc)."""
    sign, man, exp, _ = raw
    if man == 0 and exp != 0:
        raise ValueError(f"nonfinite interval endpoint: {raw}")
    v = Fraction(int(man)) * Fraction(2) ** exp
    return -v if sign else v


def lower_fraction(x) -> Fraction:
    """Exact lower endpoint of an interval number."""
    return _raw_to_fraction(x._mpi_[0])


def upper_fraction(x) -> Fraction:
    """Exact upper endpoint of an interval number."""
    return _raw_to_fraction(x._mpi_[1])


def iv_from_fraction(q: Fraction, ctx: MPIntervalContext = IV):
    """Smallest representable interval containing the rational q."""
    return ctx.mpf(q.numerator) / q.denominator

