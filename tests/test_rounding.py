from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nonresidues import rounding as rd

rationals = st.builds(
    Fraction,
    st.integers(min_value=-(10**40), max_value=10**40),
    st.integers(min_value=1, max_value=10**30),
)


def _reference_fraction(raw):
    # man * 2^exp in Fraction arithmetic, independent of the shift form
    sign, man, exp, _ = raw
    v = Fraction(int(man)) * Fraction(2) ** exp
    return -v if sign else v


@settings(deadline=None, max_examples=200)
@given(rationals)
def test_endpoints_are_exact_and_enclose(q):
    x = rd.iv_from_fraction(q)
    lo, hi = rd.lower_fraction(x), rd.upper_fraction(x)
    assert lo == _reference_fraction(x._mpi_[0])
    assert hi == _reference_fraction(x._mpi_[1])
    assert lo <= q <= hi


@settings(deadline=None, max_examples=200)
@given(rationals, st.integers(min_value=-(10**50), max_value=10**50),
       st.integers(min_value=1, max_value=10**50))
def test_lower_minus_matches_fraction_arithmetic(q, num, den):
    x = rd.iv_from_fraction(q)
    n, d = rd.lower_minus(x, num, den)
    exact = rd.lower_fraction(x) - Fraction(num, den)
    assert d > 0 and Fraction(n, d) == exact
    assert (n >= 0) == (rd.lower_fraction(x) >= Fraction(num, den))
    assert n / d == float(exact)


def test_lower_minus_large_exponents():
    big = rd.IV.mpf(3) * rd.IV.mpf(2) ** 200  # exact, exp > 0
    n, d = rd.lower_minus(big, 3 * 2**200, 1)
    assert (n, d) == (0, 1)
    n, d = rd.lower_minus(rd.IV.mpf(1), 1, 1)  # exp(0) = 1: the equality case
    assert n == 0


def test_nonfinite_endpoint_refused():
    x = rd.IV.mpf([0, "inf"])
    with pytest.raises(ValueError):
        rd.upper_fraction(x)
    with pytest.raises(ValueError):
        rd.lower_minus(rd.IV.mpf(["-inf", 0]), 1, 1)


def test_interval_context_is_cached_per_precision():
    assert rd.interval_context(rd.DEFAULT_PREC) is rd.IV
    ctx = rd.interval_context(120)
    assert ctx is rd.interval_context(120) and ctx.prec == 120
    assert rd.IV.prec == rd.DEFAULT_PREC
