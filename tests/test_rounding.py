import random
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
    n, d = rd.lower_minus(x._mpi_[0], num, den)
    exact = rd.lower_fraction(x) - Fraction(num, den)
    assert d > 0 and Fraction(n, d) == exact
    assert (n >= 0) == (rd.lower_fraction(x) >= Fraction(num, den))
    assert n / d == float(exact)


def test_lower_minus_large_exponents():
    big = rd.IV.mpf(3) * rd.IV.mpf(2) ** 200  # exact, exp > 0
    n, d = rd.lower_minus(big._mpi_[0], 3 * 2**200, 1)
    assert (n, d) == (0, 1)
    n, d = rd.lower_minus(rd.IV.mpf(1)._mpi_[0], 1, 1)  # exp(0) = 1: the equality case
    assert n == 0


def test_nonfinite_endpoint_refused():
    x = rd.IV.mpf([0, "inf"])
    with pytest.raises(ValueError):
        rd.upper_fraction(x)
    with pytest.raises(ValueError):
        rd.lower_minus(rd.IV.mpf(["-inf", 0])._mpi_[0], 1, 1)


def test_interval_context_is_cached_per_precision():
    assert rd.interval_context(rd.DEFAULT_PREC) is rd.IV
    ctx = rd.interval_context(120)
    assert ctx is rd.interval_context(120) and ctx.prec == 120
    assert rd.IV.prec == rd.DEFAULT_PREC


# The raw endpoint helpers against the interval expressions they replace,
# rounding for rounding.


def test_lower_log_is_the_interval_log_endpoint():
    xs = [Fraction(k, 10) for k in range(1, 2001)]
    xs += [Fraction(n, d) for n, d in ((1, 10**30), (10**40 + 7, 3), (2**96 + 1, 2**97 - 1))]
    for x in xs:
        assert rd.lower_log(x) == rd.IV.log(rd.iv_from_fraction(x))._mpi_[0], x


def test_lower_log_rounds_wide_operands_like_the_interval():
    # numerators and denominators wider than the 96-bit precision are
    # rounded outward before the quotient
    rng = random.Random(7)
    for _ in range(2000):
        q = Fraction(rng.getrandbits(rng.randint(60, 200)) | 1,
                     rng.getrandbits(rng.randint(60, 200)) | 1)
        assert rd.lower_log(q) == rd.IV.log(rd.iv_from_fraction(q))._mpi_[0], q


@settings(deadline=None, max_examples=300)
@given(rationals.filter(lambda q: q > 0))
def test_lower_log_matches_on_random_rationals(q):
    assert rd.lower_log(q) == rd.IV.log(rd.iv_from_fraction(q))._mpi_[0]
    ctx = rd.interval_context(150)
    assert rd.lower_log(q, 150) == ctx.log(rd.iv_from_fraction(q, ctx))._mpi_[0]


def test_lower_product_is_the_chained_interval_product():
    # the convexity sweep's powers exp(16j/(3h))^r, h, r <= 40
    for h in range(1, 41):
        for j in range(h // 8 + 1):
            base = rd.IV.exp(rd.IV.mpf(16 * j) / (3 * h))
            rhs, lo = rd.IV.mpf(1), base._mpi_[0]
            for r in range(1, 41):
                rhs = rhs * base
                assert lo == rhs._mpi_[0], (h, j, r)
                lo = rd.lower_product(lo, base._mpi_[0])


@settings(deadline=None, max_examples=200)
@given(rationals.filter(lambda q: q > 0), rationals.filter(lambda q: q > 0))
def test_lower_product_matches_on_random_positive_intervals(q1, q2):
    x, y = rd.iv_from_fraction(q1), rd.iv_from_fraction(q2)
    assert rd.lower_product(x._mpi_[0], y._mpi_[0]) == (x * y)._mpi_[0]
