import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mpmath.libmp import mpf_mul, round_floor

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
    lo, hi = rd.lower(x), rd.upper(x)
    assert lo[1] > 0 and hi[1] > 0
    assert lo == rd.ratio(x._mpi_[0]) and Fraction(*lo) == _reference_fraction(x._mpi_[0])
    assert Fraction(*hi) == _reference_fraction(x._mpi_[1])
    assert Fraction(*lo) <= q <= Fraction(*hi)


ratios = st.tuples(st.integers(min_value=-(10**50), max_value=10**50),
                   st.integers(min_value=1, max_value=10**50))


@settings(deadline=None, max_examples=300)
@given(ratios, ratios)
def test_minus_and_certify_match_fraction_arithmetic(x, y):
    n, d = rd.minus(x, y)
    exact = Fraction(*x) - Fraction(*y)
    assert d > 0 and Fraction(n, d) == exact
    assert rd.to_float(n, d) == float(exact)
    assert rd.certify(y, x) == (Fraction(*y) <= Fraction(*x), float(exact))


@settings(deadline=None, max_examples=200)
@given(rationals, st.integers(min_value=-(10**50), max_value=10**50),
       st.integers(min_value=1, max_value=10**50))
def test_certify_against_an_endpoint_matches_fraction_arithmetic(q, num, den):
    # the form every lemma uses: an exact side against a raw endpoint
    lo = Fraction(*rd.lower(rd.iv_from_fraction(q)))
    assert rd.certify((num, den), rd.lower(rd.iv_from_fraction(q))) == (
        Fraction(num, den) <= lo, float(lo - Fraction(num, den)))


@settings(deadline=None, max_examples=200)
@given(st.integers(min_value=-(10**400), max_value=10**400),
       st.integers(min_value=1, max_value=10**400))
def test_to_float_rounds_like_fraction_and_clamps(n, d):
    try:
        want = float(Fraction(n, d))
    except OverflowError:
        want = math.inf if n > 0 else -math.inf
    assert rd.to_float(n, d) == want
    assert rd.to_float(10**400, 1) == math.inf and rd.to_float(-(10**400), 3) == -math.inf


def test_ratio_large_exponents():
    big = rd.IV.mpf(3) * rd.IV.mpf(2) ** 200  # exact, exp > 0
    assert rd.lower(big) == (3 * 2**200, 1)
    assert rd.certify((3 * 2**200, 1), rd.lower(big)) == (True, 0.0)
    assert rd.certify((3 * 2**200 + 1, 1), rd.lower(big))[0] is False
    tiny = rd.IV.mpf(3) / rd.IV.mpf(2) ** 300  # exact, exp < 0
    assert rd.lower(tiny) == (3, 2**300)
    one = rd.ratio(rd.IV.mpf(1)._mpi_[0])  # exp(0) = 1: the equality case
    assert rd.certify((1, 1), one) == (True, 0.0)
    assert rd.ratio(rd.IV.mpf(0)._mpi_[0]) == (0, 1)


def test_nonfinite_endpoint_refused():
    x = rd.IV.mpf([0, "inf"])
    with pytest.raises(ValueError):
        rd.upper(x)
    with pytest.raises(ValueError):
        rd.ratio(rd.IV.mpf(["-inf", 0])._mpi_[0])


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


def test_fixed_log_rounds_each_way_within_one_unit():
    ctx = rd.interval_context(256)
    for n in [*range(1, 300), 10**6 + 3, 8_800_000]:
        exact = ctx.log(ctx.mpf(n))
        lo, hi = Fraction(*rd.lower(exact)), Fraction(*rd.upper(exact))
        for bits in (0, 1, 64, 128):
            down, up = rd.fixed_log(n, bits), rd.fixed_log(n, bits, up=True)
            scale = 2**bits
            assert down <= lo * scale and up >= hi * scale, (n, bits)
            assert hi * scale - down < 1 + Fraction(1, 2**28), (n, bits)
            assert up - lo * scale < 1 + Fraction(1, 2**28), (n, bits)
    assert rd.fixed_log(1, 128) == rd.fixed_log(1, 128, up=True) == 0


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


def _dyadic(raw):
    """A positive raw endpoint (0, man, exp, bc) as the dyadic (man, exp)."""
    sign, man, exp, _ = raw
    assert not sign and man > 0
    return int(man), exp


def _dyadic_value(x):
    man, exp = x
    return Fraction(man) * Fraction(2) ** exp


def test_lower_exp_is_the_interval_exp_endpoint():
    qs = [Fraction(16 * j, 3 * h) for h in range(1, 201) for j in range(h // 8 + 1)]
    qs += [Fraction(16 * 200 * j, 3 * 200) for j in range(26)]  # exp >= 0 in the chain
    qs += [Fraction(n, d) for n, d in ((1, 10**30), (2**96 + 1, 2**97 - 1), (0, 1))]
    for q in qs:
        assert rd.lower_exp(q) == rd.IV.exp(rd.iv_from_fraction(q))._mpi_[0], q
    ctx, q = rd.interval_context(150), Fraction(7, 3)
    assert rd.lower_exp(q, 150) == ctx.exp(rd.iv_from_fraction(q, ctx))._mpi_[0]


def test_lower_product_is_the_chained_interval_product():
    # the convexity sweep's powers exp(16j/(3h))^r, h <= 40 and r <= 200, so
    # that the chain reaches endpoints with exp >= 0
    seen_exps = set()
    for h in range(1, 41):
        for j in range(h // 8 + 1):
            base = rd.IV.exp(rd.IV.mpf(16 * j) / (3 * h))
            rhs, lo = rd.IV.mpf(1), _dyadic(base._mpi_[0])
            for r in range(1, 201):
                rhs = rhs * base
                assert _dyadic_value(lo) == _reference_fraction(rhs._mpi_[0]), (h, j, r)
                seen_exps.add(lo[1] >= 0)
                lo = rd.lower_product(lo, _dyadic(base._mpi_[0]))
    assert seen_exps == {True, False}


def test_lower_product_exact_and_wide_operands():
    # a product within 96 bits needs no rounding and is kept exactly
    assert rd.lower_product((3, -2), (5, 7)) == (15, 5)
    assert rd.lower_product((2**48 - 1, 0), (2**48 + 1, 3)) == (2**96 - 1, 3)
    # one bit over: the low bit is cut, rounding down
    assert rd.lower_product((2**48 + 1, 0), (2**48 + 1, 0)) == (2**95 + 2**48, 1)
    # a mantissa with trailing zeros rounds to the same value mpmath gives
    x, y = (3 << 90, -100), (5**40, 4)
    got = rd.lower_product(x, y)
    want = mpf_mul((0, 3, -10, 2), (0, 5**40, 4, (5**40).bit_length()), 96, round_floor)
    assert _dyadic_value(got) == _reference_fraction(want)


positive = rationals.filter(lambda q: q > 0)


@settings(deadline=None, max_examples=300)
@given(positive, positive, st.integers(min_value=-400, max_value=400))
def test_lower_product_matches_on_random_positive_intervals(q1, q2, shift):
    # shift moves x so that endpoints and products with exp >= 0 occur
    x = rd.iv_from_fraction(q1) * rd.IV.mpf(2) ** shift
    y = rd.iv_from_fraction(q2)
    got = rd.lower_product(_dyadic(x._mpi_[0]), _dyadic(y._mpi_[0]))
    assert _dyadic_value(got) == _reference_fraction((x * y)._mpi_[0])
    assert got[0].bit_length() <= rd.DEFAULT_PREC


@settings(deadline=None, max_examples=300)
@given(st.integers(min_value=-(10**60), max_value=10**60),
       st.integers(min_value=1, max_value=10**60),
       st.integers(min_value=1, max_value=2**96),
       st.integers(min_value=-300, max_value=300))
def test_certify_dyadic_is_certify_against_the_endpoint(n, d, man, exp):
    # the same verdict and slack bits as certify against ratio's reading
    want = rd.certify((n, d), rd.ratio((0, man, exp, man.bit_length())))
    got = rd.certify_dyadic((n, d), (man, exp))
    assert (got[0], got[1].hex()) == (want[0], want[1].hex())
    # an exact tie is an equality, with slack 0
    assert rd.certify_dyadic((man * 2**max(exp, 0), 2**max(-exp, 0)), (man, exp)) == (True, 0.0)
