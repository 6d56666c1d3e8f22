"""The ratio text of scan records: shortest_digits and the notations that
Shard.format writes from its digits, against repr."""

import sys
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nonresidues import _shortest as sh
from nonresidues import scan as sc
from nonresidues._shortest import shortest_digits


def repr_digits(x):
    """(D, E) with D * 10^E = repr(x) and D not divisible by 10."""
    _, digits, exp = Decimal(repr(x)).normalize().as_tuple()
    return int("".join(map(str, digits))), exp


def ratio_texts(xs):
    """The ratio cells of the CSV lines of a shard whose rows hold one
    ratio each, the ratios xs."""
    n = len(xs)
    shard = sc.Shard(p=np.arange(3, 3 + n, dtype=np.int64), d=np.full(n, 2, np.int64),
                     q=np.full((n, 1), 5, np.int64), count=np.ones(n, np.int64),
                     ratio=np.array(xs, dtype=np.float64).reshape(n, 1),
                     ok=np.ones((n, 1), bool))
    return [line.split(",")[3] for line in shard.format("csv").splitlines()]


def _around(v):
    return [float(np.nextafter(v, 0)), v, float(np.nextafter(v, np.inf))]


EDGES = [
    5e-324, 2.2250738585072014e-308, sys.float_info.max, 1e308,
    # integral, and at or past 2^53 and 10^16, where repr switches notation
    1.0, 2.0, 10.0, 100.0, 123456789012345.0, 2.0**52, 2.0**53, 2.0**53 + 2,
    9999999999999998.0, 1e16, 1.2345e16, 1e17, 1e22, 1e23,
    # below 10^-4 (scientific) and below the kernel's range
    1e-4, 1.5e-5, 1e-5, 1e-6, 4.8e-7, 4.7e-7, 1e-7, 1e-8, 4.7e-8, 1e-300,
    0.1, 0.2, 0.3, 1 / 3, 2 / 3, 0.015, 0.02,
    # ties at e = -2 (x in [2^50, 2^51)): repr rounds the 17th digit to even,
    # down for the first and up for the second
    1125899906842624.25, 2179511128021389.75,
    *[x for k in range(-80, 60) for x in _around(2.0**k)],
    *[x for k in range(-26, 24) for x in _around(10.0**k)],
]


def test_interval_sums_need_no_rounding_at_any_exponent():
    # with 0 <= lo < 1 a multiple of 2^(k+e), lo + wh, lo - wh and (below a
    # power of two) lo - wh/2 are multiples of 2^s for s = k+e-1, k+e-1 and
    # k+e-2, and below 2^(53+s) in size, so exact doubles: no sum near an
    # integer needs a margin
    for e in range(sh._E_MIN, 1):
        k = int(sh._K[e - sh._E_MIN])
        assert k <= 22 and 10**k >= 2**-e and (k == 0 or 10 ** (k - 1) < 2**-e)
        q, wh = k + e, Fraction(10**k, 2 ** (1 - e))
        assert q <= 0  # so the integer hi, and lo, are multiples of 2^q
        for size, s in ((1 + wh, q - 1), (max(wh, 1 - wh), q - 1),
                        (max(wh / 2, 1 - wh / 2), q - 2)):
            assert size < Fraction(2) ** (53 + s)


def test_ratio_text_is_repr_on_edges():
    assert ratio_texts(EDGES) == list(map(repr, EDGES))


finite_positive = st.floats(min_value=0, exclude_min=True, allow_nan=False,
                            allow_infinity=False)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.one_of(finite_positive, st.floats(min_value=4e-7, max_value=2.0**53)),
                min_size=1, max_size=40))
def test_ratio_text_is_repr(xs):
    assert ratio_texts(xs) == list(map(repr, xs))


def test_shortest_digits_are_reprs_on_random_doubles():
    rng = np.random.default_rng(1)
    spread = 10.0 ** rng.uniform(-7, 17, 40_000)
    bits = rng.integers(1, 0x7FF0000000000000, 40_000, dtype=np.int64).view(np.float64)
    for xs in (spread, bits, rng.uniform(0, 0.02, 20_000)):
        digits, exp, sure = shortest_digits(xs)
        assert [(d, e) for d, e, s in zip(digits.tolist(), exp.tolist(), sure) if s] == [
            repr_digits(x) for x, s in zip(xs.tolist(), sure) if s]
        assert ratio_texts(xs) == list(map(repr, xs.tolist()))
    # only values outside [4.8e-7, 2^53) and ties (half of [2^50, 2^51),
    # 0.7% of this spread) are left to repr
    inside = (spread >= 2.0**-21) & (spread < 2.0**53)
    assert shortest_digits(spread)[2][inside].mean() > 0.98


def test_shortest_digits_leave_what_they_cannot_certify_to_repr():
    xs = [5e-324, 2.2250738585072014e-308, 4.7e-7, 2.0**53, 1e300,
          1125899906842624.25, 2179511128021389.75, 0.0, -1.0, np.inf, np.nan]
    assert not shortest_digits(np.array(xs))[2].any()
    assert shortest_digits(np.array([4.8e-7, 0.5, 2.0**53 - 1]))[2].all()


@pytest.mark.parametrize("make_task, cells", [
    (lambda: sc.ScanTask.make(10**7, 10**7 + 2 * 10**5 - 1, n_max=1, shard_width=10_000),
     12_391),
    (lambda: sc.ScanTask.make(10**12, 10**12 + 9999, n_max=3, shard_width=1000,
                              policy=sc.OrderPolicy.divisors_up_to(12)),
     3_927),
], ids=["scan-quadratic", "scan-orders"])
def test_benchmark_ratios_take_no_repr(make_task, cells):
    # the benchmark scans' seed-0 ranges: every ratio is written from its
    # certified digits, none by repr
    task = make_task()
    batch = sc._compute_batch(task, range(task.shard_count))
    ratios = batch.ratio[np.arange(task.n_max) < batch.count[:, None]]
    assert len(ratios) == cells
    assert shortest_digits(ratios)[2].all()
