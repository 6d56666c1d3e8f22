import math
import tracemalloc

import mpmath
import pytest
from hypothesis import given, strategies as st

from nonresidues import bounds as bd

from table1_data import P0_EXPONENTS, TABLE1


# Expected values frozen from an independent 60-digit mpmath evaluation of
# the closed forms (closed_form below is such an evaluation, at 50 digits).
def closed_form(n, p):
    """(X*, f(X*), g) at (n, p) from the module docstring's formulas, in
    mpmath at 50 digits; f(X*) is None unless X* > 1, and g is None unless
    f(X*) > 0 and 2B log p > 3."""
    with mpmath.workdps(50):
        n, p = mpmath.mpf(n), mpmath.mpf(p)
        logp, ratio = mpmath.log(p), (n + 1) / n
        xstar = (mpmath.pi / 3 / mpmath.sqrt(2 * mpmath.e) * ratio ** (n - 1)
                 * p ** mpmath.mpf(0.25) / logp ** ((n - 1) / 2)
                 * (1 - ratio * mpmath.exp(-1 / n) / logp))
        if xstar <= 1:
            return xstar, None, None
        f = 1 - mpmath.pi ** 2 / 9 * (mpmath.log(xstar) + 9) / (3 * xstar)
        sqrt_den = 2 * n / (2 * (n + 1)) * logp - 3
        if f <= 0 or sqrt_den <= 0:
            return xstar, f, None
        g = (mpmath.pi / 3 * mpmath.sqrt(2 * mpmath.e) * n / (n + 1)
             * mpmath.sqrt((1 + mpmath.sqrt(2) / sqrt_den) / f))
        return xstar, f, g


def test_xstar_values():
    assert float(bd.enclose_g(1, 10**7)[0].mid) == pytest.approx(24.103215, abs=0.01)
    xstar = bd.enclose_g(3, 10**7)[0]
    assert float(xstar.mid) == pytest.approx(2.6205565, abs=0.01)
    assert xstar.b < 3.8  # the dash at that grid point


def test_xstar_diverges_like_p_quarter():
    # ratio X*(1, p) / p^(1/4) tends to a positive constant
    r1 = float(bd.enclose_g(1, 10**12)[0].mid) / 1e3
    r2 = float(bd.enclose_g(1, 10**20)[0].mid) / 1e5
    assert r2 == pytest.approx(math.pi / 3 / math.sqrt(2 * math.e), rel=0.05)
    assert abs(r2 - r1) < 0.05


def test_reference_g_table_anchors():
    assert bd.reference_g(1, 1e7)[0] == pytest.approx(1.530, abs=1e-3)
    assert bd.reference_g(2, 1e8)[0] == pytest.approx(2.070, abs=1e-3)
    assert bd.reference_g(5, 1e15)[0] == pytest.approx(6.469, abs=1e-3)
    assert bd.reference_g(8, 1e30)[0] == pytest.approx(2.745, abs=1e-3)


def test_reference_g_at_a_huge_n0_takes_no_memory_linear_in_n0():
    # X* at n0 = 10^9 is about 2^-10^9: its lower end must be compared with
    # 3.8 without building an integer of 10^9 bits (about 800 MB before)
    tracemalloc.start()
    try:
        assert bd.reference_g(10**9, 1e7) == (None, (bd.COND_XSTAR, bd.COND_P0_EXP8N))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_above_decides_on_the_exact_lower_endpoint():
    third = bd.IV.mpf(1) / 3  # its lower end lies just below 1/3
    assert not bd._above(third, (1, 3)) and bd._above(third, (1, 4))
    assert bd._above(third, (333, 1000)) and not bd._above(third, (334, 1000))
    assert bd._above(bd.IV.mpf(2)) and not bd._above(bd.IV.mpf([-1, 2]))
    assert not bd._above(bd.IV.mpf(2), (2, 1)) and bd._above(bd.IV.mpf(2), (399, 200))


def test_reference_g_invalid_point_reports_conditions():
    assert bd.reference_g(3, 1e7) == (None, (bd.COND_XSTAR,))
    xstar, f_at_xstar, g = bd.enclose_g(3, 10**7)
    assert float(xstar.mid) == pytest.approx(2.6205565, abs=1e-3)
    # f(X*) < 0 there, so no g can be enclosed
    assert f_at_xstar.b < 0 and g is None


def test_small_p_fails_log_condition():
    g, failed = bd.reference_g(1, 100.0)
    assert g is None and bd.COND_P0_MIN in failed
    assert (1, bd.COND_LOGP_EXP) in bd.certify_freeze(1, 100, 2.0).failed


def test_g_exceeds_its_leading_factor():
    # numerator > 1 and denominator < 1 force g above (pi/3)sqrt(2e) n/(n+1)
    for n in (1, 2, 3, 5, 8):
        for e in (10, 15, 20, 35):
            if bd.reference_g(n, 10**e)[0] is None:
                continue
            floor = math.pi / 3 * math.sqrt(2 * math.e) * n / (n + 1)
            assert bd.enclose_g(n, 10**e)[2].a > floor


def test_compute_bound_values():
    assert bd.compute_bound(1, 1e7, 1.530) == pytest.approx(1386.8, abs=0.5)
    assert bd.compute_bound(1, math.e**4, 1.0) == pytest.approx(10.873127, abs=1e-3)
    with pytest.raises(ValueError):
        bd.compute_bound(1, 1e7, 0.0)
    with pytest.raises(ValueError):
        bd.compute_bound(1, 1e7, -1.0)
    with pytest.raises(ValueError):
        bd.compute_bound(1, 1e7, math.inf)
    with pytest.raises(ValueError, match="overflows"):
        bd.compute_bound(1000, 1e7, 1.53)


def _bound_50_digits(n, p, c):
    with mpmath.workdps(50):
        return mpmath.mpf(c) * mpmath.mpf(p) ** 0.25 * mpmath.log(p) ** ((n + 1) / 2)


def test_compute_bound_is_the_least_double_at_or_above_the_product():
    # the double product c p^(1/4) log p printed 10173.012119050003 at this
    # witness, below the product 10173.01211905000326...
    c = bd.reference_g(1, 1e10)[0]
    points = [(1, 80e9 / 7)] + [(n, 1e10 * 1.07**k) for n in (1, 2, 3) for k in range(60)]
    for n, p in points:
        b = bd.compute_bound(n, p, c)
        exact = _bound_50_digits(n, p, c)
        assert math.nextafter(b, 0) < exact <= b, (n, p)
    assert bd.compute_bound(1, 80e9 / 7, c) == 10173.012119050005


def test_reference_g_conditions():
    g, failed = bd.reference_g(1, 1e7)
    assert g is not None and failed == ()
    g, failed = bd.reference_g(4, 1e10)
    assert g is None and bd.COND_P0_EXP8N in failed
    g, failed = bd.reference_g(1, 1e6)
    assert g is None and bd.COND_P0_MIN in failed


def test_make_table_matches_published_values():
    n0s = list(range(1, 9))
    p0s = [10.0**e for e in P0_EXPONENTS]
    table = bd.make_table(n0s, p0s)
    for row in table:
        for cell in row:
            expected = TABLE1[cell.n0][P0_EXPONENTS.index(round(math.log10(cell.p0)))]
            if expected is None:
                assert cell.g is None, f"expected dash at {cell}"
                assert cell.failed_conditions
            else:
                assert cell.g == pytest.approx(expected, abs=1e-3), cell


def test_table_renderings():
    table = bd.make_table([1], [1e7])
    text = bd.render_table_text(table)
    assert "1.530" in text  # rounded up, as published
    csv = bd.render_table_csv(table)
    assert csv.splitlines()[0] == "n0,1e7"
    assert csv.splitlines()[1] == "1,1.530"
    obj = bd.table_to_json_obj(table)
    assert obj[0]["n0"] == 1 and obj[0]["g"] == pytest.approx(1.5294789, abs=1e-6)
    dash = bd.make_table([3], [1e7])
    assert bd.render_table_csv(dash).splitlines()[1] == "3,-"


def test_certify_freeze_cases():
    cert = bd.certify_freeze(1, 10**7, 1.530)
    assert cert.ok and cert.failed == () and cert.min_slack_n == 1
    assert 0 < cert.min_slack < 1e-3  # g(1, 10^7) = 1.52948
    # g(7, 10^25) = 2.91598 exceeds 2.915; n <= 6 stay below it
    below = bd.certify_freeze(7, 10**25, 2.915)
    assert not below.ok and below.failed == ((7, bd.COND_G_LE_C),)
    assert below.min_slack_n == 7 and -1e-3 < below.min_slack < 0
    # X*(3, 10^7) = 2.62: invalid, and f(X*) < 0 leaves g unenclosed
    dash = bd.certify_freeze(3, 10**7, 7.170)
    assert not dash.ok
    assert dash.failed == ((3, bd.COND_XSTAR), (3, bd.COND_G_LE_C))
    assert bd.certify_freeze(1, 10**6, 2.0).failed == (
        (1, bd.COND_P0_MIN), (1, bd.COND_LOGP_EXP))


def test_burgess_params_example():
    bp = bd.burgess_params(1, 1e7)
    assert bp.a == pytest.approx(math.e / 2, rel=1e-12)
    assert bp.b == 0.25
    assert bp.h == 22 and bp.r == 4
    assert bp.identity_error < 1e-9


def test_burgess_params_exact_log():
    bp = bd.burgess_params(2, math.e**12)
    assert bp.b == pytest.approx(1 / 3, rel=1e-12)
    assert bp.r == 4


def test_burgess_params_identity_grid():
    for n in range(1, 13):
        for e in (7, 9, 12, 20, 35):
            bp = bd.burgess_params(n, 10.0**e)
            assert bp.identity_error < 1e-9
            assert 0 < bp.b < 0.5
            assert 1 <= bp.r <= 9 * bp.h


def test_burgess_params_too_small_p():
    with pytest.raises(ValueError):
        bd.burgess_params(1, 2.0)  # floor(B log p) = 0


def test_closed_form_at_50_digits_lies_in_its_enclosure_on_table_grid():
    # p is exactly 10^e on both sides; 50 digits err by far less than the
    # 96-bit enclosures' widths, hence the 1e-40 relative margin
    for n0 in range(1, 9):
        for e in P0_EXPONENTS:
            exact = closed_form(n0, 10**e)
            enclosed = bd.enclose_g(n0, 10**e)
            assert [x is None for x in exact] == [iv is None for iv in enclosed]
            for x, iv in zip(exact, enclosed):
                if x is not None:
                    margin = abs(x) * mpmath.mpf(10) ** -40
                    assert iv.a - margin <= x <= iv.b + margin, (n0, e)
            g, failed = bd.reference_g(n0, 10**e)
            if g is not None:  # the least double at or above the enclosure
                assert exact[2] <= g and math.nextafter(g, 0) < enclosed[2].b
                assert exact[2] * (1 + 1e-15) > g, (n0, e)


@given(st.integers(min_value=1, max_value=12), st.floats(min_value=10.0, max_value=80.0))
def test_f_at_xstar_in_unit_interval_when_valid(n, logp):
    p = math.exp(logp)
    if bd.reference_g(n, p)[0] is not None:
        f_at_xstar = bd.enclose_g(n, p)[1]
        assert 0 < f_at_xstar.a and f_at_xstar.b < 1


def test_input_validation():
    with pytest.raises(ValueError):
        bd.reference_g(0, 1e7)
    with pytest.raises(ValueError):
        bd.reference_g(1, 1.0)
    with pytest.raises(ValueError):
        bd.enclose_g(2, 0.5)


def test_ceil_3dp_never_rounds_below_its_argument():
    # ceil(g * 1000 - 1e-9) / 1000 once returned 1.53 and 0.043, below g
    assert bd.ceil_3dp(1.530 + 4e-13) == 1.531
    assert bd.ceil_3dp(math.nextafter(0.043, 1)) == 0.044  # g * 1000 rounds to 43
    assert bd.ceil_3dp(math.nextafter(1.53, 2)) == 1.531
    assert bd.ceil_3dp(1.53) == 1.53 and bd.ceil_3dp(math.nextafter(1.53, 0)) == 1.53
    assert bd.ceil_3dp(2.007) == 2.007  # g * 1000 rounds above 2007
    # ScanTask's ceiling g + 0.001 has no allowance for rounding: met also
    # for g just past k/1000
    for g in [math.nextafter(k / 1000, 99) for k in range(1000, 16_000)]:
        assert bd.ceil_3dp(g) <= g + 0.001, g


@given(st.floats(min_value=1e-3, max_value=1e6))
def test_ceil_3dp_is_the_least_3_decimal_double_at_or_above(g):
    c = bd.ceil_3dp(g)
    k = round(c * 1000)
    assert c == k / 1000 and c >= g and (k - 1) / 1000 < g and c <= g + 0.001
