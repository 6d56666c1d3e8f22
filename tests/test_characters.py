import importlib
import math
import pkgutil
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nonresidues
from nonresidues import primes as pr
from nonresidues.characters import (
    CharacterSpec,
    SearchCapExceededError,
    find_primitive_root,
    is_kernel,
    kernel_mask,
    nonresidue_table,
    prime_nonresidues,
    root_values,
)


def brute_force_order(a, p):
    x, k = a % p, 1
    while x != 1:
        x = x * a % p
        k += 1
    return k


def test_find_primitive_root_examples():
    assert find_primitive_root(7) == 3
    assert find_primitive_root(5) == 2
    assert find_primitive_root(3) == 2


def test_find_primitive_root_is_least_generator():
    for p in map(int, pr.sieve(200)):
        if p == 2:
            continue
        g = find_primitive_root(p)
        assert brute_force_order(g, p) == p - 1
        for smaller in range(2, g):
            assert brute_force_order(smaller, p) < p - 1


def test_find_primitive_root_rejects():
    with pytest.raises(ValueError):
        find_primitive_root(2)
    with pytest.raises(ValueError):
        find_primitive_root(10)


def test_find_primitive_root_refuses_p_minus_1_beyond_factorize_limit():
    p = 2**40 + 15  # the least prime above 2^40
    assert pr.is_prime(p) and p - 1 >= pr.FACTORIZE_LIMIT
    with pytest.raises(ValueError):
        find_primitive_root(p)
    with pytest.raises(ValueError):
        CharacterSpec(p=p, d=2, g=3)


def test_primitive_root_search_and_validation_agree():
    # a spec accepts exactly the generators, the least of which is the root
    for p in (3, 7, 31, 97, 101):
        roots = [g for g in range(1, p) if brute_force_order(g, p) == p - 1]
        assert find_primitive_root(p) == roots[0]
        for g in range(1, p):
            if g in roots:
                CharacterSpec(p=p, d=p - 1, g=g)
            else:
                with pytest.raises(ValueError):
                    CharacterSpec(p=p, d=p - 1, g=g)


@pytest.mark.parametrize("module", ["nonresidues"] + [
    f"nonresidues.{m.name}" for m in pkgutil.iter_modules(nonresidues.__path__)
])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"{module}.__all__ lists missing {name!r}"


def test_character_spec_validation():
    with pytest.raises(ValueError):
        CharacterSpec.of_order(7, 4)  # 4 does not divide 6
    with pytest.raises(ValueError):
        CharacterSpec.of_order(9, 2)  # 9 not prime
    with pytest.raises(ValueError):
        CharacterSpec(p=7, d=2, g=2)  # 2 is not a primitive root mod 7
    for g in (0, 7, -14):  # g^e = 0, never 1, but 0 generates nothing
        with pytest.raises(ValueError):
            CharacterSpec(p=7, d=2, g=g)
    with pytest.raises(ValueError):
        CharacterSpec(p=7, d=4, g=3)  # 4 does not divide 6, with g given
    assert CharacterSpec(p=7, d=3, g=3).m == 2  # m is (p-1)/d, not a field


def test_every_character_of_order_d_comes_from_some_primitive_root():
    # a spec has no exponent m: chi(g0^k) = e^(2 pi i m k/(p-1)) of order
    # (p-1)/gcd(m, p-1) = d is chi(g^k) = e^(2 pi i k/d) for some root g
    for p in map(int, pr.sieve(100)[1:]):
        g0 = find_primitive_root(p)
        roots = [g for g in range(2, p) if brute_force_order(g, p) == p - 1]
        for d in (d for d in range(2, p) if (p - 1) % d == 0):
            by_root = {tuple(CharacterSpec(p=p, d=d, g=g).t_table) for g in roots}
            by_m = set()
            for m in (m for m in range(p - 1) if (p - 1) // math.gcd(m, p - 1) == d):
                t = [-1] * p
                for k in range(p - 1):
                    t[pow(g0, k, p)] = m * k * d // (p - 1) % d
                by_m.add(tuple(t))
            assert by_root == by_m, (p, d)


def _power_loop_t_tables(p, g, orders):
    """The t-table of each order d by one pass over the powers of g, as
    CharacterSpec built it before its discrete-log table: t = k mod d at
    g^k, -1 at 0."""
    powers = [1] * (p - 1)  # g^k mod p
    for k in range(1, p - 1):
        powers[k] = powers[k - 1] * g % p
    tables = []
    for d in orders:
        table = np.full(p, -1, dtype=np.int64)
        table[powers] = np.arange(p - 1, dtype=np.int64) % d
        tables.append(table)
    return tables


def test_t_table_matches_the_power_loop():
    # every odd p <= 3000 and d | p-1: alone and as one family per p, whose
    # tables come from one discrete-log table and are set at once
    pairs = 0
    for p in map(int, pr.primes_upto(3000)[1:]):
        orders = pr.divisors(p - 1)[1:]
        family = CharacterSpec.family(p, orders)
        assert CharacterSpec.family(p) == family  # every order d >= 2 by default
        g = find_primitive_root(p)
        for d, member, want in zip(orders, family, _power_loop_t_tables(p, g, orders)):
            for spec in (member, CharacterSpec.of_order(p, d)):
                assert (spec.p, spec.d, spec.g) == (p, d, g)
                t = spec.t_table
                assert t.dtype == np.int64 and not t.flags.writeable, (p, d)
                assert t[0] == -1 and np.array_equal(t, want), (p, d)
            assert "t_table" in vars(member)  # set by family, not built on use
            pairs += 1
        with pytest.raises(ValueError, match="not a primitive root"):
            CharacterSpec(p=p, d=2, g=g * g % p)  # a square never generates
    assert pairs > 4000
    assert CharacterSpec.family(7, []) == []


def test_root_validation_follows_the_modulus():
    # 2 is a primitive root mod 5 and 11 but not mod 7: the root test kept
    # for the last modulus never answers for another
    for p, ok in ((5, True), (7, False), (11, True), (7, False), (5, True)):
        if ok:
            assert CharacterSpec(p=p, d=2, g=2).g == 2
        else:
            with pytest.raises(ValueError, match="not a primitive root"):
                CharacterSpec(p=p, d=2, g=2)


def test_discrete_log_table_refuses_moduli_past_int64_products():
    # 2^31 + 11 is prime; the refusal comes before any table is allocated
    spec = CharacterSpec.of_order(2**31 + 11, 2)
    with pytest.raises(ValueError, match="p < 2\\^31"):
        spec.t_table


def test_char_value_quadratic_mod_7():
    spec = CharacterSpec.of_order(7, 2)
    squares = {a * a % 7 for a in range(1, 7)}
    assert squares == {1, 2, 4}
    assert spec.t_table[3] == 1
    assert spec.t_table[0] == -1 and spec.values[0] == 0
    assert spec.t_table[1] == 0
    for a in range(1, 7):
        assert (spec.t_table[a] == 0) == (a in squares)
        assert spec.values[a] == (1 if a in squares else -1)


def test_char_value_multiplicative():
    for p in map(int, pr.sieve(100)):
        if p == 2:
            continue
        for d in pr.divisors(p - 1):
            if d < 2:
                continue
            t = CharacterSpec.of_order(p, d).t_table
            a = np.arange(1, p)
            lhs = t[np.outer(a, a) % p]
            assert np.array_equal(lhs, (t[a, None] + t[None, a]) % d)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([int(p) for p in pr.sieve(500) if p > 2]), st.data())
def test_char_value_multiplicative_sampled(p, data):
    ds = [d for d in pr.divisors(p - 1) if d >= 2]
    d = data.draw(st.sampled_from(ds))
    a = data.draw(st.integers(min_value=1, max_value=p - 1))
    b = data.draw(st.integers(min_value=1, max_value=p - 1))
    spec = CharacterSpec.of_order(p, d)
    t = spec.t_table
    assert t[a * b % p] == (t[a] + t[b]) % d
    assert abs(spec.values[a * b % p] - spec.values[a] * spec.values[b]) < 1e-12


def test_character_has_exact_order():
    for p, d in ((7, 2), (7, 3), (7, 6), (11, 5), (13, 4), (31, 15)):
        spec = CharacterSpec.of_order(p, d)
        values = set(spec.t_table[1:].tolist())
        assert values == set(range(d))  # all of Z/d is hit
        # exact order: some value is a primitive d-th root exponent
        assert any(math.gcd(t, d) == 1 for t in values)


def test_is_kernel_examples():
    assert is_kernel(7, 2, 2) is True  # 2^3 = 8 = 1 mod 7
    assert is_kernel(7, 2, 3) is False  # 3^3 = 27 = 6 mod 7
    assert is_kernel(101, 4, 1) is True
    with pytest.raises(ValueError):
        is_kernel(7, 4, 2)
    with pytest.raises(ValueError):
        is_kernel(7, 2, 14)


def test_is_kernel_matches_char_value():
    for p, d in ((13, 2), (13, 3), (13, 12), (29, 7)):
        spec = CharacterSpec.of_order(p, d)
        for q in range(1, p):
            assert is_kernel(p, d, q) == (spec.t_table[q] == 0) == (spec.values[q] == 1)


def _chi_from_definition(spec):
    """chi(0), ..., chi(p-1) straight from chi(g^k) = e^(2 pi i m k/(p-1)),
    without t_table: for d > 2, e^(2 pi i e/(p-1)) with e = m k mod p-1,
    from mpmath at 113 bits (one call per distinct e), rounded to complex.
    2e/(p-1) and 2t/d are one rational, so their 113-bit quotients agree."""
    p = spec.p
    out, roots = [0] * p, {}
    for k in range(p - 1):
        e = spec.m * k % (p - 1)
        if e not in roots:
            if spec.d == 2:
                roots[e] = 1 if e == 0 else -1
            else:
                with mpmath.workprec(113):
                    roots[e] = complex(mpmath.expjpi(mpmath.mpf(2 * e) / (p - 1)))
        out[pow(spec.g, k, p)] = roots[e]
    return np.array(out, dtype=np.int64 if spec.d == 2 else np.complex128)


def test_root_values_bitwise_against_the_definition():
    pairs = 0
    for p in map(int, pr.primes_upto(400)):
        for d in pr.divisors(p - 1) if p > 2 else ():
            if d < 2:
                continue
            spec = CharacterSpec.of_order(p, d)
            want = _chi_from_definition(spec)
            for got in (root_values(spec.t_table, d), spec.values):
                assert got.dtype == want.dtype, (p, d)
                assert got.tobytes() == want.tobytes(), (p, d)
            pairs += 1
    assert pairs > 500


def test_values_are_one_read_only_table():
    for p, d in ((7, 2), (13, 4)):
        spec = CharacterSpec.of_order(p, d)
        assert spec.values is spec.values  # built once per spec
        assert not spec.values.flags.writeable
        with pytest.raises(ValueError):
            spec.values[1] = 0
        with pytest.raises(ValueError):
            spec.t_table[1] = 0


def test_kernel_density():
    for p, d in ((101, 2), (101, 4), (101, 25), (97, 3), (31, 6)):
        count = sum(1 for a in range(1, p) if is_kernel(p, d, a))
        assert count == (p - 1) // d


def test_prime_nonresidues_examples():
    assert prime_nonresidues(7, 2, 3) == [3, 5, 13]
    assert prime_nonresidues(5, 2, 2) == [2, 3]
    assert prime_nonresidues(7, 2, 0) == []


def test_prime_nonresidues_skips_p_itself():
    # mod 3: every prime != 3 with residue 2 is a nonresidue; 3 is skipped
    q = prime_nonresidues(3, 2, 3)
    assert q == [2, 5, 11]
    assert 3 not in q


@pytest.mark.parametrize("cap", [-1, 0, 1, 2, 97, 2**16, 2**16 + 1, 10**6])
def test_prime_nonresidues_cap_edges(cap):
    # 97 and 65537 = 2^16 + 1 are quadratic nonresidues mod 1033, so a prime
    # cap is itself found; 10^6 is not prime (the last prime below is 999983)
    p, d = 1033, 2
    expected = [q for q in map(int, pr.sieve(max(cap, 0)))
                if q != p and pow(q, (p - 1) // d, p) != 1]
    with pytest.raises(SearchCapExceededError) as exc:
        prime_nonresidues(p, d, len(expected) + 1, search_cap=cap)
    assert exc.value.found == expected
    assert prime_nonresidues(p, d, len(expected), search_cap=cap) == expected
    if cap in (97, 2**16 + 1):
        assert expected[-1] == cap


def test_prime_nonresidues_exhaustive_against_sieve():
    for p in (7, 23, 101, 997):
        got = prime_nonresidues(p, 2, 5)
        assert got == sorted(got) and len(set(got)) == 5
        expected = [
            q for q in map(int, pr.sieve(got[-1]))
            if q != p and not is_kernel(p, 2, q)
        ]
        assert got == expected  # no smaller prime qualifies


def test_prime_nonresidues_large_modulus():
    q = prime_nonresidues(10**6 + 3, 2, 4)
    assert all(pr.is_prime(x) for x in q)
    assert q == sorted(q)


def test_prime_nonresidues_cap():
    with pytest.raises(SearchCapExceededError) as exc:
        prime_nonresidues(1000003, 2, 50, search_cap=20)
    assert exc.value.cap == 20
    assert exc.value.found == prime_nonresidues(1000003, 2, len(exc.value.found))


def test_prime_nonresidues_matches_the_table_row():
    # the scalar walk finds the row nonresidue_table finds, for every order
    # d | p-1 of every odd prime p < 2000 and count <= 4, and at a reached
    # cap reports the partial row in SearchCapExceededError
    rows = all_rows([int(p) for p in pr.sieve(2000)[1:]])
    for count in range(5):
        q, found = nonresidue_table(*map(list, zip(*rows)), count)
        assert (found == count).all()
        for (p, d), row in zip(rows, q.tolist()):
            assert prime_nonresidues(p, d, count) == row, (p, d, count)
    for (p, d), cap in (((1999, 2), 50), ((1999, 3), 2), ((1033, 2), 0), ((7, 6), 3)):
        q, found = nonresidue_table([p], [d], 40, search_cap=cap)
        assert found[0] < 40
        with pytest.raises(SearchCapExceededError) as exc:
            prime_nonresidues(p, d, 40, search_cap=cap)
        assert (exc.value.p, exc.value.d, exc.value.cap) == (p, d, cap)
        assert exc.value.found == q[0, : found[0]].tolist()
        assert prime_nonresidues(p, d, int(found[0]), search_cap=cap) == exc.value.found


def test_prime_nonresidues_validation():
    with pytest.raises(ValueError):
        prime_nonresidues(7, 4, 1)
    with pytest.raises(ValueError):
        prime_nonresidues(7, 2, -1)


# -- the batched kernel and search --------------------------------------------

_SMALL_PRIMES = [int(q) for q in pr.sieve(20_000)]


def pow_loop_nonresidues(p, d, count, cap):
    """Reference search, sharing nothing with the package but the sieve:
    primes q != p up to cap in increasing order, tested by builtin pow."""
    assert cap <= _SMALL_PRIMES[-1]
    out = []
    for q in _SMALL_PRIMES:
        if q > cap or len(out) == count:
            break
        if q != p and pow(q, (p - 1) // d, p) != 1:
            out.append(q)
    return out


def all_rows(primes, d_max=None):
    """(p, d) for every d | p-1 with 2 <= d (<= d_max)."""
    return [(p, d) for p in primes for d in pr.divisors(p - 1)
            if d >= 2 and (d_max is None or d <= d_max)]


def primes_near(center, half_width):
    return [int(p) for p in pr.primes_in_range(center - half_width, center + half_width)]


def check_table(rows, count, cap=10_000):
    p, d = zip(*rows)
    q, found = nonresidue_table(list(p), list(d), count, search_cap=cap)
    assert q.shape == (len(rows), count) and found.shape == (len(rows),)
    for i, (pi, di) in enumerate(rows):
        expected = pow_loop_nonresidues(pi, di, count, cap)
        assert found[i] == len(expected), (pi, di)
        assert q[i, : found[i]].tolist() == expected, (pi, di)
        assert not q[i, found[i] :].any()
    return q, found


@pytest.mark.parametrize("count", [1, 3, 5])
def test_nonresidue_table_small_primes_against_pow_loop(count):
    # every prime in [3, 600] and every order, so that q = p is skipped
    check_table(all_rows([int(p) for p in pr.sieve(600)[1:]]), count)


@pytest.mark.parametrize("count", [1, 3, 5])
def test_nonresidue_table_across_the_int64_switch(count):
    below = [p for p in primes_near(2**31, 400) if p < 2**31]
    above = [p for p in primes_near(2**31, 400) if p > 2**31]
    assert below[-1] == 2147483647 and above[0] == 2147483659
    for primes in (below, above, below + above):
        check_table(all_rows(primes, d_max=12), count)


@pytest.mark.parametrize("count", [1, 3, 5])
def test_nonresidue_table_near_10_to_12(count):
    check_table(all_rows(primes_near(10**12, 300), d_max=12), count)


@pytest.mark.parametrize("cap", [-1, 0, 1, 2, 3, 10, 63, 64, 65, 100, 131])
def test_nonresidue_table_exhausts_its_cap(cap):
    # caps at, below and above the first chunk ends 64 and 128; from 63 on,
    # 30 nonresidues cannot all lie below the cap
    count = 5 if cap <= 10 else 30
    primes = [int(p) for p in pr.sieve(600)[1:]] + primes_near(2**31, 100)
    check_table(all_rows(primes, d_max=12), count, cap=max(cap, 0))
    p, d = zip(*all_rows(primes, d_max=12))
    q, found = nonresidue_table(list(p), list(d), count, search_cap=cap)
    assert (found < count).any()


def test_nonresidue_table_empty_inputs():
    q, found = nonresidue_table([], [], 3)
    assert q.shape == (0, 3) and found.shape == (0,)
    q, found = nonresidue_table([7, 11], [2, 5], 0)
    assert q.shape == (2, 0) and not found.any()


def test_kernel_mask_broadcasts_and_matches_pow():
    for p in (3, 101, 2147483647, 2147483659, 10**12 + 39, 2**50 - 27, 2**50 + 99,
              2**89 - 1):
        for d in (2, 3, 6):
            if (p - 1) % d:
                continue
            a = np.array([x for x in range(1, 200) if x % p])
            got = kernel_mask(p, d, a)
            assert got.shape == a.shape
            assert got.tolist() == [pow(int(x), (p - 1) // d, p) == 1 for x in a]
    p = np.array([[7], [13]])
    d = np.array([[2], [3]])
    got = kernel_mask(p, d, np.arange(1, 7))
    assert got.shape == (2, 6)
    for i in range(2):
        for j, a in enumerate(range(1, 7)):
            assert got[i, j] == is_kernel(int(p[i, 0]), int(d[i, 0]), a)


def test_one_row_calls_keep_their_refusals():
    with pytest.raises(ValueError):
        is_kernel(7, 4, 2)
    with pytest.raises(ValueError):
        prime_nonresidues(7, 1, 2)
    with pytest.raises(SearchCapExceededError) as exc:
        prime_nonresidues(2**89 - 1, 2, 3, search_cap=3)
    assert exc.value.found == pow_loop_nonresidues(2**89 - 1, 2, 3, 3)
    assert is_kernel(2**89 - 1, 2, 5) is (pow(5, 2**88 - 1, 2**89 - 1) == 1)


# -- quadratic cells by reciprocity --------------------------------------------

_FIRST_100 = _SMALL_PRIMES[:100]  # 2, 3, ..., 541


def euler_nonresidues(p, candidates):
    """The candidates q != p that fail Euler's criterion mod p."""
    return [q for q in candidates if q != p and pow(q, (p - 1) // 2, p) != 1]


def check_quadratic_cells(primes, extra_rows=()):
    """Each d = 2 row of one search call, over the first 100 primes with
    room for all of them, lists exactly the candidates that Euler's
    criterion mod p calls nonresidues; extra rows ride in the same call."""
    rows = [(p, 2) for p in primes] + list(extra_rows)
    p, d = zip(*rows)
    q, found = nonresidue_table(list(p), list(d), 100, search_cap=_FIRST_100[-1])
    for i, (pi, di) in enumerate(rows):
        expected = pow_loop_nonresidues(pi, di, 100, _FIRST_100[-1])
        if di == 2:
            assert expected == euler_nonresidues(pi, _FIRST_100)
        assert q[i, : found[i]].tolist() == expected, (pi, di)


def test_quadratic_cells_every_odd_prime_below_3000():
    primes = [int(p) for p in pr.sieve(3000)[1:]]
    assert len(primes) == 429
    check_quadratic_cells(primes)


def test_quadratic_cells_two_in_each_class_mod_8():
    # (2|p) = 1 iff p = +-1 (mod 8); each class, small and large
    for residue in (1, 3, 5, 7):
        small = [p for p in _SMALL_PRIMES[1:200] if p % 8 == residue]
        large = [p for p in primes_near(2**40, 2000) if p % 8 == residue]
        for p in small + large:
            q, found = nonresidue_table([p], [2], 1, search_cap=2)
            assert found[0] == (residue in (3, 5)), p
            assert bool(found[0]) == (pow(2, (p - 1) // 2, p) != 1), p


def _primes_by_is_prime(lo, hi):
    return [x for x in range(lo, hi) if pr.is_prime(x)]


_LARGE_QUADRATIC = {
    "2^31": primes_near(2**31, 300),
    "2^63": _primes_by_is_prime(2**63 - 1000, 2**63),
    "2^89": _primes_by_is_prime(2**89 - 400, 2**89 + 400),
}


@pytest.mark.parametrize("where", sorted(_LARGE_QUADRATIC))
def test_quadratic_cells_large_moduli(where):
    primes = _LARGE_QUADRATIC[where]
    assert len(primes) >= 10 and any(p % 4 == 3 for p in primes)
    assert any(p % 4 == 1 for p in primes)
    if where == "2^31":
        assert min(primes) < 2**31 < max(primes)
    if where == "2^89":
        assert 2**89 - 1 in primes
        assert nonresidue_table(primes, [2] * len(primes), 0)[0].shape == (len(primes), 0)
    check_quadratic_cells(primes)


def test_quadratic_cells_mixed_with_higher_orders():
    # d = 2 rows share each kernel call with d > 2 rows: small p, p near
    # 2^31 and 10^12 (int64) and p = 2^89 - 1 (Python ints)
    small = [int(p) for p in pr.sieve(400)[1:]]
    for primes in (small, primes_near(2**31, 200), primes_near(10**12, 200)):
        higher = [r for r in all_rows(primes, d_max=12) if r[1] > 2]
        assert higher
        check_quadratic_cells(primes, extra_rows=higher)
    m89 = 2**89 - 1  # p - 1 = 2 * 3 * 5 * 17 * 23 * 89 * ..., too large to factorize
    assert all((m89 - 1) % d == 0 for d in (3, 5, 6))
    check_quadratic_cells([m89], extra_rows=[(m89, 3), (m89, 5), (m89, 6)])
    # small rows of every order beside 2^89 - 1, in one Python-int call
    higher = [r for r in all_rows(small[:30], d_max=12) if r[1] > 2]
    check_quadratic_cells(small[:30] + [m89], extra_rows=higher)


@pytest.mark.parametrize("cap", [63, 64, 65, 131])
@pytest.mark.parametrize("count", [1, 3, 30])
def test_nonresidue_table_quadratic_blocks_above_2_31(cap, count):
    # d = 2 rows step in blocks at any p, since every modulus is a candidate
    rows = [(p, 2) for p in (primes_near(2**31, 200) + primes_near(10**12, 200)
                             + _LARGE_QUADRATIC["2^89"])]
    check_table(rows, count, cap=cap)


def test_kernel_mask_keeps_euler_for_composite_q():
    # reciprocity holds for prime q only: kernel_mask and is_kernel stay
    # Euler's criterion mod p, on both sides of 2^31 and of 2^50
    composites = [a for a in range(4, 400) if not pr.is_prime(a)]
    for p in (7, 101, 4391, 2147483647, 2147483659, 10**12 + 39, 2**50 - 27,
              2**50 + 99, 2**89 - 1):
        for d in (2, 3, 6):
            if (p - 1) % d:
                continue
            a = np.array([x for x in composites if x % p])
            want = [pow(int(x), (p - 1) // d, p) == 1 for x in a]
            assert kernel_mask(p, d, a).tolist() == want, (p, d)
            assert [is_kernel(p, d, int(x)) for x in a[:20]] == want[:20]
    # (15|7) = 1, but the Euler test mod 15 of 7 is not +-1
    assert is_kernel(7, 2, 15) and pow(7, 7, 15) not in (1, 14)


def count_kernel_cells(monkeypatch):
    """The list to which every later _kernel call appends its cell count."""
    from nonresidues import characters as ch

    sizes = []
    kernel = ch._kernel

    def counting(p, e, q):
        sizes.append(np.broadcast(p, e, q).size)
        return kernel(p, e, q)

    monkeypatch.setattr(ch, "_kernel", counting)
    return sizes


def group_sizes(sizes, rows, count):
    """The kernel call sizes of the d = 2 rows' search and of the others',
    each searched alone, after checking that one search of all rows makes
    exactly those calls, the d = 2 group's first."""
    groups = [[r for r in rows if r[1] == 2], [r for r in rows if r[1] > 2]]
    calls = []
    for group in groups + [rows]:
        sizes.clear()
        if group:
            check_table(group, count)
        calls.append(list(sizes))
    assert calls[2] == calls[0] + calls[1]
    return calls[0], calls[1]


def test_quadratic_search_steps_in_blocks_at_any_p(monkeypatch):
    # d = 2 searches step in blocks at any p, and d > 2 searches below 2^50;
    # one d > 2 row at or above 2^50 makes its group step one candidate per
    # row, none tested past a row's last nonresidue
    sizes = count_kernel_cells(monkeypatch)
    m89 = 2**89 - 1
    for p, d in ((10**12 + 39, 2), (m89, 2), (10**12 + 39, 3), (m89, 3)):
        sizes.clear()
        check_table([(p, d)], 30)
        if d == 2 or p < 2**50:  # a block per step, the first all 18 primes below 64
            assert sizes[0] == 18 and len(sizes) < 10 and min(sizes) > 1, (p, sizes)
        else:
            last = pow_loop_nonresidues(p, d, 30, 10_000)[-1]
            assert set(sizes) == {1} and len(sizes) == _SMALL_PRIMES.index(last) + 1
    # a shard's rows near 10^12: the d = 2 group's calls mod q, then the
    # others' mod p, each group testing all 18 primes below 64 in its first
    # step
    rows = all_rows(primes_near(10**12, 300), d_max=12)
    n_quad = sum(d == 2 for _, d in rows)
    quad, other = group_sizes(sizes, rows, 3)
    assert quad[0] == 18 * n_quad and other[0] == 18 * (len(rows) - n_quad)
    assert len(rows) > 50 and 0 < n_quad < len(rows) / 2
    # beside two d > 2 rows at or above 2^50, the d = 2 row steps in blocks;
    # the d > 2 rows step one candidate per row
    rows = [(2**50 - 27, 3), (2**50 + 99, 3), (2**50 - 27, 2)]
    quad, other = group_sizes(sizes, rows, 30)
    assert quad[0] == 18 and len(quad) < 10 and min(quad) > 1, quad
    tested = [_SMALL_PRIMES.index(pow_loop_nonresidues(p, d, 30, 10_000)[-1]) + 1
              for p, d in rows[:2]]
    assert other == [sum(n > k for n in tested) for k in range(max(tested))]


@pytest.mark.parametrize("center", [2**31, 10**12, 2**50])
def test_kernel_against_pow_across_the_int64_limits(center):
    # exponents with every bit of p, on the three primes on either side of
    # each limit and of 10^12: near a power of two a floor quotient never
    # falls below the integer part, far from one it does.  With e = (p-1)/d
    # and bases x^d beside random x, about half the cells are 1, and e = p-1
    # makes every cell 1.  _mulmod's products are residues r = ab (mod p)
    # with -p < r < p, for operands of either sign, which _kernel's test
    # "== 1" alone cannot show.
    from nonresidues.characters import _kernel, _mulmod, _reciprocal

    rng = random.Random(center)
    near = primes_near(center, 400)
    cut = sum(p < center for p in near)
    for p in near[cut - 3 : cut + 3]:
        d = 3 if (p - 1) % 3 == 0 else 2
        xs = [rng.randrange(1, p) for _ in range(100)]
        bases = xs + [pow(x, d, p) for x in xs]
        if p < 2**50:  # products just above and below multiples of p, and random
            inv = [pow(x, -1, p) for x in xs]
            a = xs * 4 + bases
            b = [s * y % p for s in (1, 2, p - 1, p - 2) for y in inv] + bases[::-1]
            a, b = a + [x - p for x in a] * 2 + a, b + b + [y - p for y in b] * 2
            got = _mulmod(np.array(a), np.array(b), p, _reciprocal(np.array(p))).tolist()
            assert [r % p for r in got] == [x * y % p for x, y in zip(a, b)]
            assert all(-p < r < p for r in got)
        top = 1 << (p.bit_length() - 1)
        for e in (p - 1, p - 2, (p - 1) // d, top - 1, top + 1, 2 * top - 1):
            got = _kernel(np.array([p]), np.array([e]), np.array(bases))
            want = [pow(b, e, p) == 1 for b in bases]
            assert got.tolist() == want, (p, e)
            assert (e != p - 1) or all(want)
            assert (e != (p - 1) // d) or 0.4 < np.mean(want) < 0.9


def test_kernel_runs_pow_only_at_2_50_and_above(monkeypatch):
    # numpy from _INT64_MIN_CELLS cells up on every modulus below 2^50; pow on
    # each cell at 2^50 and above, or of Python ints, or in small calls
    from nonresidues import characters as ch

    calls = []

    def counting_pow(*args):
        calls.append(args)
        return pow(*args)

    monkeypatch.setattr(ch, "pow", counting_pow, raising=False)
    q = np.arange(2, 2 + ch._INT64_MIN_CELLS)
    for p, dtype, pow_cells in ((2**31 - 1, np.int64, 0), (2**50 - 27, np.int64, 0),
                                (2**50 + 99, np.int64, q.size),
                                (2**50 - 27, object, q.size)):
        calls.clear()
        got = ch._kernel(np.array([p], dtype=dtype), np.array([p - 2], dtype=dtype), q)
        assert got.tolist() == [pow(int(x), p - 2, p) == 1 for x in q]
        assert len(calls) == pow_cells, (p, dtype)
    calls.clear()
    ch._kernel(np.array([2**50 - 27]), np.array([3]), q[1:])
    assert len(calls) == q.size - 1


# -- the windowed chain and the search step -------------------------------------

_CHAIN_MODULI = [
    9973,  # reduced by %
    2147483629, 2147483647,  # the last primes below 2^31, reduced by %
    2147483659, 2147483693,  # the first above, reduced by a float quotient
    10**12 + 39,
    2**50 - 35, 2**50 - 27,  # the last primes below 2^50
]


def _digit_exponents(p):
    """Exponents that put every window digit at the top, middle and bottom
    digit positions of p - 1, then 0, 1, 2^k - 1 and 2^k for every k up to
    p - 1's bit length, p - 2 and p - 1."""
    from nonresidues.characters import _WINDOW

    size, bits = 1 << _WINDOW, (p - 1).bit_length()
    top = _WINDOW * ((bits - 1) // _WINDOW)
    out = [0, 1, p - 2, p - 1]
    for shift in (top, _WINDOW * (top // _WINDOW // 2), 0):
        out += [(p - 1) & ~((size - 1) << shift) | v << shift for v in range(size)]
    for k in range(1, bits + 1):
        out += [(1 << k) - 1, 1 << k]
    return out


@pytest.mark.parametrize("p", _CHAIN_MODULI)
def test_chains_against_pow_on_every_digit_and_signed_bases(p):
    # both chains give a residue r = b^e (mod p) with -p < r < p, and r == 1
    # exactly when b^e = 1, for bases of either sign: the operands that a
    # chain multiplies are signed residues, which _kernel's verdicts alone
    # cannot show
    from nonresidues.characters import _binary_chain, _windowed_chain

    rng = random.Random(p)
    xs = [0, 1, 2, p - 2, p - 1] + [rng.randrange(1, p) for _ in range(20)]
    bases = xs + [x - p for x in xs if x]
    es = _digit_exponents(p)
    e, b = np.repeat(es, len(bases)), np.tile(bases, len(es))
    want = [pow(x, k, p) for x, k in zip(b.tolist(), e.tolist())]
    for chain in (_binary_chain, _windowed_chain):
        r = chain(np.full(e.size, p), e, b, max(es).bit_length()).tolist()
        assert all(-p < x < p for x in r), chain
        assert [x % p for x in r] == want, chain
        assert [x == 1 for x in r] == [x == 1 for x in want], chain


def test_kernel_runs_windowed_chains_on_long_exponents_in_bounded_blocks(monkeypatch):
    # a 2-d call with rows on both sides of 2^31 and of 10^12: exponents of
    # _WINDOW_MIN_BITS bits or more run windowed, in blocks of at most
    # _KERNEL_BLOCK cells, and shorter ones run the binary chain
    from nonresidues import characters as ch

    blocks = []

    def windowed(p, e, base, bits):
        blocks.append(base.size)
        return chain(p, e, base, bits)

    chain = ch._windowed_chain
    monkeypatch.setattr(ch, "_windowed_chain", windowed)
    monkeypatch.setattr(ch, "_KERNEL_BLOCK", 64)
    p = np.array([[9973], [2147483647], [2147483659], [10**12 + 39], [2**50 - 27]])
    q = np.arange(2, 42)
    for d in (3, 6):
        e = (p - 1) // d
        want = [[pow(int(x), int(k), int(m)) == 1 for x in q] for m, k in zip(p[:, 0], e[:, 0])]
        blocks.clear()
        assert ch._kernel(p, e, q).tolist() == want
        assert blocks == [64, 64, 64, 8]
    assert ch._WINDOW_MIN_BITS == 14
    for p, windowed_blocks in (([[8179], [8191]], []), ([[16369], [16381]], [64, 16])):
        p = np.array(p)  # e = p - 1 of 13, then of 14 bits: every cell is 1 (Fermat)
        blocks.clear()
        assert ch._kernel(p, p - 1, q).all()
        assert blocks == windowed_blocks


def test_nonresidue_table_mixes_short_and_long_exponents_in_one_call():
    # one search over rows whose d > 2 exponents run from 1 bit to 49, beside
    # d = 2 rows: quadratic cells go on their own short chains, and the d > 2
    # call mixes binary-length exponents into its windowed chain
    primes = [int(p) for p in pr.sieve(200)[1:]] + primes_near(2**31, 60) + primes_near(10**12, 60)
    below_2_50 = [p for p in primes_near(2**50, 200) if p < 2**50]  # too large to factorize
    rows = all_rows(primes, d_max=12) + [(p, d) for p in below_2_50 for d in range(2, 13)
                                         if (p - 1) % d == 0]
    assert {d for _, d in rows} >= {2, 3, 4, 6, 12} and len(rows) > 100
    for count in (3, 5, 30):
        check_table(rows, count)


def test_first_search_step_tests_what_every_row_still_needs(monkeypatch):
    # scan-orders' rows (p in [10^12, 10^12 + 10^4), d | 12): 1,309 rows, of
    # which 335 are d = 2.  That group's first step aims at _STEP_CELLS,
    # 2048 // 335 = 6 candidates a row.  The other 974 rows would get
    # 2048 // 974 = 2, but every row needs 3 nonresidues, so their first
    # step tests 3 candidates a row.  The groups take 2 and 3 steps.
    from nonresidues.characters import _STEP_CELLS

    sizes = count_kernel_cells(monkeypatch)
    rows = all_rows([int(p) for p in pr.primes_in_range(10**12, 10**12 + 10**4)], d_max=12)
    n_quad = sum(d == 2 for _, d in rows)
    assert (len(rows), n_quad) == (1309, 335)
    quad, other = group_sizes(sizes, rows, 3)
    assert _STEP_CELLS // n_quad == 6 and quad[0] == 6 * n_quad
    assert _STEP_CELLS // (len(rows) - n_quad) == 2 and other[0] == 3 * (len(rows) - n_quad)
    assert (len(quad), len(other)) == (2, 3)
    # 30 nonresidues of 186 rows: the first step stops at the chunk's
    # 18 primes below 64, after which the rows have found different counts
    rows = all_rows(primes_near(10**12, 600), d_max=12)
    q, found = check_table(rows, 30)
    assert len(set((q < 64).sum(axis=1).tolist())) > 5 and found.min() == 30


def check_two_groups(rows, count, cap=10_000):
    """check_table on rows, whose whole (q, found) must also equal the d = 2
    rows' search and the others' search scattered back."""
    q, found = check_table(rows, count, cap=cap) if rows else nonresidue_table([], [], count)
    quad = np.array([d == 2 for _, d in rows], dtype=bool)
    for mask in (quad, ~quad):
        group = [r for r, m in zip(rows, mask) if m]
        gq, gf = nonresidue_table([p for p, _ in group], [d for _, d in group], count,
                                  search_cap=cap)
        assert np.array_equal(q[mask], gq) and np.array_equal(found[mask], gf)
    return q, found


@pytest.mark.parametrize("order", ["sorted", "shuffled"])
def test_two_group_search_scatters_back_each_group(order):
    # d = 2 rows interleaved with d > 2 rows, in (p, d) order: every p's
    # d = 2 row sits between other orders' rows, or shuffled
    def arrange(rows):
        rows = list(rows)
        if order == "shuffled":
            random.Random(7).shuffle(rows)
        return rows

    rows = arrange(all_rows(primes_near(10**7, 300), d_max=12))
    quad_at = [i for i, (_, d) in enumerate(rows) if d == 2]
    assert quad_at != list(range(quad_at[0], quad_at[0] + len(quad_at)))  # not contiguous
    for count in (0, 1, 3, 30):
        check_two_groups(rows, count)
    # the d = 2 group reaches the cap while every d > 2 row finishes
    rows = arrange(r for r in all_rows(primes_near(10**7, 600), d_max=12)
                   if r[1] == 2 or r[1] >= 8)
    q, found = check_two_groups(rows, 10, cap=50)
    d = np.array([d for _, d in rows])
    assert (found[d == 2] < 10).any() and (found[d > 2] == 10).all()
    # an empty group: all rows d = 2, or none, and no rows at all
    small = all_rows([int(p) for p in pr.sieve(400)[1:]], d_max=12)
    for rows in ([r for r in small if r[1] == 2], [r for r in small if r[1] > 2], []):
        for count in (0, 5):
            check_two_groups(arrange(rows), count)
    # d > 2 rows at or above 2^50 beside d = 2 rows: the d > 2 group steps
    # one candidate per row, and the d = 2 group in blocks
    big = [(p, d) for p in primes_near(2**50, 120) + [2**89 - 1] for d in range(2, 13)
           if (p - 1) % d == 0]
    assert max(p for p, d in big if d > 2) >= 2**50 and any(d == 2 for _, d in big)
    for count in (0, 3, 30):
        check_two_groups(arrange(big + small[:40]), count)


def test_each_group_is_searched_in_its_own_dtype(monkeypatch):
    # one d = 2 row at 2^89 - 1 holds its p in Python ints; the d > 2 rows
    # near 10^6 beside it must still be searched in int64 blocks, in the
    # very kernel calls that they make without that row
    from nonresidues import characters as ch

    calls = []
    kernel = ch._kernel

    def recording(*cells):
        calls.append((np.broadcast(*cells).size, {np.asarray(c).dtype for c in cells}))
        return kernel(*cells)

    monkeypatch.setattr(ch, "_kernel", recording)
    small = [(p, d) for p in primes_near(10**6, 3000) for d in (3, 6) if (p - 1) % d == 0]
    small = small[:240]
    alone_q, alone_found = check_table(small, 3)
    alone = list(calls)
    assert len(small) == 240 and all(dtypes == {np.dtype(np.int64)} for _, dtypes in alone)
    calls.clear()
    q, found = check_table([(2**89 - 1, 2), *small], 3)
    assert calls[-len(alone):] == alone  # the d > 2 group's calls, last
    assert np.array_equal(q[1:], alone_q) and np.array_equal(found[1:], alone_found)
