"""Per-instance reference sweeps for the lemmas that nonresidues.lemmas
decides in float columns (sweep_totient, sweep_convexity, sweep_s_upper).

Each reference certifies every instance of the sweep's grid exactly, in
the sweep's instance order, and passes it to LemmaReport.record, so the
records and the report it returns are what the column sweep must
reproduce: the same verdicts, and the same counts, minimum slack, worst
instance and failure examples.
"""

from fractions import Fraction

from nonresidues import lemmas as lm
from nonresidues import primes as pr
from nonresidues.characters import CharacterSpec
from nonresidues.rounding import certify, certify_dyadic, lower_exp, lower_product


def reference_totient(x_max):
    """sweep_totient's grid, x = k/10 for 11 <= k <= 10 x_max, with exact
    running sums: certify(_totient_rhs_upper with the table's logarithm,
    _totient_lhs) per instance."""
    rep = lm.LemmaReport("totient")
    phi = pr.totient_sieve(x_max).tolist()
    ks = range(11, x_max * 10 + 1)
    if not ks:
        return rep
    log_lo, e = lm._log_tenths_lo(ks[-1]), 1 << lm.LOG_TABLE_BITS
    s0, s1, floor_x = 1, Fraction(1), 1  # sums of phi(a) and phi(a)/a, a <= floor_x
    for k in ks:
        if (floor_x + 1) * 10 <= k:
            floor_x += 1
            s0 += phi[floor_x]
            s1 += Fraction(phi[floor_x], floor_x)
        x = k, 10
        lhs = lm._totient_lhs(x, s0, s1.as_integer_ratio())
        rep.record({"x": f"{k}/10"}, *certify(lm._totient_rhs_upper(x, (log_lo[k], e)), lhs))
    return rep


def reference_convexity(h_max, r_max):
    """sweep_convexity's grid in (h, j, r) order: h^(2r) / (h-2j)^(2r)
    against the integer chain of lower_product from base = lower_exp's
    endpoint of exp(16j/(3h)), by certify_dyadic."""
    rep = lm.LemmaReport("convexity")
    for h in range(1, h_max + 1):
        nums = [h ** (2 * r) for r in range(1, r_max + 1)]
        for j in range(0, h // 8 + 1):
            _, man, exp, _ = lower_exp(Fraction(16 * j, 3 * h))
            base = lo = int(man), exp
            den, step = 1, (h - 2 * j) ** 2
            for r, num in enumerate(nums, 1):
                den *= step
                rep.record({"h": h, "r": r, "j": j}, *certify_dyadic((num, den), lo))
                lo = lower_product(lo, base)
    return rep


def reference_s_upper(p_max, h_max, r_max):
    """sweep_s_upper's grid in (p, d, h, r) order: every moment from one
    _sum_S_multi call per character, certified at value + error_bound
    against _s_upper_rhs_lo."""
    rep = lm.LemmaReport("s-upper")
    for p in map(int, pr.primes_upto(p_max)):
        hs = range(1, min(h_max, p - 1) + 1)
        if p == 2 or not hs or r_max < 1:
            continue
        for d in pr.divisors(p - 1)[1:]:
            moments = lm._sum_S_multi(CharacterSpec.of_order(p, d), hs,
                                      range(1, min(r_max, 9 * hs[-1]) + 1))
            for h in hs:
                for r in range(1, min(r_max, 9 * h) + 1):
                    s = moments[h, r]
                    rep.record({"p": p, "d": d, "h": h, "r": r},
                               *certify(s.upper(), lm._s_upper_rhs_lo(p, h, r)))
    return rep
