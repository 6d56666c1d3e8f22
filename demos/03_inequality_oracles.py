#!/usr/bin/env python3
"""Walkthrough: the inequality oracles that certify the proof chain.

Each bound the constant machinery relies on is checked by brute force on
desk-scale instances, with directed rounding: the exact side is integer or
rational arithmetic, the real side is interval arithmetic compared at its
unfavorable endpoint.  A pass is a numerical certificate, not a vibe.
"""

from fractions import Fraction

from nonresidues import lemmas as lm
from nonresidues.characters import CharacterSpec

print("=" * 72)
print(" The complete character-sum moment S(chi, h, r)")
print("=" * 72)
spec5 = CharacterSpec.of_order(5, 2)
s = lm.exact_sum_S(spec5, 2, 1)
print(f"  p=5 quadratic, h=2, r=1: S = {s.value} exactly "
      f"(window sums are 1, 0, -2, 0, 1)")
c = lm.check_S_upper(spec5, 2, 1)
print(f"  upper bound: S = {c.lhs:.0f} <= {c.rhs:.3f}  "
      f"(slack {c.slack:.3f}) -> {'PASS' if c.passed else 'FAIL'}")

print()
print("=" * 72)
print(" Factorial ratio vs. its closed-form majorant")
print("=" * 72)
for r in (1, 2, 10, 100, 500):
    ck = lm.check_stirling_ratio(r)
    print(f"  r = {r:3d}: exact (2r-1)!! <= sqrt(2)(2r/e)^r  "
          f"relative slack {ck.slack:.2e} -> {'PASS' if ck.passed else 'FAIL'}")

print()
print("=" * 72)
print(" Totient summation lower bound (exact rational LHS)")
print("=" * 72)
for x in (Fraction(3, 2), 2, Fraction(117, 10), 500):
    ck = lm.check_totient_inequality(x)
    print(f"  x = {str(x):>6}: LHS = {ck.lhs:14.3f} >= RHS = {ck.rhs:14.3f}  "
          f"-> {'PASS' if ck.passed else 'FAIL'}")

print()
print("=" * 72)
print(" Farey interval family: disjoint, contained, one stated exception")
print("=" * 72)
ck = lm.check_interval_disjointness(101, 9, 2, h=2)
print(f"  p=101, H=9, X=2: {ck.intervals} intervals, "
      f"overlaps={len(ck.overlap_violations)}, "
      f"escapes={len(ck.containment_violations)}, "
      f"J(1,0)=[-H,0) ok={ck.exception_interval_ok} -> "
      f"{'PASS' if ck.passed else 'FAIL'}")

print()
print("=" * 72)
print(" Shifted windows: |sum of chi over a window| >= h - 2j")
print("=" * 72)
inst = lm.build_instance(59, 2, 2, 3)  # q = [2, 11], u = 2, h = 3 puts u in u1
itv = lm.farey_interval("I*", 2, 1, 59, inst.nf.H, 3)
ck = lm.check_shifted_sum_lower(inst.spec, inst.nf, 3, itv)
print(f"  p=59, u={inst.nf.u}, h=3 (j={inst.nf.j}): windows in I*(2,1) have "
      f"|sum| >= {ck.threshold}, observed min {ck.min_abs:.1f} "
      f"({ck.points_checked} windows) -> {'PASS' if ck.passed else 'FAIL'}")

print()
print("=" * 72)
print(" The sandwich: lower bound <= exact moment <= upper bound")
print("=" * 72)
shown = 0
for inst, r in lm.iter_proposition_instances(2000, r_values=(1,)):
    sw = lm.sandwich_report(inst.spec, inst.nf, inst.h, r)
    if sw.vacuous:
        continue
    print(f"  p={inst.spec.p:5d} n={inst.nf.n} h={inst.h} r={r}: "
          f"{sw.lower:12.3f} <= {sw.value:12.1f} <= {sw.upper:14.1f}  "
          f"-> {'PASS' if sw.passed else 'FAIL'}")
    shown += 1
    if shown == 6:
        break

print()
print("=" * 72)
print(" Convexity bound, including its equality case")
print("=" * 72)
for h, r, j in ((8, 3, 1), (8, 3, 0), (200, 200, 25)):
    ck = lm.check_convexity_bound(h, r, j)
    print(f"  (h={h}, r={r}, j={j}): LHS = {ck.lhs:.6g} <= RHS = {ck.rhs:.6g} "
          f"-> {'PASS' if ck.passed else 'FAIL'}")

print()
print("Full sweeps on the default grid (the acceptance grids) run via:  nonres verify --all")
print("(--small is accepted for compatibility and selects the same default grid)")
