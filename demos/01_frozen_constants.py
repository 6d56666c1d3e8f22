#!/usr/bin/env python3
"""Walkthrough: the explicit constant g(n, p) and the frozen bound.

For a nonprincipal Dirichlet character mod a prime p, the n-th smallest
prime nonresidue satisfies q_n <= g(n,p) * p^(1/4) * (log p)^((n+1)/2).
Because g decreases in p on its validity region, one may freeze
C = g(n0, p0) once and use it for every p >= p0 and n <= n0.  This script
encloses the constant in interval arithmetic, regenerates the published
table from those enclosures, and certifies each published ceiling.
"""

from nonresidues import bounds as bd

print("=" * 72)
print(" The explicit constant and its validity region")
print("=" * 72)

for n, e in [(1, 7), (2, 8), (5, 15), (3, 7)]:
    xstar, f_at_xstar, g = bd.enclose_g(n, 10**e)  # intervals, p = 10^e exactly
    g_hi, failed = bd.reference_g(n, 10**e)
    if g_hi is not None:
        print(f"  g({n}, 1e{e}) = {float(g.mid):.6f}   "
              f"(X* = {float(xstar.mid):.3f}, f(X*) = {float(f_at_xstar.mid):.4f})")
    else:
        print(f"  g({n}, 1e{e}) : invalid, failed {failed} "
              f"(X* = {float(xstar.mid):.3f})")

print()
print("A frozen constant must round UP, else it would undercut the true")
print("value; the published 3-decimal entries are ceilings:")
g = bd.enclose_g(1, 10**7)[2]
g_hi = bd.reference_g(1, 10**7)[0]
print(f"  g(1, 1e7) lies in {g}")
print(f"  rounded up to a double: {g_hi!r}  ->  published {bd.ceil_3dp(g_hi):.3f}")

print()
print("=" * 72)
print(" The full constant table (dash = reference pair not usable)")
print("=" * 72)
exponents = (7, 8, 9, 10, 15, 20, 25, 30, 35)
table = bd.make_table(list(range(1, 9)), [10.0**e for e in exponents])
print(bd.render_table_text(table))

print()
print("=" * 72)
print(" Freeze certificates: each ceiling C covers every p >= p0, n <= n0")
print("=" * 72)
certs = {(c.n0, e): bd.certify_freeze(c.n0, 10**e, bd.ceil_3dp(c.g))
         for row in table for c, e in zip(row, exponents) if c.g is not None}
(n0, e), worst = min(certs.items(), key=lambda kv: kv[1].min_slack)
print(f"  cells certified: {sum(c.ok for c in certs.values())} of {len(certs)}; "
      f"least slack C - g = {worst.min_slack:.2e} at (n0, p0, n) = "
      f"({n0}, 1e{e}, {worst.min_slack_n})")
print(f"  C = 2.915 at (7, 1e25) fails on: {bd.certify_freeze(7, 10**25, 2.915).failed}")

print()
print(" What the bound buys, concretely:")
for p in (1e7, 1e12, 1e20):
    b = bd.compute_bound(1, p, 1.530)
    print(f"  p = {p:.0e}: q_1 <= {b:,.0f}   (p^(1/4) = {p**0.25:,.0f})")

print()
print(" Window parameters behind the proof, at (n=1, p=1e7):")
bp = bd.burgess_params(1, 1e7)
print(f"  A = {bp.a:.6f}, B = {bp.b}, h = {bp.h}, r = {bp.r}, "
      f"identity error = {bp.identity_error:.2e}")
