#!/usr/bin/env python3
"""Walkthrough: exact character arithmetic and smallest prime nonresidues.

A character of order d mod p is pinned down by a primitive root g and an
exponent; its values are roots of unity stored exactly as residues t mod d.
Its kernel is exactly the d-th power residues, so "is q a nonresidue" is a
single modular exponentiation and scales far past any table.
"""

from nonresidues import bounds as bd
from nonresidues.characters import (
    CharacterSpec,
    is_kernel,
    prime_nonresidues,
)

print("=" * 72)
print(" A character of order 4 mod 13, value by value")
print("=" * 72)
spec = CharacterSpec.of_order(13, 4)
print(f"  primitive root mod 13: g = {spec.g}")
row = []
for a in range(1, 13):
    t = spec.t_table[a]
    row.append(f"chi({a})=z^{t}")
print("  " + "  ".join(row[:6]))
print("  " + "  ".join(row[6:]))
print("  (z = i here; t = 0 marks the kernel, i.e. the fourth powers)")

print()
print("=" * 72)
print(" Kernel tests without discrete logs")
print("=" * 72)
p = 10**12 + 39  # prime far beyond any index table
print(f"  p = {p} (no table this size could exist)")
for q in (2, 3, 5, 7, 11, 13):
    print(f"  q = {q:2d}: {'kernel (residue)' if is_kernel(p, 2, q) else 'NONRESIDUE'}")

print()
print("=" * 72)
print(" Smallest prime nonresidues vs. the frozen bound")
print("=" * 72)
c = 1.530  # frozen from g(1, 1e7)
print("  order d = 2, frozen C = 1.530 for p >= 1e7, n = 1:")
for p in (10000019, 10000079, 99999989, 10**12 + 39):
    q = prime_nonresidues(p, 2, 3)
    bound = bd.compute_bound(1, float(p), c)
    print(f"  p = {p:>13}: q_1..q_3 = {q}   bound on q_1 = {bound:,.0f}")

print()
print("  The observed q_1 sits far below the bound; the gap reflects the")
print("  p^(1/4) strength of the method, not slack in the scan.")
