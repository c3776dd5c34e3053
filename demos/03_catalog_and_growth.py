#!/usr/bin/env python3
"""Enumerate all circle actions up to equivalence and materialize the three
named families.

Every weight sequence is reachable from (1) by mediant insertions; circle
actions are classified by the multiset of maximal blocks of weights > 1
(connected-sum summands), each block up to reversal.  delta(n) counts the
classes.
"""

from minitwistor import (
    analyze_sequence,
    enumerate_marked,
    family_fibonacci,
    family_involutive,
    family_lebrun,
    growth_report,
    u1_classes,
    u1_key,
)

print("marked sequences and class counts:")
print("n   marked(rev-classes)  delta(n)  delta/n^2")
for row in growth_report(8):
    ratio = "-" if row.ratio is None else str(row.ratio)
    print(f"{row.n}   {row.marked_classes:>6}               {row.delta:>4}      {ratio}")

print("\nthe seven classes at n = 4:")
for cls in u1_classes(4):
    blocks = " ".join(str(list(b)) for b in cls.u1_key) or "(none)"
    print(f"  {cls.canonical}  blocks: {blocks}  members: {len(cls.members)}")

print("\nan equivalence beyond reversal first appears at n = 5:")
print(f"  key of (1,2,1,2,3,1): {u1_key((1, 2, 1, 2, 3, 1))}")
print(f"  key of (1,2,1,3,2,1): {u1_key((1, 2, 1, 3, 2, 1))}")

print("\nLeBrun family at n = 6 (subgroups of the staircase torus action):")
for member in family_lebrun(6):
    tag = "semi-free" if member.semi_free else f"slack {member.slack}"
    print(f"  {member.k}  ({tag}, deformable = {member.deformable})")

print("\ninvolutive family at n = 7 (isotropy only +/-1; no real singularities):")
for member in family_involutive(7):
    tag = "semi-free" if member.semi_free else f"slack {member.slack}"
    print(f"  {member.k}  ({tag})")

print("\nmaximal-step family (m grows like Fibonacci):")
for n in range(2, 9):
    rec = analyze_sequence(family_fibonacci(n))
    print(f"  n = {n}: {rec.k}  m = {rec.m}  l = {rec.l}")

print(f"\nsanity: every level-5 sequence is insertion-reachable: {len(enumerate_marked(5))} classes")
