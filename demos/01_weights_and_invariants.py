#!/usr/bin/env python3
"""Walk through the basic invariants of a circle subgroup.

A circle subgroup of a torus acting on nCP^2 that fixes an invariant sphere
is encoded by its weight sequence (k_2, ..., k_{n+2}) on the components of
the invariant anticanonical cycle.  This script reads the passes of the
decrement procedure, the distinguished divisor and every numeric invariant
off the sequence's analysis record.
"""

from minitwistor import (
    analyze_sequence,
    fan_from_sequence,
    is_lebrun,
    restriction_multiplicities,
    self_intersections,
    sequence_from_fan,
)

seq = (1, 2, 5, 3, 1)
print(f"weight sequence k = {seq}   (n = {len(seq) - 1})")

# The decrement procedure: each pass lowers the leftmost maximal run of
# maximal entries by one; the number of passes is the basic invariant m.
rec = analyze_sequence(seq)
print(f"\npasses of the decrement procedure (m = {rec.m}):")
state = list(seq)
for step, (i, j) in enumerate(rec.trace.steps, start=1):
    for t in range(i, j + 1):
        state[t - 2] -= 1
    print(f"  pass {step}: lower entries {i}..{j}  ->  {tuple(state)}")

# Each pass contributes one plus and one minus component to a divisor; the
# multiplicity vector l drives everything downstream.
print(f"\nplus multiplicities  l+ = {rec.l_plus}")
print(f"minus multiplicities l- = {rec.l_minus}")
print(f"total                l  = {rec.l}   (sums to 2m = {2 * rec.m})")

# Restricting the divisor to the invariant surface hits each cycle component
# C_i with multiplicity m + k_i and its conjugate with m - k_i.
cycle, conj = restriction_multiplicities(rec)
print(f"\nrestriction to the cycle:  {cycle}")
print(f"restriction to conjugates: {conj}")

# Regular components (weight 1) adjacent to the fixed sphere control
# deformability: positive slack n + r - s means an equivariant deformation
# exists that destroys the rest of the torus symmetry.
for candidate in [(1, 2, 5, 3, 1), (1, 2, 3, 1, 1), (1, 1, 1, 1, 1)]:
    reg = analyze_sequence(candidate)
    if reg.semi_free:
        print(f"\n{candidate}: semi-free; {reg.note}; deformable = {reg.deformable}")
    else:
        print(
            f"\n{candidate}: r = {reg.r}, s = {reg.s}, slack = {reg.slack}, "
            f"deformable = {reg.deformable}"
        )

# The same data in fan language: the weight sequence and the half-fan of the
# invariant surface determine each other.
fan = fan_from_sequence(seq)
print(f"\nhalf-fan rays: {fan.rays}")
print(f"self-intersections of the cycle components: {self_intersections(fan)}")
print(f"markings of this fan: {[sequence_from_fan(fan, t) for t in range(1, fan.n + 3)]}")
print(f"LeBrun action (some marking semi-free)? {is_lebrun(fan)}")
