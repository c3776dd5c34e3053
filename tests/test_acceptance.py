"""Acceptance suite: one test per criterion, printing a pass/fail line each.

All arithmetic in the library is exact, so every comparison below is an exact
match; run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""

from __future__ import annotations

import random
from fractions import Fraction

from minitwistor import (
    FIBONACCI_TABLE,
    INF,
    blow_up_schedule,
    default_lambdas,
    discriminant_deformed,
    discriminant_joyce,
    enumerate_marked,
    family_fibonacci,
    family_involutive,
    family_lebrun,
    fan_from_sequence,
    growth_report,
    minitwistor_model,
    quadratic_split,
    restriction_multiplicities,
    rhs_polynomial,
    sequence_from_fan,
    u1_classes,
    u1_key,
)
from minitwistor.invariants import (
    l_vector,
    reduction_trace,
    regularity,
    sequence_l_vector,
    trace_divisor,
)

from support import (
    fibonacci,
    insertions,
    oriented_sequences,
    restriction_oracle,
    reversal_canonical,
)


def report(cid: int, ok: bool, label: str) -> None:
    print(f"ACCEPTANCE {cid:02d} {'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


def test_criterion_01_delta_table():
    ok = all(len(u1_classes(n)) == expected for n, expected in enumerate((1, 1, 2, 3, 7, 15)))
    known = [
        (1, 1, 1, 1, 1), (1, 2, 1, 1, 1), (1, 2, 1, 2, 1), (1, 2, 3, 1, 1),
        (1, 3, 2, 3, 1), (1, 2, 5, 3, 1), (1, 2, 3, 4, 1),
    ]
    classes = u1_classes(4)
    owners = set()
    for rep in known:
        matches = [c.canonical for c in classes if rep in c.members or rep[::-1] in c.members]
        ok = ok and len(matches) == 1
        owners.update(matches)
    ok = ok and len(owners) == 7 == len(classes)
    report(1, ok, "delta(0..5) = 1,1,2,3,7,15 and the seven level-4 representatives")


def test_criterion_02_fibonacci_table():
    ok = True
    for n, (seq, lvec, m) in FIBONACCI_TABLE.items():
        ok = ok and family_fibonacci(n) == seq
        ok = ok and sequence_l_vector(seq) == lvec
        ok = ok and reduction_trace(seq).m == m == fibonacci(n + 1)
    for n in range(2, 9):
        best = max(reduction_trace(s).m for s in enumerate_marked(n))
        ok = ok and best == fibonacci(n + 1) == reduction_trace(family_fibonacci(n)).m
    report(2, ok, "maximal-step table rows n = 2..7 and argmax m = f(n+1) through n = 8")


def test_criterion_03_worked_example():
    report(3, reduction_trace((1, 2, 1, 2, 1)).m == 3, "m((1,2,1,2,1)) = 3")


def test_criterion_04_divisor_structure_suite():
    ok = True
    for n in range(7):
        for seq in oriented_sequences(n):
            trace = reduction_trace(seq)
            div = trace_divisor(trace)
            lvec = l_vector(div)
            m = trace.m
            ok = ok and lvec[0] == lvec[-1] == 1
            ok = ok and sum(lvec) == 2 * m
            ok = ok and m >= max(seq)
            ok = ok and not any(p and q for p, q in zip(div.plus, div.minus))
            ok = ok and sum(div.plus) == sum(div.minus) == m
            c, cbar = restriction_oracle(trace)
            ok = ok and c == (m,) + tuple(m + k for k in seq)
            ok = ok and cbar == (m,) + tuple(m - k for k in seq)
            ok = ok and restriction_multiplicities(seq) == (c, cbar)
    report(4, ok, "divisor structure suite exhaustive through n = 6")


def test_criterion_05_equation_degree_and_smooth_quadric():
    ok = True
    for n in range(7):
        for seq in enumerate_marked(n):
            model = minitwistor_model(seq)
            ok = ok and model.rhs.degree == 2 * model.m == model.surface_degree
    for n in (0, 3, 5):
        model = minitwistor_model((1,) * (n + 1))
        expected = rhs_polynomial((1,) + (0,) * n + (1,), default_lambdas(n))
        ok = ok and model.q.pullback() == expected
        ok = ok and model.singularities == ()
    report(5, ok, "rhs degree 2m for n <= 6; semi-free model is the smooth quadric")


def test_criterion_06_singularity_classification():
    model = minitwistor_model((1, 2, 5, 3, 1))
    kinds = [(r.kind, r.order) for r in model.singularities]
    ok = kinds == [("cyclic-quotient-pair", 5), ("real-A", 2), ("real-A", 1), ("real-A", 1)]
    locations = [r.location for r in model.singularities if r.kind == "real-A"]
    ok = ok and locations == [Fraction(2), Fraction(3), Fraction(4)]
    for n in range(1, 9):
        for seq in enumerate_marked(n):
            if max(seq) <= 2:
                records = minitwistor_model(seq).singularities
                ok = ok and not any(r.kind == "real-A" for r in records)
    for n in range(3, 9):
        records = minitwistor_model(family_fibonacci(n)).singularities
        orders = {r.order for r in records if r.kind == "real-A"}
        ok = ok and all(fibonacci(j) - 1 in orders for j in range(3, n + 1))
    report(6, ok, "singularity classification: worked example, involutive family, maximal family")


def test_criterion_07_deformability():
    ok = True
    for n in range(3, 11):
        members = family_lebrun(n)
        positive = [f for f in members if not f.semi_free and f.slack > 0]
        ok = ok and len(positive) == 1
        ok = ok and positive[0].seq == tuple(range(1, n)) + (1, 1)
        ok = ok and positive[0].slack == 1
    for n in range(1, 11):
        for c, member in enumerate(family_involutive(n)):
            if c == 0:
                ok = ok and member.semi_free
            else:
                ok = ok and member.slack == n - 2 * c
    report(7, ok, "deformability: LeBrun slack pattern and involutive slacks n - 2c")


def test_criterion_08_discriminant_reports():
    ok = True
    for n in range(7):
        for seq in oriented_sequences(n):
            reg = regularity(seq)
            schedule = blow_up_schedule(seq)
            lvec = sequence_l_vector(seq)
            if schedule.m == 1:
                ok = ok and schedule.stage_count == 1
            else:
                ok = ok and schedule.stage_count == max(lvec) + 2
            if reg.semi_free:
                continue
            joyce = discriminant_joyce(seq)
            deformed = discriminant_deformed(seq)
            ok = ok and deformed.hyperplane_sections == n + reg.r - reg.s
            movers = set(joyce.irreducible_fibers) - set(deformed.irreducible_fibers)
            ok = ok and movers == set(range(2, reg.r)) | set(range(reg.s, n + 2))
            ok = ok and len(movers) == deformed.hyperplane_sections
            chain_movers = set(joyce.reducible_fiber_chains) - set(deformed.reducible_fiber_chains)
            ok = ok and chain_movers == {(reg.r, lvec[reg.r - 1] + 1)}
    report(8, ok, "discriminant reconciliation and blow-up stage counts through n = 6")


def test_criterion_09_round_trips():
    ok = True
    for n in range(7):
        for seq in oriented_sequences(n):
            ok = ok and sequence_from_fan(fan_from_sequence(seq), 1) == seq
    rng = random.Random(20260810)
    pool = [seq for n in range(7) for seq in enumerate_marked(n)]
    for _ in range(100):
        seq = pool[rng.randrange(len(pool))]
        n = len(seq) - 1
        lams = [Fraction(0)]
        for _ in range(n):
            lams.append(lams[-1] + Fraction(rng.randint(1, 12), rng.randint(1, 12)))
        lvec = sequence_l_vector(seq)
        form = rhs_polynomial(lvec, tuple(lams) + (INF,), rng.choice((1, -1)))
        ok = ok and quadratic_split(form, sum(lvec) // 2).pullback() == form
    report(9, ok, "fan round trip n <= 6 and 100 randomized split round trips")


def test_criterion_10_growth():
    rows = growth_report(8)
    deltas = [row.delta for row in rows]
    ok = all(a <= b for a, b in zip(deltas, deltas[1:]))
    for n in range(1, 9):
        previous = u1_classes(n - 1)
        images = {u1_key((1,) + cls.canonical) for cls in previous}
        ok = ok and len(images) == len(previous)
    ok = ok and all(row.ratio is None or row.ratio > 0 for row in rows)
    # the generator of every level-n class: each parent's children cover it
    for n in range(1, 7):
        regenerated = {
            reversal_canonical(child)
            for parent in enumerate_marked(n - 1)
            for child in insertions(parent)
        }
        ok = ok and regenerated == set(enumerate_marked(n))
    report(10, ok, "delta nondecreasing, end insertion injective, ratios emitted to n = 8")
