"""The closed-form analysis record against the decrement-simulation oracle."""

from __future__ import annotations

import random

import pytest

from minitwistor import (
    InternalInvariantError,
    InvalidSequenceError,
    ReductionTrace,
    SequenceAnalysis,
    analyze_sequence,
    blow_up_schedule,
    discriminant_deformed,
    discriminant_joyce,
    fan_from_sequence,
    minitwistor_model,
    restriction_multiplicities,
    self_intersections,
    sequence_from_fan,
)
from minitwistor.invariants import (
    TraceDivisor,
    l_vector,
    reduction_steps,
    reduction_trace,
    regularity,
    trace_divisor,
)

from support import insertions, oriented_sequences, restriction_oracle


def assert_matches_oracle(seq):
    rec = analyze_sequence(seq)
    trace = reduction_trace(seq)
    div = trace_divisor(trace)
    reg = regularity(seq)
    assert rec.k == seq and rec.n == trace.n == len(seq) - 1
    assert rec.m == trace.m
    assert (rec.l_plus, rec.l_minus) == (div.plus, div.minus)
    assert rec.l == l_vector(div)
    assert rec.trace.steps == reduction_steps(seq)
    assert (rec.regular, rec.semi_free, rec.r, rec.s, rec.slack, rec.deformable, rec.note) == (
        reg.regular, reg.semi_free, reg.r, reg.s, reg.slack, reg.deformable, reg.note,
    )
    assert rec.rays == fan_from_sequence(seq).rays
    assert restriction_multiplicities(seq) == restriction_oracle(trace)
    for oriented in (seq, seq[::-1]):
        fan = fan_from_sequence(oriented)
        assert sequence_from_fan(fan, 1) == oriented
        assert sum(self_intersections(fan)) == -3 * rec.n


def test_record_matches_simulation_exhaustive():
    count = 0
    for n in range(10):
        for seq in oriented_sequences(n):
            assert_matches_oracle(seq)
            count += 1
    assert count == 6918


def insertion_path(choices):
    seq = (1,)
    for choice in choices:
        children = insertions(seq)
        seq = children[choice % len(children)]
    return seq


def test_record_matches_simulation_on_random_paths():
    # seeded paths rather than hypothesis, so the cost stays fixed
    rng = random.Random(805_0042)
    for _ in range(300):
        assert_matches_oracle(
            insertion_path([rng.randrange(2**16) for _ in range(rng.randint(0, 40))])
        )


def test_record_passes_through_and_is_frozen():
    rec = analyze_sequence((1, 2, 5, 3, 1))
    assert isinstance(rec, SequenceAnalysis)
    assert analyze_sequence(rec) is rec
    assert rec.trace is rec.trace  # built once, on first use
    with pytest.raises(AttributeError):
        rec.m = 7


def test_entry_points_accept_the_record():
    for seq in ((1, 2, 5, 3, 1), (1, 1, 2, 5, 3, 1, 2, 1, 1, 1), (1, 1, 1, 1)):
        rec = analyze_sequence(seq)
        assert minitwistor_model(rec) == minitwistor_model(seq)
        assert discriminant_joyce(rec) == discriminant_joyce(seq)
        assert blow_up_schedule(rec) == blow_up_schedule(seq)
        assert regularity(rec) == regularity(seq)
        assert reduction_trace(rec) == reduction_trace(seq)
        if not rec.semi_free:
            assert discriminant_deformed(rec) == discriminant_deformed(seq)
        assert restriction_multiplicities(rec) == restriction_multiplicities(seq)


def test_invalid_sequence_rejected_by_the_record():
    for bad in ((2, 1, 1), (1, 4, 1), (), (1, 0, 1), (1, 3, 1, 1)):
        with pytest.raises(InvalidSequenceError):
            analyze_sequence(bad)


def test_oracle_violations_name_the_recovered_sequence():
    # a trace covering index 2 twice and index 3 once belongs to (2,1)
    with pytest.raises(InternalInvariantError) as info:
        trace_divisor(ReductionTrace(n=1, steps=((2, 2), (2, 3))))
    assert str(info.value).startswith("trace_divisor: (2,1): ")
    # k_{i+1} - k_i = l_i^+ - l_i^-: these multiplicities belong to (1,1)
    with pytest.raises(InternalInvariantError) as info:
        l_vector(TraceDivisor(n=1, plus=(1, 0, 0), minus=(0, 0, 0)))
    assert str(info.value).startswith("l_vector: (1,1): ")
