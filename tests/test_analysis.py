"""The closed-form analysis record against the decrement-simulation oracle."""

from __future__ import annotations

import copy
import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from minitwistor import (
    BinaryForm,
    BlowUpStage,
    DiscriminantReport,
    HalfFan,
    InternalInvariantError,
    InvalidFanError,
    InvalidParameterError,
    InvalidSequenceError,
    ReductionTrace,
    SequenceAnalysis,
    SingularityRecord,
    analyze_sequence,
    blow_up_schedule,
    discriminant_deformed,
    discriminant_joyce,
    fan_from_sequence,
    growth_report,
    minitwistor_model,
    restriction_multiplicities,
    self_intersections,
    sequence_from_fan,
    u1_classes,
)
from minitwistor.invariants import (
    RegularityReport,
    TraceDivisor,
    l_vector,
    reduction_steps,
    reduction_trace,
    regularity,
    trace_divisor,
)

from minitwistor.render import dumps

from support import insertions, oriented_sequences, restriction_oracle, west_sequences


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


#: The largest m at which the uniform property test also runs the decrement
#: simulation, whose cost grows with m; a uniform n = 100 draw has m near 10^6.
SIMULATION_M_CAP = 2000


def level_steps(seq):
    """The decrement trace with each distinct step once, mapped to its
    multiplicity: the components of {i : k_i >= h}, counted over the levels
    h they span.  Its size and cost grow with n, whatever m is."""
    counts = {}
    levels = sorted(set(seq), reverse=True)
    for top, below in zip(levels, levels[1:] + [0]):
        start = None
        for index, entry in enumerate(seq + (0,), start=2):
            if entry >= top:
                start = index if start is None else start
            elif start is not None:
                counts[start, index - 1] = counts.get((start, index - 1), 0) + top - below
                start = None
    return counts


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seq=west_sequences(500))
def test_record_matches_n_bounded_oracles_on_uniform_sequences(seq):
    # uniform draws up to n = 500, where m is far too large to simulate:
    # every oracle here costs a power of n
    rec = analyze_sequence(seq)
    n = rec.n
    for oriented in (seq, seq[::-1]):
        fan = fan_from_sequence(oriented)
        assert sequence_from_fan(fan, 1) == oriented
        assert sum(self_intersections(fan)) == -3 * n
    assert rec.rays == fan_from_sequence(seq).rays
    reg = regularity(seq)
    assert (rec.regular, rec.r, rec.s, rec.slack, rec.deformable) == (
        reg.regular, reg.r, reg.s, reg.slack, reg.deformable,
    )
    # the trace, compressed: its steps cover index t exactly k_t times, and
    # the divisor and the restriction accumulate over them with their
    # multiplicities
    steps = level_steps(seq)
    cover = [sum(count for (i, j), count in steps.items() if i <= t <= j) for t in range(2, n + 3)]
    assert tuple(cover) == seq
    assert sum(steps.values()) == rec.m
    plus, minus = [0] * (n + 2), [0] * (n + 2)
    c, cbar = [0] * (n + 2), [0] * (n + 2)
    for (i, j), count in steps.items():
        plus[i - 2] += count
        minus[j - 1] += count
        one, conj = restriction_oracle(ReductionTrace(n=n, steps=((i, j),)))
        c = [a + count * b for a, b in zip(c, one)]
        cbar = [a + count * b for a, b in zip(cbar, conj)]
    assert (rec.l_plus, rec.l_minus) == (tuple(plus), tuple(minus))
    assert restriction_multiplicities(rec) == (tuple(c), tuple(cbar))
    if rec.m <= SIMULATION_M_CAP:
        assert_matches_oracle(seq)
        expanded = {}
        for step in reduction_steps(seq):
            expanded[step] = expanded.get(step, 0) + 1
        assert expanded == steps


def record_pairs():
    """Two equal, separately built instances of each of the 14 record types;
    the first of each pair has its cached property, if any, read."""
    seq = (1, 2, 5, 3, 1)

    def build():
        rec = analyze_sequence(seq)
        model = minitwistor_model(seq)
        schedule = blow_up_schedule(seq)
        return [
            rec,
            rec.trace,
            HalfFan(rec.rays),
            trace_divisor(reduction_trace(seq)),
            regularity(seq),
            model,
            model.rhs,
            model.q,
            model.singularities[0],
            discriminant_deformed(seq),
            schedule,
            schedule.stages[-1],
            u1_classes(6)[-1],
            growth_report(4)[-1],
        ]

    first, second = build(), build()
    first[0].trace
    first[12].members
    assert len({type(value) for value in first}) == 14
    return list(zip(first, second))


def test_record_passes_through_and_is_frozen():
    rec = analyze_sequence((1, 2, 5, 3, 1))
    assert isinstance(rec, SequenceAnalysis)
    assert analyze_sequence(rec) is rec
    assert rec.trace is rec.trace  # built once, on first use
    for read, fresh in record_pairs():
        cls = type(read)
        assert read is not fresh
        # equality and hashing see the fields only, not a cached property
        assert read == fresh and not read != fresh
        # nor another type, not even the tuple of the same values
        assert read != object() and read != (*vars(fresh).values(),)
        assert hash(read) == hash(fresh)
        assert repr(read) == repr(fresh)
        assert repr(read).startswith(f"{cls.__name__}({cls._fields[0]}=")
        fields = {name: getattr(fresh, name) for name in cls._fields}
        assert cls(**fields) == cls(*fields.values()) == read
        for name in (*cls._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(read, name, None)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                delattr(read, name)
        assert {name: getattr(read, name) for name in cls._fields} == fields
        first, *rest = cls._fields
        with pytest.raises(TypeError):
            cls(**{name: fields[name] for name in rest})
        with pytest.raises(TypeError):
            cls(**fields, extra=None)
        with pytest.raises(TypeError):
            cls(fields[first], **fields)
        for copied in (copy.deepcopy(read), pickle.loads(pickle.dumps(read))):
            assert type(copied) is cls and copied == read
            with pytest.raises(AttributeError):
                setattr(copied, first, None)


def test_record_fields_and_defaults():
    assert DiscriminantReport._fields == (
        "deformed", "reducible_fiber_chains", "irreducible_fibers", "hyperplane_sections",
        "r", "s", "sections", "possibly_nonreduced",
    )
    report = DiscriminantReport(False, (), (), 0)
    assert (report.r, report.s, report.sections, report.possibly_nonreduced) == (
        None, None, ("Gamma", "Gamma_bar"), True,
    )
    stage = BlowUpStage(stage=1, description="base", centers=())
    assert (stage.plus_indices, stage.minus_indices) == ((), ())
    assert SingularityRecord("real-A", 1, Fraction(1)).index is None
    rec = analyze_sequence((1, 2, 1))
    fields = {name: getattr(rec, name) for name in SequenceAnalysis._fields if name != "note"}
    assert SequenceAnalysis(**fields).note is None
    reg = regularity((1, 2, 1))
    fields = {name: getattr(reg, name) for name in RegularityReport._fields if name != "note"}
    assert RegularityReport(**fields).note is None
    # the validating records still check their input
    with pytest.raises(InvalidFanError):
        HalfFan(((1, 0),))
    with pytest.raises(InvalidFanError):
        HalfFan(((1, 0), (0, 1), (1, 1)))
    with pytest.raises(InvalidParameterError):
        BinaryForm(degree=2, coefficients=(Fraction(1),))
    with pytest.raises(InvalidParameterError):
        BinaryForm(2, ())


def test_cached_properties_never_reach_json():
    for read, fresh in record_pairs():
        assert dumps(read) == dumps(fresh)
    cached = ((analyze_sequence((1, 2, 5, 3, 1)), "trace"), (u1_classes(6)[-1], "members"))
    for record, name in cached:
        getattr(record, name)
        assert name in vars(record) and name not in json.loads(dumps(record))


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
