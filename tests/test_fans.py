from __future__ import annotations

from itertools import product

import pytest

from minitwistor import (
    HalfFan,
    InvalidFanError,
    InvalidSequenceError,
    enumerate_marked,
    fan_from_sequence,
    is_valid_sequence,
    self_intersections,
    sequence_from_fan,
    validate_sequence,
)


def test_fan_from_sequence_examples():
    assert fan_from_sequence((1,)).rays == ((1, 0), (0, 1))
    assert fan_from_sequence((1, 1)).rays == ((1, 0), (0, 1), (-1, 1))
    assert fan_from_sequence((1, 2, 1)).rays == ((1, 0), (0, 1), (-1, 2), (-1, 1))


def test_fan_normalization_and_weights():
    seq = (1, 2, 5, 3, 1)
    fan = fan_from_sequence(seq)
    assert fan.rays[0] == (1, 0) and fan.rays[1] == (0, 1)
    # second coordinates are the weights under this normalization
    assert tuple(v[1] for v in fan.rays[1:]) == seq


@pytest.mark.parametrize(
    "seq,rule",
    [
        ((2, 1, 1), "k_2"),
        ((1, 2), "k_{n+2}"),
        ((1, 3, 1), "mediant"),
        ((1, 2, 2, 1), "mediant"),
        ((1, 0, 1), "positive"),
        ((), "non-empty"),
    ],
)
def test_invalid_sequences_name_the_rule(seq, rule):
    with pytest.raises(InvalidSequenceError) as err:
        validate_sequence(seq)
    assert rule in str(err.value)


def test_sequence_from_fan_round_trip_examples():
    fan = fan_from_sequence((1,))
    assert sequence_from_fan(fan, 1) == (1,)
    fan = fan_from_sequence((1, 2, 1))
    assert sequence_from_fan(fan, 1) == (1, 2, 1)


def test_sequence_from_fan_all_marks_of_level3_fan():
    # n = 3 carries a single torus action; its five markings must produce
    # exactly the five level-3 sequences
    fan = fan_from_sequence((1, 2, 3, 1))
    seqs = {sequence_from_fan(fan, marked) for marked in range(1, 6)}
    assert seqs == {(1, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1), (1, 3, 2, 1), (1, 2, 3, 1)}


def test_sequence_from_fan_mark_bounds():
    fan = fan_from_sequence((1, 1))
    with pytest.raises(IndexError):
        sequence_from_fan(fan, 0)
    with pytest.raises(IndexError):
        sequence_from_fan(fan, 4)


def test_self_intersections_examples():
    assert self_intersections(fan_from_sequence((1,))) == (0, 0)
    values = self_intersections(fan_from_sequence((1, 1)))
    assert values == (-1, -1, -1)
    assert 2 * sum(values) == 12 - 6 * 3
    values = self_intersections(fan_from_sequence((1, 2, 1)))
    assert 2 * sum(values) == 12 - 6 * 4


def test_self_intersection_recurrence_exhaustive():
    for n in range(7):
        for seq in enumerate_marked(n):
            fan = fan_from_sequence(seq)
            values = self_intersections(fan)
            rays = fan.rays
            for i in range(len(rays)):
                left = rays[i - 1] if i > 0 else (-rays[-1][0], -rays[-1][1])
                right = (
                    rays[i + 1]
                    if i + 1 < len(rays)
                    else (-rays[0][0], -rays[0][1])
                )
                assert left[0] + right[0] == -values[i] * rays[i][0]
                assert left[1] + right[1] == -values[i] * rays[i][1]
            assert 2 * sum(values) == 12 - 6 * (n + 2)


def test_round_trip_exhaustive_through_n6():
    for n in range(7):
        for seq in enumerate_marked(n):
            assert sequence_from_fan(fan_from_sequence(seq), 1) == seq
            rev = seq[::-1]
            assert sequence_from_fan(fan_from_sequence(rev), 1) == rev


def test_marked_round_trip_normalization():
    # re-deriving the sequence from the normalized reconstruction returns the
    # same sequence, for every fan and mark: two (fan, mark) pairs give equal
    # sequences exactly when they normalize identically
    for n in range(5):
        for seq in enumerate_marked(n):
            fan = fan_from_sequence(seq)
            for marked in range(1, n + 3):
                derived = sequence_from_fan(fan, marked)
                again = fan_from_sequence(derived)
                assert sequence_from_fan(again, 1) == derived


def _blow_down_reachable(seq, memo):
    # independent validity oracle: invert the insertions instead of solving
    # the unimodular chain
    if seq == (1,):
        return True
    if seq in memo:
        return memo[seq]
    ok = False
    if len(seq) >= 2 and seq[0] == 1 and seq[1] == 1:
        ok = _blow_down_reachable(seq[1:], memo)
    if not ok and len(seq) >= 2 and seq[-1] == 1 and seq[-2] == 1:
        ok = _blow_down_reachable(seq[:-1], memo)
    if not ok:
        for i in range(1, len(seq) - 1):
            if seq[i] == seq[i - 1] + seq[i + 1] and _blow_down_reachable(
                seq[:i] + seq[i + 1 :], memo
            ):
                ok = True
                break
    memo[seq] = ok
    return ok


def test_validity_equals_blow_down_reachability():
    # chain validity, insertion generation and blow-down reachability agree
    # on every candidate tuple through n = 5
    fib = (1, 1, 2, 3, 5, 8)
    memo: dict = {}
    for n in range(1, 6):
        generated = set(enumerate_marked(n))
        bound = fib[n]
        for middle in product(range(1, bound + 1), repeat=n - 1):
            seq = (1,) + middle + (1,)
            valid = is_valid_sequence(seq)
            assert valid == _blow_down_reachable(seq, memo)
            assert valid == (min(seq, seq[::-1]) in generated)


def test_unnormalized_fans_are_accepted():
    # validity does not require the (1,0), (0,1) normalization
    fan = HalfFan(((1, 0), (1, 1), (0, 1)))
    assert sequence_from_fan(fan, 1) == (1, 1)


def test_invalid_fans():
    with pytest.raises(InvalidFanError):
        HalfFan(((2, 0), (0, 1)))  # not primitive
    with pytest.raises(InvalidFanError):
        HalfFan(((1, 0), (1, 2)))  # consecutive rays not unimodular
    with pytest.raises(InvalidFanError):
        HalfFan(((1, 0), (0, 1), (-1, 0)))  # leaves the open half-turn
    with pytest.raises(InvalidFanError):
        HalfFan(((1, 0), (0, 1), (-1, 2)))  # half-turn does not close unimodularly
    with pytest.raises(InvalidFanError):
        HalfFan(((1, 0),))
