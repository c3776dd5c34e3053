from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import pkgutil
import random
import time
from math import comb

import pytest

import minitwistor

from minitwistor import (
    FIBONACCI_TABLE,
    KNOWN_DELTA,
    enumerate_marked,
    family_fibonacci,
    family_involutive,
    family_lebrun,
    growth_report,
    u1_classes,
    u1_key,
)
from minitwistor import catalog
from minitwistor.catalog import (
    CatalogCache,
    _ENTRY_BYTES,
    _MAX_ENTRY,
    _MAX_LEVEL,
    _block_keys,
    _block_table,
    _listing,
    _marked_level,
    _marked_rows,
    _windows,
    u1_classes_cached,
)
from minitwistor.invariants import (
    _multiplicities,
    l_vector,
    reduction_trace,
    regularity,
    sequence_l_vector,
    trace_divisor,
)
from minitwistor.errors import InternalInvariantError, InvalidParameterError
from minitwistor.cli import main

from support import (
    block_rows,
    fibonacci,
    greedy_maximal_step,
    grouped_classes,
    insertions,
    is_valid_sequence,
    marked_by_insertion,
    marked_tuples,
    mediant_stop,
    oriented_sequences,
    pack,
    reversal_canonical,
    tree_count,
    unpack,
    unpack_key,
    west_children,
    west_sample,
)

#: marked sequences up to reversal, frozen from the generator (regression)
MARKED_COUNTS = {0: 1, 1: 1, 2: 2, 3: 3, 4: 9, 5: 22, 6: 71, 7: 217, 8: 729}

#: class counts beyond the known range, frozen from the generator (regression)
DELTA_REGRESSION = {6: 42, 7: 119, 8: 376}


# ---------------------------------------------------------------------------
# insertion generation


def test_insertions_base():
    assert insertions((1,)) == [(1, 1), (1, 1)]


def test_insertions_multiset_level4():
    children = insertions((1, 1, 1, 1))
    assert len(children) == 5
    assert sorted(children) == sorted(
        [(1, 1, 1, 1, 1), (1, 1, 1, 1, 1), (1, 2, 1, 1, 1), (1, 1, 2, 1, 1), (1, 1, 1, 2, 1)]
    )


def test_insertions_of_staircase():
    children = set(insertions((1, 2, 3, 1)))
    assert (1, 2, 5, 3, 1) in children
    assert (1, 2, 3, 4, 1) in children
    assert children == {
        (1, 1, 2, 3, 1), (1, 2, 3, 1, 1), (1, 3, 2, 3, 1), (1, 2, 5, 3, 1), (1, 2, 3, 4, 1),
    }


def test_enumerate_small_levels():
    assert enumerate_marked(0) == ((1,),)
    assert enumerate_marked(1) == ((1, 1),)
    assert set(enumerate_marked(2)) == {(1, 1, 1), (1, 2, 1)}
    assert set(enumerate_marked(3)) == {(1, 1, 1, 1), (1, 1, 2, 1), (1, 2, 3, 1)}


def test_enumerate_counts_regression():
    for n, count in MARKED_COUNTS.items():
        assert len(enumerate_marked(n)) == count


def test_every_sequence_without_a_leading_pair_of_ones_has_an_interior_mediant():
    # so an appended 1 is never a sequence's leftmost removable entry, and
    # enumerate_marked generates no appended child
    for n in range(2, 12):
        for seq in oriented_sequences(n):
            if seq[1] != 1:
                assert any(
                    seq[j] == seq[j - 1] + seq[j + 1] for j in range(1, len(seq) - 1)
                ), seq


def test_level4_collapses_nine_to_seven():
    assert len(enumerate_marked(4)) == 9
    assert len(u1_classes(4)) == 7


def test_enumeration_matches_the_insertion_oracle():
    for n, expected in enumerate(marked_by_insertion(12)):
        level = enumerate_marked(n)
        assert level == expected
        assert len(set(level)) == len(level)
        # reversal pairs up the C_n sequences of the level and fixes the
        # palindromes
        palindromes = sum(seq == seq[::-1] for seq in expected)
        assert len(level) == (comb(2 * n, n) // (n + 1) + palindromes) // 2


def test_windows_match_the_filtered_levels():
    # the direct window generator against the levels it replaced: the
    # windows of weight j are the level-j sequences with exactly two ones,
    # in both orientations, each built once, and the reversal-canonical ones
    # are the b(j) blocks that growth_report counts
    weights = 0
    for j, packed in enumerate(_windows(12), start=2):
        windows = [unpack(window) for window, _, _ in packed]
        filtered = sorted(
            oriented
            for rep in enumerate_marked(j)
            if rep.count(1) == 2
            for oriented in {rep, rep[::-1]}
        )
        assert sorted(windows) == filtered, j
        catalan = [comb(2 * i, i) // (i + 1) for i in range(j)]
        b = (catalan[j - 1] + (catalan[j // 2 - 1] if j % 2 == 0 else 0)) // 2
        assert sum(window <= window[::-1] for window in windows) == b, j
        weights += 1
    assert weights == 11
    assert list(_windows(1)) == list(_windows(0)) == []


def test_windows_carry_their_stop_and_share():
    # each window's stop and share against the scan and the sum they
    # replace, through weight 12; the block table's rows against their
    # definition; and the largest entry of each weight, F(j + 1)
    for j, windows in enumerate(_windows(12), start=2):
        for window, stop, share in windows:
            entries = unpack(window)
            assert stop == mediant_stop(entries), entries
            assert share == sum(abs(v - u) for u, v in zip(entries, entries[1:])) // 2, entries
        assert max(max(map(ord, window)) for window, _, _ in windows) == fibonacci(j + 1), j
    for n in range(13):
        windows = [unpack(window) for weight in _windows(n) for window, _, _ in weight]
        blocks = {reversal_canonical(window[1:-1]) for window in windows}
        table = {unpack(block): row for block, row in _block_table(n).items()}
        assert table == block_rows(blocks), n


def test_packed_levels_match_the_tuple_generator():
    # the packed generator against the same walk on tuples of entries, and
    # enumerate_marked against both
    for n in range(12):
        level = marked_tuples(n)
        assert [unpack(rep) for rep in _marked_level(n)] == list(level), n
        assert enumerate_marked(n) == level, n
        assert _marked_rows(n) == "".join("\n  " + ",".join(map(str, rep)) for rep in level), n
        if n:
            assert max(map(max, level)) == fibonacci(n + 1), n


def test_entry_tables_cover_the_largest_entry():
    # the tables reach exactly the largest entry at the level limit, F(15) =
    # 610, the peak of the maximal-step sequence (the largest entry of each
    # level is checked by enumeration above, through level 12), and an
    # entry past the rendering table raises
    peak = family_fibonacci(_MAX_LEVEL)
    assert max(peak) == _MAX_ENTRY == fibonacci(_MAX_LEVEL + 1)
    assert len(_ENTRY_BYTES) == _MAX_ENTRY + 1
    assert _ENTRY_BYTES[1:] == tuple(f",{k}".encode() for k in range(1, _MAX_ENTRY + 1))
    assert _listing([pack(peak)]) == "\n  " + ",".join(map(str, peak))
    with pytest.raises(UnicodeEncodeError):
        _listing([pack(peak + (_MAX_ENTRY + 1, 1))])


def leftmost_removable_parent(c):
    """c with its leftmost removable entry deleted, from the definition: entry
    0 when c[1] == 1, an interior entry when it is the mediant of its
    neighbors, the last entry when c[-2] == 1."""
    last = len(c) - 1
    removable = [0] if c[1] == 1 else []
    removable += [j for j in range(1, last) if c[j] == c[j - 1] + c[j + 1]]
    removable += [last] if c[-2] == 1 else []
    r = min(removable)
    return c[:r] + c[r + 1 :]


def generating_tree_label(p):
    """stop(p), with the two cases the generators settle before the scan."""
    if p == (1,):
        return 1
    return 2 if p[1] == 1 else mediant_stop(p)


def test_mediant_stop_is_the_generating_tree_label():
    # grouped by the parent the definition gives them, the oriented children
    # of each oriented p, levels 0..10, are West's children of a node of
    # label stop(p): stop(p) of them, (1,) + p with label 2 and the mediant
    # at adjacency i with label i + 2
    for n in range(11):
        children = {}
        for c in oriented_sequences(n + 1):
            children.setdefault(leftmost_removable_parent(c), set()).add(c)
        assert set(children) == set(oriented_sequences(n)), n
        for p, kids in children.items():
            k = generating_tree_label(p)
            tree = set(west_children(p, k))
            assert len(tree) == len(kids) == k, p
            assert tree == {(c, generating_tree_label(c)) for c in kids}, p


def test_generating_tree_counts_are_catalan():
    # the closed form of tree_count obeys its defining recurrence
    for k in range(1, 25):
        assert tree_count(k, 0) == 1
        for d in range(1, 25):
            assert tree_count(k, d) == sum(tree_count(j, d - 1) for j in range(2, k + 2)), (k, d)
    for n in range(13):
        assert tree_count(1, n) == comb(2 * n, n) // (n + 1), n


def test_generating_tree_sampler_reaches_every_sequence():
    rng = random.Random(2024)
    draws = {west_sample(6, rng) for _ in range(3000)}
    assert draws == set(oriented_sequences(6)) and len(draws) == 132
    assert west_sample(0, rng) == (1,)
    for _ in range(20):
        seq = west_sample(100, rng)
        assert len(seq) == 101 and is_valid_sequence(seq), seq


def test_enumerate_marked_is_the_only_memo(count_calls):
    # the benchmark clears this one memo to make each catalog miss cold
    memos = set()
    for info in pkgutil.iter_modules(minitwistor.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"minitwistor.{info.name}")
        for value in vars(module).values():
            members = list(vars(value).values()) if isinstance(value, type) else []
            memos |= {
                f"{obj.__module__}.{obj.__qualname__}"
                for obj in [value, *members]
                if hasattr(obj, "cache_info")
            }
    assert memos == {"minitwistor.catalog.enumerate_marked"}
    # the blocks are generated directly, so the classes neither call the
    # level memo nor leave anything in it, cold or warm
    enumerate_marked.cache_clear()
    calls = count_calls("catalog", "enumerate_marked")
    cold = enumerate_marked.cache_info()
    u1_classes(6)
    assert enumerate_marked.cache_info() == cold and cold.currsize == 0
    assert calls == []
    # the levels are built in a loop, not by recursion through the memo, so
    # a request memoizes only its own level
    enumerate_marked(5)
    warm = enumerate_marked.cache_info()
    assert warm.currsize == 1
    assert calls == []
    for n in range(9):
        u1_classes(n)
    assert enumerate_marked.cache_info() == warm
    assert calls == []


def test_level_limit_is_checked_before_any_work(count_calls, tmp_path):
    calls = count_calls("catalog", "enumerate_marked")
    for call, n in ((enumerate_marked, 15), (u1_classes, 15), (growth_report, 5000)):
        with pytest.raises(InvalidParameterError, match="limit n <= 14"):
            call(n)
    for call in (enumerate_marked, u1_classes, growth_report):
        with pytest.raises(InvalidParameterError, match="nonnegative"):
            call(-1)
    # the direct call goes through this module's unwrapped binding, so an
    # empty list means no recursion and no call from the others
    assert calls == []
    # a cache file for a negative level, or one above the limit, is never
    # read: the level is rejected first, by the library and by the CLI
    cache = CatalogCache(tmp_path)
    for n, message in (
        (-1, "n must be nonnegative"),
        (15, "n = 15 is above the enumeration limit n <= 14"),
    ):
        payload = {"version": 4, "n": n, "classes": []}
        cache.path(n).write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(InvalidParameterError, match=f"^{message}$"):
            u1_classes_cached(n, cache)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(["catalog", "--n", str(n), "--cache-dir", str(tmp_path)]) == 2
        assert out.getvalue() == "" and err.getvalue() == f"error: {message}\n"


def test_enumeration_is_partition_independent():
    # the order-independence contract: expanding parent chunks separately and
    # merging must reproduce the single-pass result bit for bit
    parents = enumerate_marked(5)
    chunks = [parents[0::3], parents[1::3], parents[2::3]]
    merged: set = set()
    for chunk in chunks:
        for parent in chunk:
            for child in insertions(parent):
                merged.add(reversal_canonical(child))
    assert tuple(sorted(merged)) == enumerate_marked(6)


# ---------------------------------------------------------------------------
# circle-action classes


def test_u1_key_examples():
    assert u1_key((1, 1, 1, 1)) == ()
    assert u1_key((1, 2, 1, 1, 1)) == ((2,),)
    assert u1_key((1, 1, 2, 1, 1)) == ((2,),)
    assert u1_key((1, 2, 3, 1, 1)) == ((2, 3),)
    assert u1_key((1, 1, 3, 2, 1)) == ((2, 3),)
    assert u1_key((1, 2, 1, 2, 3, 1)) == ((2,), (2, 3))
    assert u1_key((1, 2, 1, 3, 2, 1)) == ((2,), (2, 3))


def test_delta_known_values():
    for n, expected in enumerate(KNOWN_DELTA):
        assert len(u1_classes(n)) == expected


def test_delta_regression_values():
    for n, expected in DELTA_REGRESSION.items():
        assert len(u1_classes(n)) == expected


def test_level4_representatives_match_known_seven():
    known = [
        (1, 1, 1, 1, 1),
        (1, 2, 1, 1, 1),
        (1, 2, 1, 2, 1),
        (1, 2, 3, 1, 1),
        (1, 3, 2, 3, 1),
        (1, 2, 5, 3, 1),
        (1, 2, 3, 4, 1),
    ]
    classes = u1_classes(4)
    assert len(classes) == 7
    hit_classes = set()
    for rep in known:
        owners = [c.canonical for c in classes if rep in c.members]
        assert len(owners) == 1
        hit_classes.add(owners[0])
    assert len(hit_classes) == 7


def test_class_structure():
    # m, l and slack of every class against the decrement-simulation oracle
    for n in range(9):
        for cls in u1_classes(n):
            assert cls.canonical in cls.members
            slacks = []
            for member in cls.members:
                assert member[::-1] in cls.members
                assert u1_key(member) == cls.u1_key
                assert reduction_trace(member).m == cls.m
                if not regularity(member).semi_free:
                    slacks.append(regularity(member).slack)
            assert cls.l == l_vector(trace_divisor(reduction_trace(cls.canonical)))
            assert cls.slack == (max(slacks) if slacks else None)
            # every spare one sits in the canonical member's leading run,
            # then each block is followed by a one, in key order
            lead = n + 1 - sum(map(len, cls.u1_key)) - len(cls.u1_key)
            tail = tuple(entry for block in cls.u1_key for entry in block + (1,))
            assert cls.canonical == min(cls.members) == (1,) * lead + tail
            if cls.u1_key:
                assert cls.slack == n - sum(map(len, cls.u1_key)) - len(cls.u1_key)


def window_blocks(max_level):
    """Blocks B of entries > 1 whose window (1, B, 1) is a valid sequence."""
    return [
        seq[1:-1]
        for n in range(2, max_level + 1)
        for seq in enumerate_marked(n)
        if len(seq) >= 3 and min(seq[1:-1]) > 1
    ]


def assemble(blocks, runs):
    """Interleave runs of ones with blocks: runs[0], blocks[0], runs[1], ..."""
    seq = runs[0]
    for block, run in zip(blocks, runs[1:]):
        seq += block + run
    return seq


def test_validity_is_local_to_block_windows():
    # the lemma behind CatalogClass.slack: after an entry 1 the ray chain
    # restarts, so a sequence is valid exactly when every window (1, B, 1)
    # is, whatever the order, orientation and spacing of the blocks
    rng = random.Random(805_0042)
    blocks = window_blocks(7)
    for _ in range(300):
        chosen = [rng.choice(blocks) for _ in range(rng.randint(1, 4))]
        chosen = [b[::-1] if rng.random() < 0.5 else b for b in chosen]
        runs = [(1,) * rng.randint(1, 3) for _ in range(len(chosen) + 1)]
        assert is_valid_sequence(assemble(chosen, runs))
        # raising one entry of one block breaks its window and the sequence
        target = rng.randrange(len(chosen))
        block = chosen[target]
        position = rng.randrange(len(block))
        broken = block[:position] + (block[position] + 1,) + block[position + 1 :]
        assert not is_valid_sequence((1,) + broken + (1,))
        parts = chosen[:target] + [broken] + chosen[target + 1 :]
        assert not is_valid_sequence(assemble(parts, runs))


def test_u1_classes_validate_no_sequence(count_calls):
    # the blocks are valid by construction and every field is a closed form
    validated = count_calls("fans", "validate_sequence")
    analyzed = count_calls("invariants", "analyze_sequence")
    for n in (6, 7, 8):
        enumerate_marked.cache_clear()
        u1_classes(n)
    assert validated == analyzed == []


def test_u1_classes_key_no_sequence(count_calls):
    calls = count_calls("catalog", "u1_key")
    for n in (6, 7, 8):
        u1_classes(n)
    assert calls == []


def test_u1_classes_match_the_grouping_oracle():
    for n in range(11):
        classes = u1_classes(n)
        fields = [(c.u1_key, c.canonical, c.members, c.m, c.l, c.slack) for c in classes]
        assert fields == grouped_classes(n), n
        for cls in classes:
            # the arrangement lists each member once, as many as counted
            assert len(set(cls.members)) == len(cls.members) == cls.member_count


def test_class_slack_is_max_over_members():
    by_key = {cls.u1_key: cls for cls in u1_classes(5)}
    mixed = by_key[((2,), (2,))]
    # (1,2,1,2,1,1) has slack 1 but the member (1,2,1,1,2,1) only 0
    assert {regularity(member).slack for member in mixed.members} == {0, 1}
    assert mixed.slack == 1
    semi_free = by_key[()]
    assert semi_free.slack is None


def test_involutive_classes_determined_by_count_of_twos():
    for n in range(1, 7):
        for seq in enumerate_marked(n):
            if max(seq) <= 2:
                assert u1_key(seq) == ((2,),) * seq.count(2)


def test_end_insertion_injectivity():
    # prepending 1 preserves the class key, so distinct classes at n-1 land
    # in distinct classes at n
    for n in range(1, 9):
        previous = u1_classes(n - 1)
        images = {u1_key((1,) + cls.canonical) for cls in previous}
        assert len(images) == len(previous)
        current_keys = {cls.u1_key for cls in u1_classes(n)}
        assert images <= current_keys


# ---------------------------------------------------------------------------
# named families


def test_family_lebrun_counts_and_members():
    members = family_lebrun(4)
    assert [f.k for f in members] == [
        (1, 1, 1, 1, 1), (1, 2, 3, 4, 1), (1, 2, 3, 1, 1), (1, 2, 1, 2, 1),
    ]
    assert len(family_lebrun(3)) == 3
    for n in range(3, 11):
        assert len(family_lebrun(n)) == n // 2 + 2


def test_family_lebrun_slack_pattern():
    for n in range(3, 11):
        members = family_lebrun(n)
        deformable = [f for f in members if not f.semi_free and f.slack > 0]
        assert len(deformable) == 1
        short_staircase = tuple(range(1, n)) + (1, 1)
        assert deformable[0].k == short_staircase
        assert deformable[0].slack == 1


def test_family_lebrun_marks_of_one_fan():
    # every family sequence is a marking of the single staircase fan
    from minitwistor import fan_from_sequence, sequence_from_fan

    for n in (3, 4, 5, 6):
        fan = fan_from_sequence(tuple(range(1, n + 1)) + (1,))
        marks = {
            reversal_canonical(sequence_from_fan(fan, t)) for t in range(1, n + 3)
        }
        for member in family_lebrun(n):
            assert reversal_canonical(member.k) in marks


def test_family_involutive():
    members = family_involutive(7)
    assert [f.k for f in members] == [
        (1, 1, 1, 1, 1, 1, 1, 1),
        (1, 2, 1, 1, 1, 1, 1, 1),
        (1, 2, 1, 2, 1, 1, 1, 1),
        (1, 2, 1, 2, 1, 2, 1, 1),
    ]
    assert [f.slack for f in members] == [None, 5, 3, 1]
    members = family_involutive(4)
    assert [f.slack for f in members] == [None, 2, 0]
    for n in range(1, 9):
        assert len(family_involutive(n)) == n // 2 + 1


def test_family_involutive_multiplicity_free():
    for n in range(1, 9):
        for member in family_involutive(n):
            assert all(l <= 1 for l in sequence_l_vector(member.k))


def test_family_fibonacci_table():
    for n, (seq, lvec, m) in FIBONACCI_TABLE.items():
        assert family_fibonacci(n) == seq
        assert sequence_l_vector(seq) == lvec
        assert reduction_trace(seq).m == m == fibonacci(n + 1)


def test_family_fibonacci_rows_are_checked_against_the_stored_table(monkeypatch):
    seq, lvec, m = FIBONACCI_TABLE[4]
    monkeypatch.setitem(FIBONACCI_TABLE, 4, (seq, lvec, m + 1))
    with pytest.raises(InternalInvariantError, match=r"family_fibonacci: \(1,2,5,3,1\): row"):
        family_fibonacci(4)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(["tables", "fibonacci"]) == 3
    assert out.getvalue() == ""
    assert family_fibonacci(3) == FIBONACCI_TABLE[3][0]


def test_family_fibonacci_matches_the_greedy_walk():
    for n in range(2, 61):
        assert family_fibonacci(n) == greedy_maximal_step(n), n


def test_family_limit_is_checked_before_any_work(count_calls):
    calls = count_calls("catalog", "analyze_sequence")
    for family in (family_lebrun, family_involutive, family_fibonacci):
        with pytest.raises(InvalidParameterError, match="limit n <= 500"):
            family(501)
    # the table of levels 2..501 stops before its first row
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(["tables", "fibonacci", "--n-max", "501"]) == 2
    assert calls == []
    assert len(family_lebrun(500)) == 252
    assert max(family_fibonacci(500)) == fibonacci(501)


def test_family_fibonacci_is_argmax_through_n8():
    for n in range(2, 9):
        best = max(reduction_trace(seq).m for seq in enumerate_marked(n))
        seq = family_fibonacci(n)
        assert reduction_trace(seq).m == best == fibonacci(n + 1)


# ---------------------------------------------------------------------------
# growth report and cache


def test_growth_report():
    rows = growth_report(8)
    deltas = tuple(row.delta for row in rows)
    assert deltas == (1, 1, 2, 3, 7, 15, 42, 119, 376)
    assert all(a <= b for a, b in zip(deltas, deltas[1:]))
    assert rows[0].ratio is None
    for row in rows[1:]:
        assert row.ratio > 0
        assert row.marked_classes == MARKED_COUNTS[row.n]


def test_growth_report_matches_the_enumeration():
    for row in growth_report(12):
        assert row.delta == len(u1_classes(row.n)), row.n
        assert row.marked_classes == len(enumerate_marked(row.n)), row.n


def test_tables_delta_and_fibonacci_enumerate_nothing(count_calls):
    classified = count_calls("catalog", "u1_classes")
    enumerated = count_calls("catalog", "enumerate_marked")
    analyzed = count_calls("invariants", "analyze_sequence")
    for argv in (["delta", "--n-max", "14"], ["delta", "--n-max", "14", "--format", "json"]):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["tables", *argv]) == 0
        assert time.perf_counter() - start < 1, argv
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["tables", "fibonacci", "--n-max", "16"]) == 0
    assert classified == enumerated == []
    # one analysis per row of levels 2..16, read by the table from the record
    # the family check builds
    assert len(analyzed) == 15


def load(cache, n):
    """The cache's answer for the level's own table and keys: the keys,
    decoded as the records hold them, when the file already holds store's
    bytes for them, or None for a miss."""
    table = _block_table(n)
    keys = cache.load(n, table, _block_keys(n, table))
    return None if keys is None else [unpack_key(key) for key in keys]


def store(cache, n):
    """The cache's one writer on the level's own table and keys."""
    table = _block_table(n)
    return cache.store(n, table, _block_keys(n, table))


def stored_bytes(n):
    """The bytes of the level-n file: json.dumps of its payload, the oracle
    for store."""
    payload = {"version": 4, "n": n, "classes": [cls.u1_key for cls in u1_classes(n)]}
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def test_cache_round_trip(tmp_path):
    cache = CatalogCache(tmp_path)
    classes = u1_classes_cached(4, cache)
    assert len(classes) == 7
    assert cache.path(4).exists()
    # load returns the keys, and the hit builds the miss's records from them
    assert load(cache, 4) == [cls.u1_key for cls in classes]
    # and leaves the file as it is, neither rewritten nor replaced
    path = cache.path(4)
    os.utime(path, ns=(10**18, 10**18))
    before = path.stat()
    assert u1_classes_cached(4, cache) == classes
    after = path.stat()
    assert (after.st_mtime_ns, after.st_ino) == (before.st_mtime_ns, before.st_ino)


def version_2_payload(n, classes):
    """A cache file as format 2 wrote it: every field of every class."""
    fields = ("canonical", "members", "u1_key", "m", "l", "slack")
    return {"version": 2, "n": n, "classes": [{f: getattr(c, f) for f in fields} for c in classes]}


def version_3_payload(n, classes):
    """A cache file as format 3 wrote it: each class's sorted member list."""
    return {"version": 3, "n": n, "classes": [cls.members for cls in classes]}


def with_payload(edit):
    """An edit of the file's bytes: its payload passed through edit and
    written back in store's layout, the field order kept."""
    return lambda good: (json.dumps(edit(json.loads(good))) + "\n").encode("utf-8")


def with_fields(**fields):
    """An edit of the file's bytes: its payload with these fields replaced."""
    return with_payload(lambda payload: {**payload, **fields})


def with_keys(edit):
    """An edit of the file's bytes: its keys, as lists, passed through edit."""
    return with_payload(lambda payload: {**payload, "classes": edit(payload["classes"])})


def replacing(old, new):
    """An edit of the file's bytes: the key old, as lists, replaced by new."""
    return with_keys(lambda keys: [new if key == old else key for key in keys])


#: Edits of the level-n file that store writes, each by a function of its
#: bytes, by name; every one is a miss, after which the file holds store's
#: bytes again.
EDITED_FILES = {
    # unparsable or too deeply nested text, JSON of the wrong shape, and the
    # files formats 2 and 3 wrote
    "unparsable": (3, lambda good: b"{not json"),
    "too deep": (3, lambda good: b"[" * 100_000 + b"]" * 100_000),
    "a list": (3, lambda good: b"[1,2]"),
    "a string": (3, lambda good: b'"catalog"'),
    "a number": (3, lambda good: b"7"),
    "no classes": (3, lambda good: b'{"version": 4, "n": 3}'),
    **{
        f"classes {shape}": (3, with_fields(classes=shape))
        for shape in (5, [5], [[5]], [[["xyz"]]], [[[[2]]]], [{"blocks": []}], [[[2.0]]])
    },
    # a dict of delta(1) = 1 entry, whose key "" once packed as the one
    # empty key of level 1
    "classes a dict": (1, with_fields(classes={"": 0})),
    "version 2": (3, lambda good: json.dumps(version_2_payload(3, u1_classes(3))).encode()),
    "version 3": (3, lambda good: json.dumps(version_3_payload(3, u1_classes(3))).encode()),
    # a float, NaN or infinity, even where it equals the integer, and an
    # entry that is no code point: too large for one, or negative
    "version 4.0": (3, with_fields(version=4.0)),
    "n 3.0": (3, with_fields(n=3.0)),
    **{
        f"entry {value}": (3, with_fields(classes=[[], [[2]], [[2, value]]]))
        for value in (3.0, float("nan"), float("inf"), 2**64, 0x110000, -3)
    },
    # JSON's 2.0 equals and hashes like 2, and a block holding true is no
    # block of level 3
    **{
        f"key {key.decode()}": (3, lambda good, key=key: good.replace(b"[[2]]", key))
        for key in (b"[[2.0]]", b"[[true]]", b"[[2, true]]")
    },
    # keys that are not the classes of level 3: an invalid block ((1, 4, 1)
    # is no sequence, and [4] counts as many members as [2]), a valid block
    # in the wrong orientation, a repeated key, a key heavier than n and a
    # dropped class
    "invalid block": (3, with_fields(classes=[[], [[4]], [[2, 3]]])),
    "reversed block": (3, with_fields(classes=[[], [[2]], [[3, 2]]])),
    "repeated key": (3, with_fields(classes=[[], [[2]], [[2]]])),
    "heavier key": (3, with_fields(classes=[[], [[2]], [[2, 3]], [[2], [2]]])),
    "dropped key": (3, with_fields(classes=[[], [[2]]])),
    # edits that keep the keys distinct, delta(n) of them, within the
    # weight bound and with every window valid, whose member counts still
    # add up to C_n: a block with an interior one in place of the two
    # blocks it joins, a non-palindromic block reversed, an empty block
    # beside (2), whose window (1,1) is valid, and a key whose blocks are
    # out of order
    "joined blocks": (4, replacing([[2], [2]], [[2, 1, 2]])),
    "joined blocks at level 5": (5, replacing([[2], [2]], [[2, 1, 2]])),
    "reversed block at level 5": (5, replacing([[2, 3]], [[3, 2]])),
    "empty block": (3, replacing([[2]], [[], [2]])),
    "unsorted blocks": (5, replacing([[2], [2, 3]], [[2, 3], [2]])),
    # at level 7, past the n <= 5 that KNOWN_DELTA covers: a dropped key,
    # one duplicated in place of another or beside the rest, and two copies
    # of the valid block (2, 5, 3), a key of weight 8 > n, likewise
    "dropped key at level 7": (7, with_keys(lambda keys: keys[:5] + keys[6:])),
    "duplicated in place": (7, with_keys(lambda keys: keys[:5] + [keys[4]] + keys[6:])),
    "duplicated beside": (7, with_keys(lambda keys: keys + [keys[4]])),
    "heavier in place": (7, with_keys(lambda keys: keys[:5] + [[[2, 5, 3]] * 2] + keys[6:])),
    "heavier beside": (7, with_keys(lambda keys: keys + [[[2, 5, 3]] * 2])),
    # the true keys in another order, which a hit once read and sorted, in
    # store's own layout, and the true file in UTF-16
    "keys reordered": (3, with_fields(classes=[[[2, 3]], [], [[2]]])),
    "keys shuffled at level 7": (
        7, with_keys(lambda keys: random.Random(7).sample(keys, len(keys)))
    ),
    "UTF-16": (7, lambda good: good.decode("utf-8").encode("utf-16")),
    # bytes past the file's end, and its line break as CRLF
    "one more line break": (4, lambda good: good + b"\n"),
    "CRLF": (4, lambda good: good[:-1] + b"\r\n"),
    # truncated files
    "truncated to nothing": (4, lambda good: b""),
    "truncated to a byte": (4, lambda good: good[:1]),
    "truncated to half": (4, lambda good: good[: len(good) // 2]),
    "truncated by 2 bytes": (4, lambda good: good[:-2]),
}


@pytest.mark.parametrize(("n", "edit"), EDITED_FILES.values(), ids=EDITED_FILES.keys())
def test_cache_rewrites_an_edited_file(tmp_path, n, edit):
    cache = CatalogCache(tmp_path)
    argv = ["--n", str(n), "--cache-dir", str(tmp_path)]
    fresh = run_catalog(["--n", str(n), "--no-cache"])
    assert run_catalog(argv) == fresh
    good = cache.path(n).read_bytes()
    assert good == stored_bytes(n)
    data = edit(good)
    assert data != good
    cache.path(n).write_bytes(data)
    assert load(cache, n) is None
    assert run_catalog(argv) == fresh
    assert cache.path(n).read_bytes() == good


def run_catalog(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["catalog", *argv]) == 0
    return out.getvalue()


def test_edited_cache_file_prints_true_classes(tmp_path):
    def catalog_after_edit(n, payload, fmt="text"):
        argv = ["--n", str(n), "--format", fmt, "--cache-dir", str(tmp_path)]
        CatalogCache(tmp_path).path(n).write_text(json.dumps(payload), encoding="utf-8")
        assert load(CatalogCache(tmp_path), n) is None
        return run_catalog(argv)

    # format 2 stored every field, and a hit once printed them as edited
    fresh = run_catalog(["--n", "4", "--no-cache"])
    assert "  1,2,1,2,1  members=1 m=3 slack=0\n" in fresh
    payload = version_2_payload(4, u1_classes(4))
    (edited,) = [entry for entry in payload["classes"] if entry["canonical"] == (1, 2, 1, 2, 1)]
    edited.update(m=99, slack=7, l=[1, 1, 1, 1, 1, 1])
    assert catalog_after_edit(4, payload) == fresh
    # format 3 stored member lists, and a hit listed an invalid member that
    # it counted but never walked
    fresh = run_catalog(["--n", "5", "--format", "json", "--no-cache"])
    payload = version_3_payload(5, u1_classes(5))
    (index,) = [i for i, members in enumerate(payload["classes"]) if (1, 1, 2, 1, 2, 1) in members]
    members = list(payload["classes"][index])
    members[members.index((1, 2, 1, 1, 2, 1))] = (2, 1, 1, 1, 1, 2)
    payload["classes"][index] = members
    assert catalog_after_edit(5, payload, "json") == fresh
    # format 4: a block that no window accepts, 3 in place of 2
    fresh = run_catalog(["--n", "2", "--no-cache"])
    assert fresh.endswith("  1,2,1  members=1 m=2 slack=0\n")
    payload = {"version": 4, "n": 2, "classes": [[], [[3]]]}
    assert catalog_after_edit(2, payload) == fresh
    # and 4 in place of 2 at level 5, in both formats
    for fmt in ("text", "json"):
        fresh = run_catalog(["--n", "5", "--format", fmt, "--no-cache"])
        payload = {"version": 4, "n": 5, "classes": [cls.u1_key for cls in u1_classes(5)]}
        payload["classes"][payload["classes"].index(((2,),))] = [[4]]
        assert catalog_after_edit(5, payload, fmt) == fresh
    # a stray "delta" is a miss: the listing counts its own classes
    fresh = run_catalog(["--n", "7", "--no-cache"])
    assert fresh.startswith("n = 7: delta = 119 ")
    assert run_catalog(["--n", "7", "--cache-dir", str(tmp_path)]) == fresh
    path = CatalogCache(tmp_path).path(7)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["delta"] = 99
    assert catalog_after_edit(7, payload) == fresh
    # a dropped class, past the n <= 5 that KNOWN_DELTA covers
    del payload["classes"][5]
    assert catalog_after_edit(7, payload) == fresh


def test_member_count_closed_form():
    # the grouping oracle reaches n <= 10; through n = 12 each class's m and
    # l are also checked against its canonical member's own differences
    for n in range(13):
        classes = u1_classes(n)
        if n <= 10:
            grouped = {key: len(members) for key, _, members, *_ in grouped_classes(n)}
            assert {cls.u1_key: cls.member_count for cls in classes} == grouped
        for cls in classes:
            _, l, m = _multiplicities(cls.canonical)
            assert (cls.m, cls.l) == (m, l), cls.canonical
        # and the counts add up to the Catalan number C_n of level-n
        # sequences, counted in both orientations
        assert sum(cls.member_count for cls in classes) == comb(2 * n, n) // (n + 1)


def test_cache_hit_prints_what_the_miss_printed(tmp_path, count_calls):
    calls = count_calls("catalog", "_block_keys")
    for n in range(8):
        for fmt in ("text", "json"):
            argv = ["--n", str(n), "--format", fmt]
            cached = argv + ["--cache-dir", str(tmp_path / f"{fmt}{n}")]
            miss = run_catalog(cached)
            assert run_catalog(cached) == miss == run_catalog(argv + ["--no-cache"])
    # every run generates the keys, a hit too: it only finds the file
    # already current
    assert len(calls) == 3 * 8 * 2


def test_cache_store_leaves_no_temporary_file(tmp_path):
    cache = CatalogCache(tmp_path)
    assert store(cache, 4) == cache.path(4)
    assert os.listdir(tmp_path) == [cache.path(4).name]
    # a store that cannot rename over its target fails and cleans up
    blocked = CatalogCache(tmp_path / "blocked")
    blocked.path(4).mkdir(parents=True)
    assert store(blocked, 4) is None
    assert os.listdir(tmp_path / "blocked") == [blocked.path(4).name]


def test_cache_write_failing_midway_leaves_no_file(tmp_path, monkeypatch):
    # the file is written in parts; a part that fails, here the first key
    # with a block, after the opening and the empty key, closes the
    # temporary file and removes it, and nothing is renamed over the target
    class Failing(dict):
        def __missing__(self, block):
            raise OSError("no space left on device")

    monkeypatch.setattr(catalog, "_block_texts", lambda table: Failing())
    assert store(CatalogCache(tmp_path), 3) is None
    assert os.listdir(tmp_path) == []


def test_cache_hit_calls_no_validator_or_generator(tmp_path, count_calls):
    argv = ["--n", "7", "--cache-dir", str(tmp_path)]
    miss = run_catalog(argv)
    calls = [
        count_calls(module, name)
        for module, name in (
            ("catalog", "enumerate_marked"),
            ("catalog", "_block_keys"),
            ("catalog", "u1_classes"),
            ("fans", "validate_sequence"),
            ("catalog", "u1_key"),
            ("invariants", "analyze_sequence"),
        )
    ]
    # the hit generates the keys once, as the miss did, and compares the
    # file with them: no window is validated, and no member is built, keyed
    # or analyzed
    assert run_catalog(argv) == miss
    assert [len(made) for made in calls] == [0, 1, 0, 0, 0, 0]


def test_counts_are_checked_against_the_closed_forms(monkeypatch):
    # both generators check their count at every level, past the n <= 5 of
    # KNOWN_DELTA; a count that leaves the closed form exits 3 and prints
    # nothing
    marked_count, deltas = catalog._marked_count, catalog._deltas
    cases = (
        ("_marked_count", lambda n: marked_count(n) + (n == 9), ["--classes", "marked"]),
        ("_deltas", lambda n: deltas(n)[:-1] + [deltas(n)[-1] + 1], ["--no-cache"]),
    )
    for name, wrong, argv in cases:
        enumerate_marked.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(catalog, name, wrong)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                assert main(["catalog", "--n", "9", *argv]) == 3
        assert out.getvalue() == ""
        assert err.getvalue().startswith("internal invariant violation: "), err.getvalue()
        assert "n = 9: " in err.getvalue()
    # the levels below the requested one are gated too
    enumerate_marked.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(catalog, "_marked_count", lambda n: marked_count(n) + (n == 5))
        with pytest.raises(InternalInvariantError, match="n = 5: generated 22 "):
            enumerate_marked(9)
    enumerate_marked.cache_clear()
    assert len(enumerate_marked(9)) == marked_count(9) == 2438
    assert len(u1_classes(9)) == deltas(9)[9]


def test_cache_file_schema(tmp_path):
    cache = CatalogCache(tmp_path)
    u1_classes_cached(3, cache)
    payload = json.loads(cache.path(3).read_text(encoding="utf-8"))
    assert set(payload) == {"version", "n", "classes"}
    assert payload["version"] == CatalogCache.VERSION == 4 and payload["n"] == 3
    # each class is its block multiset key, in canonical order
    assert payload["classes"] == [[], [[2]], [[2, 3]]]
    keys = [cls.u1_key for cls in u1_classes(5)]
    payload = json.loads(store(CatalogCache(tmp_path), 5).read_text(encoding="utf-8"))
    assert payload["classes"] == [list(map(list, key)) for key in keys]


def test_store_writes_the_decoded_payload(tmp_path):
    # a miss writes its packed keys with store, which writes the text
    # itself: json.dumps of the keys decoded, the classes' u1_keys; down to
    # the one empty key of levels 0 and 1.  load finds the keys in the file
    cache = CatalogCache(tmp_path)
    for n in (0, 1, 3, 7, 9):
        decoded = [cls.u1_key for cls in u1_classes_cached(n, cache)]
        payload = {"version": 4, "n": n, "classes": decoded}
        expected = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        assert cache.path(n).read_bytes() == expected, n
        table = _block_table(n)
        keys = _block_keys(n, table)
        assert [unpack_key(key) for key in keys] == decoded
        assert cache.load(n, table, keys) is keys
        assert cache.store(n, table, keys).read_bytes() == expected, n


def test_store_writes_two_byte_entries(tmp_path):
    # level 13 is the first whose entries exceed 255 (F(14) = 377), so its
    # packed blocks hold two bytes per code point: the file store writes
    # for them is still json.dumps of the keys decoded, and load finds them
    n = 13
    table = _block_table(n)
    keys = _block_keys(n, table)
    decoded = [unpack_key(key) for key in keys]
    assert max(entry for key in decoded for block in key for entry in block) == fibonacci(n + 1)
    payload = {"version": 4, "n": n, "classes": decoded}
    expected = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    cache = CatalogCache(tmp_path)
    assert cache.store(n, table, keys).read_bytes() == expected
    assert cache.load(n, table, keys) is keys


def test_records_share_their_blocks(tmp_path):
    # each block is decoded once, and every record holding it holds that one
    # tuple: uncached, on a miss and on a hit
    cache = CatalogCache(tmp_path)
    for keys in (
        [cls.u1_key for cls in u1_classes(9)],
        [cls.u1_key for cls in u1_classes_cached(9, cache)],
        [cls.u1_key for cls in u1_classes_cached(9, cache)],
    ):
        blocks = [block for key in keys for block in key]
        assert len({id(block) for block in blocks}) == len(set(blocks)) < len(blocks)


def old_text_row(cls):
    """A row of the text listing as the record-based writer rendered it."""
    return (
        f"{','.join(map(str, cls.canonical))}  members={cls.member_count} "
        f"m={cls.m} slack={'-' if cls.slack is None else cls.slack}"
    )


def test_text_listing_matches_the_records():
    for n in range(12):
        classes = u1_classes(n)
        rows = [f"n = {n}: delta = {len(classes)} circle-action classes"]
        rows += map(old_text_row, classes)
        assert run_catalog(["--n", str(n), "--no-cache"]) == "\n  ".join(rows) + "\n", n


def test_block_keys_come_in_canonical_order():
    # the order is (weight, key) order, which is the order of the canonical
    # members, each built here by its own definition
    for n in range(13):
        keys = [unpack_key(key) for key in _block_keys(n, _block_table(n))]

        def canonical(key):
            lead = n + 1 - sum(map(len, key)) - len(key)
            return (1,) * lead + tuple(entry for block in key for entry in block + (1,))

        assert keys == sorted(keys, key=canonical), n
        assert len(set(map(canonical, keys))) == len(keys), n
        assert all(list(key) == sorted(key) for key in keys), n


def test_text_requests_build_no_record(tmp_path, count_calls):
    built = count_calls("catalog", "_build_classes")
    generated = count_calls("catalog", "_block_keys")
    argv = ["--n", "8", "--cache-dir", str(tmp_path)]
    miss = run_catalog(argv)
    assert run_catalog(argv) == miss == run_catalog(["--n", "8", "--no-cache"])
    # the miss, the hit and the uncached run each generate the keys
    assert len(generated) == 3
    assert built == []
