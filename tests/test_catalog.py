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
    CatalogCache,
    enumerate_marked,
    family_fibonacci,
    family_involutive,
    family_lebrun,
    growth_report,
    u1_classes,
    u1_classes_cached,
    u1_key,
)
from minitwistor.invariants import (
    l_vector,
    reduction_trace,
    regularity,
    sequence_l_vector,
    trace_divisor,
)
from minitwistor.catalog import _canonical_member, _member_count
from minitwistor.errors import InvalidParameterError
from minitwistor.cli import main

from support import (
    fibonacci,
    greedy_maximal_step,
    insertions,
    is_valid_sequence,
    marked_by_insertion,
    reversal_canonical,
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
    enumerate_marked.cache_clear()
    calls = count_calls("catalog", "enumerate_marked")
    u1_classes(6)
    assert calls == [(n,) for n in range(6, -1, -1)]


def test_level_limit_is_checked_before_any_work(count_calls):
    calls = count_calls("catalog", "enumerate_marked")
    for call, n in ((enumerate_marked, 15), (u1_classes, 15), (growth_report, 5000)):
        with pytest.raises(InvalidParameterError, match="limit n <= 14"):
            call(n)
    # the direct call goes through this module's unwrapped binding, so an
    # empty list means no recursion and no call from the other two
    assert calls == []


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
            # every spare one sits in the canonical member's leading run
            assert cls.canonical == min(cls.members) == _canonical_member(n, cls.u1_key)
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


def test_u1_classes_validate_each_class_once(count_calls):
    for n in (6, 7, 8):
        enumerate_marked(n)  # warm the level, which validates nothing
        calls = count_calls("fans", "validate_sequence")
        classes = u1_classes(n)
        assert len(calls) == len(classes)
        assert sorted(args[0] for args in calls) == sorted(cls.canonical for cls in classes)


def test_u1_classes_key_each_sequence_once(count_calls):
    for n in (6, 7, 8):
        enumerate_marked(n)
        calls = count_calls("catalog", "u1_key")
        u1_classes(n)
        assert sorted(args[0] for args in calls) == sorted(enumerate_marked(n))


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
    assert [f.seq for f in members] == [
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
        assert deformable[0].seq == short_staircase
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
            assert reversal_canonical(member.seq) in marks


def test_family_involutive():
    members = family_involutive(7)
    assert [f.seq for f in members] == [
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
            assert all(l <= 1 for l in sequence_l_vector(member.seq))


def test_family_fibonacci_table():
    for n, (seq, lvec, m) in FIBONACCI_TABLE.items():
        assert family_fibonacci(n) == seq
        assert sequence_l_vector(seq) == lvec
        assert reduction_trace(seq).m == m == fibonacci(n + 1)


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


def test_cache_round_trip(tmp_path):
    cache = CatalogCache(tmp_path)
    classes = u1_classes_cached(4, cache)
    assert len(classes) == 7
    assert cache.path(4).exists()
    assert u1_classes_cached(4, cache) == classes == cache.load(4)


def version_2_payload(n, classes):
    """A cache file as format 2 wrote it: every field of every class."""
    return {"version": 2, "n": n, "classes": [vars(cls) for cls in classes]}


def test_cache_rejects_corruption(tmp_path):
    cache = CatalogCache(tmp_path)
    classes = u1_classes_cached(3, cache)
    good = json.loads(cache.path(3).read_text(encoding="utf-8"))
    entries = good["classes"]

    def with_classes(replaced):
        return json.dumps(dict(good, classes=replaced))

    # unparsable or too deeply nested text, JSON of the wrong shape and a
    # version-2 file
    texts = ["{not json", "[" * 100_000 + "]" * 100_000]
    texts += ["[1,2]", '"catalog"', "7", json.dumps({"version": 3, "n": 3})]
    texts += [with_classes(shape) for shape in (5, [5], [[5]], [["xyz"]], [{"members": []}])]
    texts.append(json.dumps(version_2_payload(3, classes)))
    # then entries that are not a class: an empty member list, a stray
    # member, an invalid canonical, a dropped class, a class of level 2, and
    # a class's members moved into another (the total still C_3)
    texts += [
        with_classes(replaced)
        for replaced in (
            [[]] + entries[1:],
            [entries[0] + [[9, 9, 9, 9]]] + entries[1:],
            [entries[0], [[1, 1, 4, 1], [1, 4, 1, 1]], entries[2]],
            entries[:2],
            [[[1, 1, 1]]] + entries[1:],
            [entries[0] + entries[2], entries[1]],
        )
    ]
    for text in texts:
        cache.path(3).write_text(text, encoding="utf-8")
        assert cache.load(3) is None, text
        assert u1_classes_cached(3, cache) == classes == cache.load(3)
    # a first member that is not the canonical is still the same class: the
    # builder sorts the members, so storage order is not checked
    reordered = with_classes([entries[0], entries[1][::-1], entries[2]])
    cache.path(3).write_text(reordered, encoding="utf-8")
    assert cache.load(3) == classes


def run_catalog(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["catalog", *argv]) == 0
    return out.getvalue()


def test_edited_cache_file_prints_true_classes(tmp_path):
    def catalog_after_edit(n, payload):
        argv = ["--n", str(n), "--cache-dir", str(tmp_path)]
        CatalogCache(tmp_path).path(n).write_text(json.dumps(payload), encoding="utf-8")
        assert CatalogCache(tmp_path).load(n) is None
        return run_catalog(argv)

    # format 2 stored every field, and a hit once printed them as edited
    fresh = run_catalog(["--n", "4", "--no-cache"])
    assert "  1,2,1,2,1  members=1 m=3 slack=0\n" in fresh
    payload = version_2_payload(4, u1_classes(4))
    (edited,) = [entry for entry in payload["classes"] if entry["canonical"] == (1, 2, 1, 2, 1)]
    edited.update(m=99, slack=7, l=[1, 1, 1, 1, 1, 1])
    assert catalog_after_edit(4, payload) == fresh
    # a class that no analysis accepts: 1,3,1 in place of 1,2,1
    fresh = run_catalog(["--n", "2", "--no-cache"])
    assert fresh.endswith("  1,2,1  members=1 m=2 slack=0\n")
    payload = version_2_payload(2, u1_classes(2))
    payload["classes"][1] = {
        "canonical": [1, 3, 1], "members": [[1, 3, 1]], "u1_key": [[3]], "m": 3,
        "l": [1, 2, 2, 1], "slack": 0,
    }
    assert catalog_after_edit(2, payload) == fresh
    payload = {"version": 3, "n": 2, "classes": [[[1, 1, 1]], [[1, 3, 1]]]}
    assert catalog_after_edit(2, payload) == fresh
    # a valid member standing in for the canonical 1,1,2,1,2,1, with strays
    # that keep the member count
    fresh = run_catalog(["--n", "5", "--no-cache"])
    assert "  1,1,2,1,2,1  members=3 m=3 slack=1\n" in fresh
    classes = u1_classes(5)
    payload = {"version": 3, "n": 5, "classes": [cls.members for cls in classes]}
    (index,) = [i for i, cls in enumerate(classes) if cls.canonical == (1, 1, 2, 1, 2, 1)]
    payload["classes"][index] = [[1, 2, 1, 1, 2, 1], [3, 3, 3, 3, 3, 3], [4, 4, 4, 4, 4, 4]]
    assert catalog_after_edit(5, payload) == fresh
    # a stray member in a version-3 file, through catalog
    fresh = run_catalog(["--n", "3", "--no-cache"])
    assert "  1,1,1,1  members=1 " in fresh
    payload = {"version": 3, "n": 3, "classes": [cls.members for cls in u1_classes(3)]}
    payload["classes"][0] = [[1, 1, 1, 1], [9, 9, 9, 9]]
    assert catalog_after_edit(3, payload) == fresh
    # a stray "delta" is ignored: a hit counts its classes
    fresh = run_catalog(["--n", "7", "--no-cache"])
    assert fresh.startswith("n = 7: delta = 119 ")
    assert run_catalog(["--n", "7", "--cache-dir", str(tmp_path)]) == fresh
    path = CatalogCache(tmp_path).path(7)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["delta"] = 99
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert CatalogCache(tmp_path).load(7) == u1_classes(7)
    assert run_catalog(["--n", "7", "--cache-dir", str(tmp_path)]) == fresh
    # a dropped class, past the n <= 5 that KNOWN_DELTA covers
    del payload["classes"][5]
    assert catalog_after_edit(7, payload) == fresh


def test_member_count_closed_form():
    # the cache's load check rests on this count; a wrong formula would only
    # show as silent misses
    for n in range(11):
        classes = u1_classes(n)
        for cls in classes:
            assert _member_count(n, cls.u1_key) == len(cls.members), cls.canonical
        # and its completeness check on this total: the Catalan number C_n
        # of level-n sequences, counted in both orientations
        assert sum(len(cls.members) for cls in classes) == comb(2 * n, n) // (n + 1)


def test_cache_hit_prints_what_the_miss_printed(tmp_path, count_calls):
    calls = count_calls("catalog", "u1_classes")
    for n in range(8):
        for fmt in ("text", "json"):
            argv = ["--n", str(n), "--format", fmt]
            cached = argv + ["--cache-dir", str(tmp_path / f"{fmt}{n}")]
            miss = run_catalog(cached)
            assert run_catalog(cached) == miss == run_catalog(argv + ["--no-cache"])
    # one miss and one uncached run per level and format: every second
    # cached run was a hit
    assert len(calls) == 2 * 8 * 2


def test_cache_store_leaves_no_temporary_file(tmp_path):
    cache = CatalogCache(tmp_path)
    classes = u1_classes(4)
    assert cache.store(4, classes) == cache.path(4)
    assert os.listdir(tmp_path) == [cache.path(4).name]
    # a store that cannot rename over its target fails and cleans up
    blocked = CatalogCache(tmp_path / "blocked")
    blocked.path(4).mkdir(parents=True)
    assert blocked.store(4, classes) is None
    assert os.listdir(tmp_path / "blocked") == [blocked.path(4).name]


def test_cache_reads_truncated_file_as_miss(tmp_path):
    cache = CatalogCache(tmp_path)
    classes = u1_classes_cached(4, cache)
    text = cache.path(4).read_text(encoding="utf-8")
    for size in (0, 1, len(text) // 2, len(text) - 2):
        cache.path(4).write_text(text[:size], encoding="utf-8")
        assert cache.load(4) is None
        assert u1_classes_cached(4, cache) == classes
        assert cache.load(4) == classes


def test_cache_hit_validates_each_class_once(tmp_path, count_calls):
    argv = ["--n", "7", "--cache-dir", str(tmp_path)]
    miss = run_catalog(argv)
    calls = {
        name: count_calls(module, name)
        for module, name in (
            ("catalog", "enumerate_marked"),
            ("catalog", "u1_classes"),
            ("fans", "validate_sequence"),
            ("catalog", "u1_key"),
        )
    }
    assert run_catalog(argv) == miss
    assert calls["enumerate_marked"] == calls["u1_classes"] == []
    # one canonical member per class; a walk over all 429 members would
    # key or validate every one of them
    assert len(calls["validate_sequence"]) == 119
    assert len(calls["u1_key"]) <= 2 * 119


def test_cache_file_schema(tmp_path):
    cache = CatalogCache(tmp_path)
    u1_classes_cached(3, cache)
    payload = json.loads(cache.path(3).read_text(encoding="utf-8"))
    assert set(payload) == {"version", "n", "classes"}
    assert payload["version"] == CatalogCache.VERSION == 3 and payload["n"] == 3
    # each class is its sorted member list, canonical member first
    assert payload["classes"] == [
        [[1, 1, 1, 1]], [[1, 1, 2, 1], [1, 2, 1, 1]], [[1, 2, 3, 1], [1, 3, 2, 1]],
    ]
