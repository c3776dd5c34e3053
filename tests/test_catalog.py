from __future__ import annotations

import contextlib
import io
import json
import os
import random

from minitwistor import (
    FIBONACCI_TABLE,
    KNOWN_DELTA,
    CatalogCache,
    enumerate_marked,
    family_fibonacci,
    family_involutive,
    family_lebrun,
    fibonacci,
    growth_report,
    insertions,
    is_valid_sequence,
    l_vector,
    regularity,
    reduction_trace,
    reversal_canonical,
    sequence_l_vector,
    trace_divisor,
    u1_classes,
    u1_classes_cached,
    u1_key,
)
from minitwistor.catalog import _member_count
from minitwistor.cli import main

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
            if cls.u1_key:
                # every spare one sits in the canonical member's leading run
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


def test_cache_round_trip(tmp_path):
    cache = CatalogCache(tmp_path)
    classes = u1_classes_cached(4, cache)
    assert len(classes) == 7
    assert cache.path(4).exists()
    assert u1_classes_cached(4, cache) == classes == cache.load(4)


def test_cache_rejects_corruption(tmp_path):
    cache = CatalogCache(tmp_path)
    classes = u1_classes_cached(3, cache)
    good = cache.path(3).read_text(encoding="utf-8")

    def edited(index=0, **fields):
        payload = json.loads(good)
        payload["classes"][index].update(fields)
        return json.dumps(payload)

    no_members = json.loads(good)
    del no_members["classes"][0]["members"]
    version_1 = dict(json.loads(good), version=1, delta=3)
    # unparsable text, JSON of the wrong shape, a version-1 file, then a
    # class whose values are not those of a class: a stray member, or a key
    # that is not its canonical member's
    texts = ["{not json", "[1,2]", json.dumps(no_members), '"catalog"', "7", json.dumps(version_1)]
    texts += [
        edited(**fields)
        for fields in (
            {"members": []},
            {"canonical": "xyz"},
            {"canonical": [1, 1, 2, 1]},
            {"m": "many"},
            {"m": 1.5},
            {"m": True},
            {"slack": "none"},
            {"l": [0, 0, 0]},
            {"l": [0, 0, 0, "0", 0]},
            {"members": json.loads(good)["classes"][0]["members"] + [[9, 9, 9, 9]]},
        )
    ]
    texts.append(edited(1, u1_key=[["zz"]]))
    for text in texts:
        cache.path(3).write_text(text, encoding="utf-8")
        assert cache.load(3) is None, text
        assert u1_classes_cached(3, cache) == classes == cache.load(3)


def run_catalog(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["catalog", *argv]) == 0
    return out.getvalue()


def test_edited_cache_file_prints_true_classes(tmp_path):
    fresh = run_catalog(["--n", "3", "--no-cache"])
    assert fresh.startswith("n = 3: delta = 3 ")
    argv = ["--n", "3", "--cache-dir", str(tmp_path)]
    assert run_catalog(argv) == fresh
    path = CatalogCache(tmp_path).path(3)
    payload = json.loads(path.read_text(encoding="utf-8"))
    # a stray "delta" is ignored: a hit counts its classes
    payload["delta"] = 99
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert CatalogCache(tmp_path).load(3) is not None
    assert run_catalog(argv) == fresh
    payload["classes"][0].update(canonical="xyz", m="many")
    path.write_text(json.dumps(payload), encoding="utf-8")
    assert run_catalog(argv) == fresh
    assert "  1,1,1,1  members=1 " in fresh
    for index, fields in (
        (0, {"members": [[1, 1, 1, 1], [9, 9, 9, 9]]}),
        (1, {"u1_key": [["zz"]]}),
    ):
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["classes"][index].update(fields)
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert CatalogCache(tmp_path).load(3) is None
        assert run_catalog(argv) == fresh


def test_member_count_closed_form():
    # the cache's load check rests on this count; a wrong formula would only
    # show as silent misses
    for n in range(11):
        for cls in u1_classes(n):
            assert _member_count(n, cls.u1_key) == len(cls.members), cls.canonical


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


def test_cache_file_schema(tmp_path):
    cache = CatalogCache(tmp_path)
    u1_classes_cached(2, cache)
    payload = json.loads(cache.path(2).read_text(encoding="utf-8"))
    assert set(payload) == {"version", "n", "classes"}
    assert payload["version"] == CatalogCache.VERSION == 2 and payload["n"] == 2
    assert len(payload["classes"]) == 2
    entry = payload["classes"][0]
    assert set(entry) == {"canonical", "members", "u1_key", "m", "l", "slack"}
