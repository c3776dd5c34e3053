"""Enumeration of weight sequences up to symmetry, class counts, and the
named families.

Level n sequences are generated from the base sequence (1) by mediant
insertions: prepend 1, append 1, or insert k_i + k_{i+1} at an adjacency.
Marked actions are identified up to reversal; circle actions are identified
by the coarser connected-sum relation described at :func:`u1_key`, whose
classes are the multisets of blocks of entries > 1.  The classes come from
their block multiset keys, which :func:`_block_keys` builds in canonical
order from the blocks, generated directly as the windows (1, B, 1) by the
canonical augmentation :func:`_marked_level` walks, without enumerating a
level.  Every listed field is in closed form from a key
(:func:`_class_fields`): the text listing is written from the keys with no
record per class, :func:`u1_classes` builds records for the library and the
JSON listing, and members are arranged only when asked for.  Both counts,
the reversal classes and delta(n), are counted in closed form by
:func:`growth_report`, and both generators are gated on them at every
level.  The three named families (semi-free-containing, involution-isotropy,
maximal-step) are written down in closed form.

Inside the catalog a sequence or block is packed: it is the str whose code
points are its entries, chr(k) for entry k, each at most _MAX_ENTRY = 610,
so one or two bytes per entry.  A str compares code point by code point,
and a proper prefix first, exactly as a tuple compares entry by entry, and
code points compare as the integers they are; so sorting, the reversal
tests, hashing and equality give what the tuples would, in C.  Packed
sequences are rendered a listing at a time by :func:`_listing`: joined by
the code point 0, which no entry is, into one str that one
codecs.charmap_encode renders through :data:`_ENTRY_BYTES`.  The marked
text listing is one such call and the block table one per weight; the
cache file is written from the block table's pieces, each block's JSON
text made once, with no call per row or per block occurrence.
The public results (enumerate_marked, CatalogClass) and the cache file hold
the entries as integers.
"""

from __future__ import annotations

import codecs
import os
from collections.abc import Iterator
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, combinations, islice, permutations, product
from math import comb, factorial, perm
from operator import sub
from pathlib import Path

from .errors import InternalInvariantError, InvalidParameterError, invariant_violation
from .invariants import SequenceAnalysis, analyze_sequence
from .record import Record

#: Known class counts delta(0..5); the closed form of growth_report, which
#: gates u1_classes at every level, must reproduce these exactly.
KNOWN_DELTA = (1, 1, 2, 3, 7, 15)

#: The maximal-step family with its l-vectors and step counts, for n = 2..7.
FIBONACCI_TABLE = {
    2: ((1, 2, 1), (1, 1, 1, 1), 2),
    3: ((1, 2, 3, 1), (1, 1, 1, 2, 1), 3),
    4: ((1, 2, 5, 3, 1), (1, 1, 3, 2, 2, 1), 5),
    5: ((1, 2, 5, 8, 3, 1), (1, 1, 3, 3, 5, 2, 1), 8),
    6: ((1, 2, 5, 13, 8, 3, 1), (1, 1, 3, 8, 5, 5, 2, 1), 13),
    7: ((1, 2, 5, 13, 21, 8, 3, 1), (1, 1, 3, 8, 8, 13, 5, 2, 1), 21),
}


#: The largest level the enumeration serves.  Level 14 has C_14 = 2,674,440
#: sequences and 604,297 classes.  In a fresh CLI process, stdout to
#: /dev/null, the text listing catalog --n 14 takes 4.3-5.4 s and 251 MB of
#: peak RSS, the same as with --no-cache, and catalog --classes marked
#: --n 14 2.6-3.9 s and 156 MB (5 runs each on a busy 2-core shared VM,
#: CPython 3.11.7, where python -c pass took 57 ms).  Measured earlier on the
#: same kind of VM, enumerate_marked(14), which decodes the level into
#: tuples, takes about 3.4 s and 264 MB, and u1_classes(14), which builds a
#: record per class, 10.5 s and 553 MB.  Each further level costs about 3.5
#: times more.
_MAX_LEVEL = 14


def _check_level(n: int) -> None:
    if n < 0:
        raise InvalidParameterError("n must be nonnegative")
    if n > _MAX_LEVEL:
        raise InvalidParameterError(f"n = {n} is above the enumeration limit n <= {_MAX_LEVEL}")


#: The largest level of a named family and of the delta(n) table.  In a
#: fresh CLI process tables delta --n-max 500, the costliest, takes about
#: 1.0 s and 17 MB of peak RSS in text or JSON, and tables fibonacci
#: --n-max 500 0.4 s and 59 MB (same VM as above).
_MAX_FAMILY = 500


def _check_family(n: int) -> None:
    if n > _MAX_FAMILY:
        raise InvalidParameterError(f"n = {n} is above the family limit n <= {_MAX_FAMILY}")


#: The largest entry of a sequence of level <= _MAX_LEVEL: F(15) = 610, the
#: peak of family_fibonacci(14).  By induction over the insertions, a
#: level-n entry is at most F(n + 1) and two adjacent ones sum to at most
#: F(n + 2), since a mediant a + b puts a + (a + b) <= F(n + 1) + F(n + 2)
#: beside it.  It bounds the table that renders entries.
_MAX_ENTRY = 610

#: Entry k as the bytes ",k", indexed by k, for the entries 1.._MAX_ENTRY,
#: and the code point 0, which no entry is, as a row break (a line break
#: and a two-space indent) followed by the leading 1 of the next row.
#: codecs.charmap_encode renders a packed str through it in one call, and
#: raises UnicodeEncodeError on a code point past it.
_ENTRY_BYTES = (b"\n  1", *[b",%d" % k for k in range(1, _MAX_ENTRY + 1)])


def _listing(packed: list[str]) -> str:
    """The packed sequences, each starting with its 1, as the rows of a
    text listing, each row "k0,k1,..." behind a row break.  The sequences
    are joined behind a code point 0 each, one replace folds each leading 1
    into the 0 before it, and one charmap_encode through
    :data:`_ENTRY_BYTES` renders the whole.  The list is consumed: it is
    emptied once joined, so a caller that passes its only reference frees
    the sequences before they are rendered."""
    packed.insert(0, "")
    text = "\x00".join(packed)
    packed.clear()
    data = codecs.charmap_encode(text.replace("\x00\x01", "\x00"), "strict", _ENTRY_BYTES)[0]
    # the joined text outlives the replace until the encode is done: freed
    # before it, it lets the C heap keep 7 MB more in catalog --n 14
    del text
    return data.decode("ascii")


def _marked_level(n: int) -> list[str]:
    """The level-n sequences up to reversal, sorted, each its lesser
    orientation packed (see the module docstring), so that the sort and the
    reversal tests compare in C what tuples would compare entry by entry.
    Each level is built from the sorted previous one, which is then dropped,
    and its count is checked against (C_n + p_n)/2 at every level.

    The walk is the canonical augmentation of McKay (J. Algorithms 26,
    1998): the children of an oriented sequence p are (1,) + p and the
    mediants at adjacencies 1 <= i < stop.  Each sequence is generated once,
    from one parent: itself with its leftmost removable entry deleted.  In a
    sequence p, entry 0 is removable when p[1] == 1 (or p == (1,)), and an
    interior entry j when it is the mediant p[j-1] + p[j+1].  Every valid p
    with p[1] != 1 has an interior mediant (by induction on the length: were
    its last 1 its only removable entry, p[:-1] would have the same p[1], and
    the interior mediant of p[:-1] is interior in p), so the last entry is
    never the leftmost removable one, and no child comes from appending a 1.
    Let r be the leftmost removable position of p.  The prepended child
    (1,) + p has its leftmost removable entry at 0.  A mediant inserted at
    adjacency i is removable and leaves positions before i - 1 as they were
    in p, while the entry to its left, now beside a larger neighbor, cannot
    be removable; so the mediant is the child's leftmost removable entry
    exactly when i <= r + 1.  Over the adjacencies 1..len(p) - 1 that gives
    stop = min(r + 1, len(p) - 1) + 1: stop = 1 at p == (1,), 2 when
    p[1] == 1, and otherwise j + 2 at the first interior mediant j.

    Of a child and its reversal only the lesser is kept, mostly decided
    before the child is built.  A sequence c starts and ends with 1, so
    c <= c[::-1] is settled by c[1] against c[-2] unless the two are equal,
    and only such a tie builds the child to compare it in full.  With a, b =
    p[1], p[-2], the prepended child has the pair (1, b), and is kept
    outright when b > 1.  The mediant x at adjacency i has the pair (x, b)
    at i = 1, where x = 1 + a, the pair (a, x) at i = last = len(p) - 1,
    where x = b + 1, and the pair (a, b) between them: those middle children
    are all kept when a < b and none is built when a > b.
    """
    _check_level(n)
    level = ["\x01"]
    for j in range(1, n + 1):
        parents, level = level, []
        keep = level.append
        for rep in parents:
            for p in (rep,) if rep == rep[::-1] else (rep, rep[::-1]):
                last = len(p) - 1
                if last == 0:
                    keep("\x01\x01")
                    continue
                a, b = ord(p[1]), ord(p[-2])
                child = "\x01" + p
                if b > 1 or child <= child[::-1]:
                    keep(child)
                # at p == (1, 1) the mediant 2 takes both places of the pair
                x = 1 + a
                if x <= b or last == 1:
                    child = "\x01" + chr(x) + p[1:]
                    if x < b or child <= child[::-1]:
                        keep(child)
                if a == 1 or a > b + 1:
                    # no middle mediant is kept, nor the one at last
                    continue
                # the middle mediants in one pass with the scan for stop,
                # u, v, w = p[i-2], p[i-1], p[i]: the mediant at i is built,
                # then an interior mediant j = i - 1 gives stop = i + 1 and
                # ends the range.  The scan stops short of j = last - 1,
                # whose stop len(p) > last, like no break, admits the
                # mediant at last
                u, v = 1, a
                for i in range(2, last):
                    w = ord(p[i])
                    if a <= b:
                        child = p[:i] + chr(v + w) + p[i:]
                        if a < b or child <= child[::-1]:
                            keep(child)
                    if v == u + w:
                        break
                    u, v = v, w
                else:
                    if a <= b + 1:
                        child = p[:-1] + chr(b + 1) + "\x01"
                        if a <= b or child <= child[::-1]:
                            keep(child)
        level.sort()
        if len(level) != _marked_count(j):
            raise InternalInvariantError(
                f"enumerate_marked: n = {j}: generated {len(level)} reversal classes, "
                f"expected (C_n + p_n)/2 = {_marked_count(j)}"
            )
    return level


@lru_cache(maxsize=None)
def enumerate_marked(n: int) -> tuple[tuple[int, ...], ...]:
    """All level-n sequences reachable from (1), one representative per
    reversal class, sorted: the packed level of :func:`_marked_level`, each
    sequence decoded into its tuple of entries.  Only the requested level is
    memoized."""
    level = _marked_level(n)
    # decoded in place, so that each packed sequence is freed as its tuple
    # takes its place
    for i, rep in enumerate(level):
        level[i] = tuple(map(ord, rep))
    return tuple(level)


def _marked_rows(n: int) -> str:
    """The body of the level-n marked text listing, which goes right after
    its header: one row "k0,k1,..." per sequence of :func:`_marked_level`,
    in its order, each behind a row break, rendered by :func:`_listing` in
    one call with no tuple of entries.  The level is freed once it is
    joined, before it is rendered."""
    return _listing(_marked_level(n))


def u1_key(seq: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Connected-sum class key of a marked sequence.

    The maximal blocks of consecutive entries > 1 are the summands of the
    action glued along the fixed sphere; reordering the summands and flipping
    any one of them are equivariant operations, so the class key is the
    sorted multiset of blocks, each block canonicalized up to reversal.  The
    all-ones sequence has the empty key.  This relation reproduces the known
    counts delta(4) = 7 and delta(5) = 15 (the finer run-length word fails at
    n = 5), and it is gated on them at runtime.  :func:`_block_keys` builds
    the keys themselves, so no request calls this function: it keys a given
    sequence, for callers and as the tests' oracle.
    """
    blocks: list[tuple[int, ...]] = []
    current: list[int] = []
    for entry in seq:
        if entry == 1:
            if current:
                blocks.append(tuple(current))
                current = []
        else:
            current.append(entry)
    if current:
        blocks.append(tuple(current))
    return tuple(sorted(min(b, b[::-1]) for b in blocks))


class CatalogClass(Record):
    """One equivalence class of circle actions at a fixed n, every field in
    closed form from its block multiset ``u1_key``.

    A sequence is valid exactly when every window (1, B, 1) around a maximal
    block B of entries > 1 is valid, so the members are the arrangements of
    the class's blocks with ones between and around them: each distinct
    order of the blocks, each orientation of a non-palindromic block and each
    choice of gaps among the n + 1 - sum |B| ones.  canonical is the least
    member, which puts every spare one in front; m and l are its own, from
    the differences of its entries, and m is class-invariant.  slack is the
    canonical member's n - sum |B| - #blocks, which is the maximum over
    members (slack depends on the marked action, not just the class), and
    None for the semi-free class.  member_count is the number of members;
    :attr:`members` lists them, built only when asked.
    """

    canonical: tuple[int, ...]
    u1_key: tuple[tuple[int, ...], ...]
    m: int
    l: tuple[int, ...]
    slack: int | None
    member_count: int

    @cached_property
    def members(self) -> tuple[tuple[int, ...], ...]:
        """Every member of the class, sorted, by arrangement of its blocks."""
        key = self.u1_key
        ones = len(self.canonical) - sum(map(len, key))
        arrangements = [
            oriented
            for order in set(permutations(key))
            for oriented in product(*[(b,) if b == b[::-1] else (b, b[::-1]) for b in order])
        ]
        members = []
        # the blocks go into len(key) of the ones - 1 gaps between the ones;
        # cut c puts a block after the c-th one
        for cuts in combinations(range(1, ones), len(key)):
            runs = [(1,) * (stop - start) for start, stop in zip((0,) + cuts, cuts + (ones,))]
            for blocks in arrangements:
                seq = runs[0]
                for block, run in zip(blocks, runs[1:]):
                    seq += block + run
                members.append(seq)
        members.sort()
        return tuple(members)


#: A block multiset key as the generators hold it: its blocks,
#: each packed as :func:`_marked_level` packs a sequence, sorted.
_Key = tuple[str, ...]

#: The rows of :func:`_block_table`, by packed block.
_Table = dict[str, tuple[str, int, bool]]


def _class_fields(n: int, table: dict, keys: list) -> Iterator[tuple]:
    """Per block multiset key, in the given order: its canonical member as
    text, member_count, m and slack, every one in closed form from the rows
    of :func:`_block_table` for the key's blocks B_1 <= ... <= B_t, with no
    analysis and no member.  The blocks of the keys and of the table are
    all packed or all decoded into tuples, as the records hold them: only
    their lengths and their equality are read.  The text listing writes
    these fields as they come, and :func:`_build_classes` reads them into
    its records, so each field has this one formula.  With
    w = sum (|B| + 1) and lead = n + 1 - w spare ones:

    - canonical = (1,) * lead + B_1 + (1,) + ... + B_t + (1,), the least
      member: a block followed by a one is never a prefix of another, so key
      order is the least order of the blocks;
    - m = sum l / 2 = 1 + sum_B (m_B - 1), where l, the absolute differences
      of (0, canonical, 0), is (1, 0, ..., 0, frag(B_1), ..., frag(B_t), 1)
      with lead - 1 zeros and frag(B) the absolute differences across the
      window (1, B, 1), and the share m_B - 1 = sum frag(B) / 2;
    - slack = n - sum |B| - t = lead - 1, and None for the empty key;
    - member_count = C(lead - 1 + t, t) * t! / prod c_B! * 2^f: the blocks go
      into t of the lead - 1 + t gaps between the lead + t ones, in
      t! / prod c_B! orders (c_B the multiplicity of B), and each of the f
      blocks that is not a palindrome in both of its orientations.
    """
    ones = ["1" + ",1" * lead for lead in range(n + 1)]
    for key in keys:
        tail = ""
        m = 1
        flips = size = 0
        for block in key:
            piece, share, flip = table[block]
            tail += piece
            m += share
            flips += flip
            size += len(block)
        t = len(key)
        lead = n + 1 - size - t
        count = perm(lead - 1 + t, t) << flips
        if t > 1 and len(set(key)) < t:
            # a repeated block: divide out the orders of its copies
            for block in set(key):
                count //= factorial(key.count(block))
        yield ones[lead - 1] + tail, count, m, lead - 1 if t else None


def _build_classes(n: int, table: dict, keys: list) -> list[CatalogClass]:
    """One record per block multiset key, in the keys' order, from the
    fields of :func:`_class_fields`, with the keys and the table's blocks
    decoded (see :func:`_record_keys`); canonical is read back from its
    text, u1_key is the key itself, and l is the absolute differences of
    (0, canonical, 0).  Only the library and the JSON listing build
    records: the text listing writes the fields straight away."""
    classes = []
    for key, (text, count, m, slack) in zip(keys, _class_fields(n, table, keys)):
        canonical = tuple(map(int, text.split(",")))
        l = tuple(map(abs, map(sub, canonical + (0,), (0,) + canonical)))
        classes.append(CatalogClass(canonical, key, m, l, slack, count))
    return classes


def _record_keys(n: int, cache: CatalogCache | None) -> tuple[dict, list]:
    """:func:`_u1_keys` for the records: the table keyed by each block's
    tuple and the keys decoded in place into those same tuples, which the
    records then hold as their u1_key.  Each block's tuple is made once and
    shared by every key that holds it, and each packed key is freed as its
    tuple takes its place.  :func:`_class_fields` reads blocks of either
    form, as long as the table and the keys agree, and the packed table and
    keys are freed on return, before any record is built."""
    table, keys = _u1_keys(n, cache)
    decoded = {block: tuple(map(ord, block)) for block in table}
    for i, key in enumerate(keys):
        keys[i] = tuple([decoded[block] for block in key])
    return {decoded[block]: row for block, row in table.items()}, keys


def _windows(n: int) -> Iterator[list[tuple[str, int, int]]]:
    """The oriented windows (1, B, 1) of weights 2..n, one list per weight:
    the level-j sequences with no 1 inside, B their block of weight
    |B| + 1 = j.  Each window comes packed (see the module docstring), with
    its stop and its share m_B - 1 = sum |w[k+1] - w[k]| / 2.

    Windows are closed under the canonical augmentation of
    :func:`_marked_level`.  The second entry of a window of weight j >= 2
    is not 1, so its leftmost removable entry is an interior mediant, and
    deleting it leaves a window of weight j - 1, down to (1, 1).  A
    prepended 1 would sit inside, and an inserted mediant exceeds 1, so the
    windows of weight j are exactly the children of those of weight j - 1 by
    a mediant at an adjacency i < stop, each built once.  That mediant is the
    child's leftmost removable entry, so the child's stop is i + 2, with no
    scan.  It turns the step |u - v| between its neighbors u, v into
    u + v, so the child's share is the parent's plus min(u, v).  The root
    (1, 1) has stop 2 and share 0.  Only the previous weight's windows are
    kept."""
    windows = [("\x01\x01", 2, 0)]
    for _ in range(n - 1):
        children = []
        add = children.append
        for p, stop, share in windows:
            u = 1
            for i in range(1, stop):
                v = ord(p[i])
                add((p[:i] + chr(u + v) + p[i:], i + 2, share + (u if u < v else v)))
                u = v
        windows = children
        yield windows


def _block_table(n: int) -> _Table:
    """The blocks B of weights 2..n, each once, packed in its lesser
    orientation, each with its row: its piece ",B[0],...,B[-1],1" of the
    canonical text, its share m_B - 1 of the class's step count (see
    :func:`_class_fields`) and whether it differs from its reversal.  A
    block's lesser orientation is the interior of the lesser orientation of
    its window.  The pieces of a weight are its kept windows rendered by one
    :func:`_listing` call, a row "1,B[0],...,1" each, and split at the row
    breaks with their leading 1s: one call per weight keeps the rendered
    text to one weight's.  The table is built once per request, and feeds
    :func:`_block_keys`, :func:`_class_fields` and the cache file."""
    table = {}
    for windows in _windows(n):
        # popped from the end, so that the list shrinks as the table grows;
        # the listing starts with a row break, so the last piece is empty
        pieces = _listing([w for w, _, _ in windows if w <= w[::-1]]).split("\n  1")
        pieces.reverse()
        pieces.pop()
        for window, _, share in windows:
            reverse = window[::-1]
            if window <= reverse:
                table[window[1:-1]] = (pieces.pop(), share, window != reverse)
    return table


def _block_keys(n: int, table: _Table) -> list[_Key]:
    """Every multiset of the blocks of the level's table, sum (|B| + 1) <= n,
    as a sorted tuple, in canonical order, which is (weight, key) order: the
    weight sum (|B| + 1) fixes the leading ones of the canonical member (see
    :func:`_class_fields`).  Checked against delta(n) from the closed form
    of :func:`growth_report`.

    Taking the blocks in decreasing order, each any number of times (an
    unbounded knapsack over the weight), builds each multiset once, sorted:
    a block goes in front of keys whose blocks are no less, and the keys it
    makes are less than every key already in their weight's list, in the
    reverse order of the keys they extend.  So each list is built in
    decreasing order, and read reversed."""
    by_weight: list[list[_Key]] = [[()]] + [[] for _ in range(n)]
    for block in sorted(table, reverse=True):
        head = (block,)
        weight = len(block) + 1
        by_weight[weight].append(head)
        # no key weighs 1, and most weights have no key yet
        for total in range(weight + 2, n + 1):
            if keys := by_weight[total - weight]:
                by_weight[total] += [head + key for key in keys]
    keys = [key for keys in by_weight for key in reversed(keys)]
    expected = _deltas(n)[n]
    if len(keys) != expected:
        raise InternalInvariantError(
            f"u1_classes: n = {n}: equivalence relation produced delta({n}) = {len(keys)}, "
            f"expected {expected}"
        )
    return keys


def u1_classes(n: int) -> list[CatalogClass]:
    """The level-n circle-action classes, one per block multiset, sorted by
    canonical member; delta(n) is their number, checked against the closed
    form of :func:`growth_report`."""
    return _build_classes(n, *_record_keys(n, None))


def family_lebrun(n: int) -> list[SequenceAnalysis]:
    """The analysis records of the floor(n/2) + 2 inequivalent subgroup
    sequences of the torus action whose metrics are LeBrun's, for n >= 3:
    the all-ones sequence, the full staircase (1, 2, ..., n, 1), the short
    staircase (1, 2, ..., n-1, 1, 1) (the only one with positive slack,
    namely 1), and the two-sided staircases glued at a step k for
    ceil(n/2) <= k <= n - 2."""
    if n < 3:
        raise InvalidParameterError("the LeBrun family needs n >= 3")
    _check_family(n)
    seqs: list[tuple[int, ...]] = [
        (1,) * (n + 1),
        tuple(range(1, n + 1)) + (1,),
        tuple(range(1, n)) + (1, 1),
    ]
    for k in range((n + 1) // 2, n - 1):
        seqs.append(tuple(range(1, k + 1)) + (1,) + tuple(range(n - k, 0, -1)))
    members = [analyze_sequence(seq) for seq in seqs]
    if len(members) != n // 2 + 2:
        raise InternalInvariantError(
            f"family_lebrun: n = {n}: LeBrun family size is not floor(n/2) + 2"
        )
    return members


def family_involutive(n: int) -> list[SequenceAnalysis]:
    """The analysis records of one representative per circle-action class
    with isotropy contained in {1, -1}: c blocks (2) padded with ones,
    0 <= c <= floor(n/2).  The slack is n - 2c (undefined for the semi-free
    c = 0), and none of these has a real singularity: every l_i is 0 or 1."""
    if n < 1:
        raise InvalidParameterError("the involutive family needs n >= 1")
    _check_family(n)
    members = []
    for c in range(n // 2 + 1):
        rec = analyze_sequence((1,) + (2, 1) * c + (1,) * (n - 2 * c))
        if c and rec.slack != n - 2 * c:
            raise invariant_violation("family_involutive", rec.k, "involutive slack is not n - 2c")
        if any(l > 1 for l in rec.l):
            raise invariant_violation(
                "family_involutive", rec.k, "involutive sequence acquired a real singularity"
            )
        members.append(rec)
    return members


def _maximal_step(n: int) -> SequenceAnalysis:
    """The analysis record of family_fibonacci(n), its m checked against the
    peak f(n + 1) and, for n <= 7, the row checked against FIBONACCI_TABLE;
    the fibonacci table reads each row's record from here."""
    if n < 2:
        raise InvalidParameterError("the maximal-step family needs n >= 2")
    _check_family(n)
    fib = [0, 1]
    for _ in range(n):
        fib.append(fib[-1] + fib[-2])
    rec = analyze_sequence(
        tuple(fib[j] for j in (*range(1, n + 2, 2), *range((n + 1) // 2 * 2, 1, -2)))
    )
    if rec.m != fib[n + 1]:
        raise invariant_violation(
            "family_fibonacci", rec.k, "maximal-step sequence missed its Fibonacci step count"
        )
    if n in FIBONACCI_TABLE and FIBONACCI_TABLE[n] != (rec.k, rec.l, rec.m):
        raise invariant_violation("family_fibonacci", rec.k, "row differs from the stored table")
    return rec


def family_fibonacci(n: int) -> tuple[int, ...]:
    """The maximal-step sequence at level n (n >= 2): f(1), f(3), ... up to
    f(n + 1), then the even-indexed Fibonacci numbers down to f(2).  It is
    the walk from (1, 2, 1) that always inserts the mediant at the adjacency
    with the largest sum: by induction the peak f(n + 1) sits between
    f(n - 1) and f(n), so f(n + 2) goes between it and f(n).  The sequence is
    unimodal, so its step count m = sum l^+ is its peak f(n + 1), the maximum
    over all level-n sequences."""
    return _maximal_step(n).k


class DeltaRow(Record):
    n: int
    delta: int
    marked_classes: int
    ratio: Fraction | None


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def _marked_count(n: int) -> int:
    """(C_n + p_n)/2, the reversal classes of level n (see growth_report)."""
    palindromes = (1 if n % 2 or n == 0 else 2) * _catalan(n // 2)
    return (_catalan(n) + palindromes) // 2


def _deltas(n_max: int) -> list[int]:
    """delta(0..n_max) in closed form (see growth_report)."""
    # series[t] counts the block multisets of weight t
    series = [1] + [0] * n_max
    for j in range(2, n_max + 1):
        b = (_catalan(j - 1) + (_catalan(j // 2 - 1) if j % 2 == 0 else 0)) // 2
        # times (1 - x^j)^(-b) = sum_c C(b + c - 1, c) x^(j c)
        series = [
            sum(comb(b + c - 1, c) * series[t - j * c] for c in range(t // j + 1))
            for t in range(n_max + 1)
        ]
    return list(accumulate(series))[: n_max + 1]


def growth_report(n_max: int) -> tuple[DeltaRow, ...]:
    """delta(n), reversal-class counts and delta(n)/n^2 for n = 0..n_max, in
    closed form; the quadratic lower bound is reported, never asserted.

    A level-n sequence is 1, X_1, 1, ..., X_t, 1 with each X a block of
    entries > 1 or empty and sum (|X| + 1) = n; as the Catalan series obeys
    C = 1/(1 - xC), there are C_L oriented blocks of length L, C_{(L-1)/2}
    of them palindromes for odd L and none for even L.  A class is a block
    multiset up to reversal with sum (|B| + 1) <= n, so delta(n) sums
    [x^t] prod_{j>=2} (1 - x^j)^(-b(j)) over t <= n, with b(j) =
    (C_{j-1} + [j even] C_{j/2-1})/2 blocks of weight j up to reversal.  The
    marked count is (C_n + p_n)/2 with p_n = 1, 2 C_{n/2} or C_{(n-1)/2}
    palindromes for n = 0, even n > 0 or odd n.  :func:`enumerate_marked`
    and :func:`u1_classes` check their counts against these at every level.

    The same series counts the classes by slack.  A class's slack is
    n - sum (|B| + 1) (see :func:`_class_fields`), so the classes of slack j
    are the block multisets of weight exactly n - j: there are
    delta(n - j) - delta(n - j - 1) of them for 0 <= j < n, and only the
    semi-free class, the empty key, has no slack.  Summed over j >= 1,
    delta(n - 1) - 1 classes have slack > 0.
    """
    if n_max < 0:
        raise InvalidParameterError("n must be nonnegative")
    # a closed form, bounded as the named families are, not by the level
    # the enumeration serves
    _check_family(n_max)
    return tuple(
        DeltaRow(n, delta, _marked_count(n), Fraction(delta, n * n) if n else None)
        for n, delta in enumerate(_deltas(n_max))
    )


# ---------------------------------------------------------------------------
# The catalog file the benchmark pins


class CatalogCache:
    """Per-n JSON file of the CLI's class catalog, in the directory that
    --cache-dir names; with no --cache-dir the CLI makes none and touches no
    file.  It is not exported by the package, and no key is ever read from
    it: :func:`_u1_keys` builds the keys with :func:`_block_keys`, so stdout
    depends on no file's contents, then asks load whether the file already
    holds them and calls store if it does not.
    The class, load, store, :func:`u1_classes_cached` and the CLI's
    --cache-dir and --no-cache remain only because the benchmark pins them:
    its catalog workload sends both options and its tracer wraps the three
    functions by name.  They go when the benchmark's catalog workload does.

    A version-4 file is ``{"version": 4, "n": n, "classes": [key, ...]}``,
    one block multiset key per class, in canonical order, each block a list
    of its entries: the bytes json.dumps(..., sort_keys=True) writes for the
    keys decoded, and a line break.  store writes them, and load compares
    the file with them; both take their text from :meth:`_text`.
    """

    VERSION = 4

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)

    def path(self, n: int) -> Path:
        return self.directory / f"catalog_n{n}.json"

    def _text(self, n: int, table: _Table, keys: list[_Key]) -> Iterator[str]:
        """The file's text for the level-n packed keys of :func:`_block_keys`
        built from table, a slice of keys at a time, never whole: a fresh
        catalog --n 14 miss peaks at 261 MB this way and at 278 MB with the
        text held whole (2-core VM, CPython 3.11).  Each block's JSON text
        is made once, by :func:`_block_texts`, and no key is decoded."""
        block_text = _block_texts(table).__getitem__
        step = 1 << 12
        # the keys joined by "], [", inside the brackets of the first and
        # the last, each key its blocks' texts joined
        yield '{"classes": [['
        for start in range(0, len(keys), step):
            if start:
                yield "], ["
            yield "], [".join(
                [", ".join(map(block_text, key)) for key in keys[start : start + step]]
            )
        yield f']], "n": {n}, "version": {self.VERSION}}}\n'

    def load(self, n: int, table: _Table, keys: list[_Key]) -> list[_Key] | None:
        """keys when the level-n file already holds exactly the bytes store
        writes for them, and None otherwise, a missing or unreadable file
        included.  The file is compared with :meth:`_text` a chunk at a
        time, never held whole and never parsed, and read at most one byte
        past the expected bytes."""
        try:
            with self.path(n).open("rb") as handle:
                for chunk in self._text(n, table, keys):
                    if handle.read(len(chunk)) != chunk.encode("ascii"):
                        return None
                if handle.read(1):
                    return None
        except OSError:
            return None
        return keys

    def store(self, n: int, table: _Table, keys: list[_Key]) -> Path | None:
        """Write the file's :meth:`_text` for the level-n packed keys built
        from table; the path written, or None when it cannot be written."""
        path = self.path(n)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            return None
        # write beside the target and rename over it, so a reader never sees
        # a partly written file
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with tmp.open("w", encoding="utf-8") as handle:
                handle.writelines(self._text(n, table, keys))
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            return None
        return path


def _block_texts(table: _Table) -> dict[str, str]:
    """Each block of the table with its JSON text "[B[0], ..., B[-1]]", as
    json.dumps separates it, made from its piece ",B[0],...,B[-1],1" by a
    few replaces over the pieces of 2^14 blocks at a time, which keeps the
    joined text of each replace small beside the texts themselves."""
    texts: list[str] = []
    rows = iter(table.values())
    while chunk := [piece for piece, _, _ in islice(rows, 1 << 14)]:
        # the pieces joined by "\x00" hold ",1\x00," only where one piece
        # ends and the next begins, since no entry of a block is 1
        pieces = "\x00".join(chunk)
        pieces = f"[{pieces[1:-2]}]".replace(",1\x00,", "]\x00[").replace(",", ", ")
        texts += pieces.split("\x00")
    return dict(zip(table, texts))


def _u1_keys(n: int, cache: CatalogCache | None) -> tuple[_Table, list[_Key]]:
    """The level's block table and its block multiset keys in canonical
    order, always built by :func:`_block_keys`; with a cache, its file is
    then rewritten unless it already holds them.  A negative n, or one above
    the enumeration limit, is rejected before any file is touched."""
    _check_level(n)
    table = _block_table(n)
    keys = _block_keys(n, table)
    if cache is not None and cache.load(n, table, keys) is None:
        cache.store(n, table, keys)
    return table, keys


def u1_classes_cached(n: int, cache: CatalogCache | None = None) -> list[CatalogClass]:
    """u1_classes, with the cache file kept current as :func:`_u1_keys`
    keeps it: the records never depend on the file.  A negative n, or one
    above the enumeration limit, is rejected before any file is touched."""
    return _build_classes(n, *_record_keys(n, cache))
