"""Enumeration of weight sequences up to symmetry, class counts, and the
named families.

Level n sequences are generated from the base sequence (1) by mediant
insertions: prepend 1, append 1, or insert k_i + k_{i+1} at an adjacency.
Marked actions are identified up to reversal; circle actions are identified
by the coarser connected-sum relation described at :func:`u1_key`.  The class
count delta(n) is gated against its known small values and counted in closed
form by :func:`growth_report`; the three named families (semi-free-containing,
involution-isotropy, maximal-step) are written down in closed form.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from pathlib import Path

from .errors import InternalInvariantError, InvalidParameterError, invariant_violation
from .invariants import SequenceAnalysis, analyze_sequence

#: Known class counts delta(0..5); the equivalence relation must reproduce
#: these exactly, and u1_classes fails loudly if it does not.
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
#: sequences; u1_classes(14) takes about 14 s and 961 MB, and each further
#: level costs about 3.5 times more.
_MAX_LEVEL = 14


def _check_level(n: int) -> None:
    if n > _MAX_LEVEL:
        raise InvalidParameterError(f"n = {n} is above the enumeration limit n <= {_MAX_LEVEL}")


#: The largest level of a named family: tables fibonacci --n-max 500, the
#: costliest family table, takes about 0.5 s and 31 MB of peak RSS.
_MAX_FAMILY = 500


def _check_family(n: int) -> None:
    if n > _MAX_FAMILY:
        raise InvalidParameterError(f"n = {n} is above the family limit n <= {_MAX_FAMILY}")


@lru_cache(maxsize=None)
def enumerate_marked(n: int) -> tuple[tuple[int, ...], ...]:
    """All level-n sequences reachable from (1), one representative per
    reversal class, sorted.  Level sets are memoized, so walking up through
    the levels costs each level once.

    Each sequence is generated once, from one parent: itself with its
    leftmost removable entry deleted.  In a sequence p of length L, entry 0
    is removable when p[1] == 1 (or p == (1,)), an interior entry j when it
    is the mediant p[j-1] + p[j+1], and otherwise the last entry is.  Let r
    be the leftmost removable position of p.  The prepended child (1,) + p
    has its leftmost removable entry at 0.  A mediant inserted at adjacency
    i is removable and leaves positions before i - 1 as they were in p,
    while the entry to its left, now beside a larger neighbor, cannot be
    removable; so the mediant is the child's leftmost removable entry
    exactly when i <= r + 1.  The appended 1 is leftmost exactly when
    r == L - 1 > 0.  So every level-n sequence comes from exactly one
    oriented level-(n-1) parent, and of a child and its reversal (each
    generated once) only the lesser is kept.  No set is needed.
    """
    if n < 0:
        raise InvalidParameterError("n must be nonnegative")
    _check_level(n)
    if n == 0:
        return ((1,),)
    level: list[tuple[int, ...]] = []
    for rep in enumerate_marked(n - 1):
        for p in (rep,) if rep == rep[::-1] else (rep, rep[::-1]):
            last = len(p) - 1
            r = 0 if last == 0 or p[1] == 1 else last
            for j in range(1, r):
                if p[j] == p[j - 1] + p[j + 1]:
                    r = j
                    break
            children = [(1,) + p]
            children += [p[:i] + (p[i - 1] + p[i],) + p[i:] for i in range(1, min(r + 1, last) + 1)]
            if r == last > 0:
                children.append(p + (1,))
            level += [child for child in children if child <= child[::-1]]
    level.sort()
    return tuple(level)


def u1_key(seq: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Connected-sum class key of a marked sequence.

    The maximal blocks of consecutive entries > 1 are the summands of the
    action glued along the fixed sphere; reordering the summands and flipping
    any one of them are equivariant operations, so the class key is the
    sorted multiset of blocks, each block canonicalized up to reversal.  The
    all-ones sequence has the empty key.  This relation reproduces the known
    counts delta(4) = 7 and delta(5) = 15 (the finer run-length word fails at
    n = 5), and it is gated on them at runtime.
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


@dataclass(frozen=True)
class CatalogClass:
    """One equivalence class of circle actions at a fixed n.

    members holds every marked sequence of the class (closed under reversal);
    canonical is their lexicographic minimum.  m is class-invariant; l is the
    l-vector of the canonical member; slack is the canonical member's, which
    is the maximum over members (slack depends on the marked action, not just
    the class), and None for the semi-free class.

    A sequence is valid exactly when every window (1, B, 1) around a maximal
    block B of entries > 1 is valid, so every arrangement of the class's
    blocks with ones between and around them is a member.  The canonical
    member puts all spare ones in front, so its slack n - sum |B| - #blocks
    is the maximum.
    """

    canonical: tuple[int, ...]
    members: tuple[tuple[int, ...], ...]
    u1_key: tuple[tuple[int, ...], ...]
    m: int
    l: tuple[int, ...]
    slack: int | None


def _build_classes(groups: dict[tuple, list[tuple[int, ...]]]) -> list[CatalogClass]:
    """One class per key from its group of sequences, closed under reversal
    here, sorted by canonical member.  A miss and a cache hit both build their
    classes here, so a hit's derived fields are the miss's."""
    classes = []
    for key, reps in groups.items():
        members = sorted({orient for rep in reps for orient in (rep, rep[::-1])})
        rec = analyze_sequence(members[0])
        classes.append(CatalogClass(rec.k, tuple(members), key, rec.m, rec.l, rec.slack))
    return sorted(classes, key=lambda c: c.canonical)


def _member_count(n: int, key: tuple[tuple[int, ...], ...]) -> int:
    """Number of members of the level-n class with block multiset key, in
    closed form: the b blocks go into b of the ones - 1 gaps between the
    ones = n + 1 - sum |B| ones, in b!/prod c_B! orders, and each block B of
    multiplicity c_B in o_B^{c_B} orientations (o_B = 1 for a palindrome, 2
    otherwise)."""
    count = comb(n - sum(map(len, key)), len(key)) * factorial(len(key))
    for block, c in Counter(key).items():
        count = count // factorial(c) * (1 if block == block[::-1] else 2) ** c
    return count


def _canonical_member(n: int, key: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """Lexicographically least member of the level-n class with block
    multiset key, in closed form: every spare one in front, then each block
    followed by a one, in key order.  A block followed by a one is never a
    prefix of another, so key order is the least order of the blocks."""
    return (1,) * (n + 1 - sum(map(len, key)) - len(key)) + sum((b + (1,) for b in key), ())


def u1_classes(n: int) -> list[CatalogClass]:
    """Group the level-n sequences into circle-action classes, sorted by
    canonical member; delta(n) is their number."""
    _check_level(n)
    groups: dict[tuple, list[tuple[int, ...]]] = {}
    for rep in enumerate_marked(n):
        groups.setdefault(u1_key(rep), []).append(rep)
    classes = _build_classes(groups)
    if n < len(KNOWN_DELTA) and len(classes) != KNOWN_DELTA[n]:
        raise InternalInvariantError(
            f"u1_classes: n = {n}: equivalence relation produced delta({n}) = {len(classes)}, "
            f"expected {KNOWN_DELTA[n]}"
        )
    return classes


@dataclass(frozen=True)
class FamilySequence:
    """A named-family member with its deformability annotation."""

    seq: tuple[int, ...]
    semi_free: bool
    slack: int | None
    deformable: bool


def _annotate(rec: SequenceAnalysis) -> FamilySequence:
    return FamilySequence(
        seq=rec.k, semi_free=rec.semi_free, slack=rec.slack, deformable=rec.deformable
    )


def family_lebrun(n: int) -> list[FamilySequence]:
    """The floor(n/2) + 2 inequivalent subgroup sequences of the torus action
    whose metrics are LeBrun's, for n >= 3: the all-ones sequence, the full
    staircase (1, 2, ..., n, 1), the short staircase (1, 2, ..., n-1, 1, 1)
    (the only one with positive slack, namely 1), and the two-sided
    staircases glued at a step k for ceil(n/2) <= k <= n - 2."""
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
    members = [_annotate(analyze_sequence(seq)) for seq in seqs]
    if len(members) != n // 2 + 2:
        raise InternalInvariantError(
            f"family_lebrun: n = {n}: LeBrun family size is not floor(n/2) + 2"
        )
    return members


def family_involutive(n: int) -> list[FamilySequence]:
    """One representative per circle-action class with isotropy contained in
    {1, -1}: c blocks (2) padded with ones, 0 <= c <= floor(n/2).  The slack
    is n - 2c (undefined for the semi-free c = 0), and none of these has a
    real singularity: every l_i is 0 or 1."""
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
        members.append(_annotate(rec))
    return members


def _maximal_step(n: int) -> SequenceAnalysis:
    """The analysis record of family_fibonacci(n), its m checked against the
    peak f(n + 1); the fibonacci table reads each row's record from here."""
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


@dataclass(frozen=True)
class DeltaRow:
    n: int
    delta: int
    marked_classes: int
    ratio: Fraction | None


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


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
    palindromes for n = 0, even n > 0 or odd n.
    """
    _check_level(n_max)
    # series[t] counts the block multisets of weight t
    series = [1] + [0] * n_max
    for j in range(2, n_max + 1):
        b = (_catalan(j - 1) + (_catalan(j // 2 - 1) if j % 2 == 0 else 0)) // 2
        # times (1 - x^j)^(-b) = sum_c C(b + c - 1, c) x^(j c)
        series = [
            sum(comb(b + c - 1, c) * series[t - j * c] for c in range(t // j + 1))
            for t in range(n_max + 1)
        ]
    rows, delta = [], 0
    for n in range(n_max + 1):
        delta += series[n]
        palindromes = (1 if n % 2 or n == 0 else 2) * _catalan(n // 2)
        ratio = Fraction(delta, n * n) if n else None
        rows.append(DeltaRow(n, delta, (_catalan(n) + palindromes) // 2, ratio))
    return tuple(rows)


# ---------------------------------------------------------------------------
# JSON cache for repeated CLI invocations


class CatalogCache:
    """Per-n JSON cache of the class catalog, by default in
    ~/.cache/minitwistor.

    A version-3 file is ``{"version": 3, "n": n, "classes": [...]}``, one
    entry per class: its sorted member list, canonical member first.  The
    other fields of a class derive from its members, so a hit rebuilds them
    with the builder a miss uses, which validates each canonical member.
    load then checks once per class that the built canonical is the
    closed-form canonical member of its key (so it has that key and length
    n + 1), and that the class has the closed-form member count of its key;
    and once for the whole set that the counts add up to the Catalan number
    C_n of level-n sequences.  Keys are distinct, so the total proves that no
    class is missing.  The other members are counted, not walked: their
    entries are never validated.
    """

    VERSION = 3

    def __init__(self, directory: str | os.PathLike | None = None):
        self.directory = (
            Path.home() / ".cache" / "minitwistor" if directory is None else Path(directory)
        )

    def path(self, n: int) -> Path:
        return self.directory / f"catalog_n{n}.json"

    def load(self, n: int) -> list[CatalogClass] | None:
        # a missing, unreadable, truncated, too deeply nested or wrongly
        # shaped file is a miss, and so is an invalid canonical member
        # (InvalidSequenceError is a ValueError)
        try:
            data = json.loads(self.path(n).read_text(encoding="utf-8"))
            if data["version"] != self.VERSION or data["n"] != n:
                return None
            groups = {}
            for entry in data["classes"]:
                members = [tuple(member) for member in entry]
                groups[u1_key(members[0])] = members
            classes = _build_classes(groups)
            sound = all(
                cls.canonical == _canonical_member(n, cls.u1_key)
                and len(cls.members) == _member_count(n, cls.u1_key)
                for cls in classes
            )
        except (OSError, ValueError, LookupError, TypeError, RecursionError):
            return None
        total = sum(len(cls.members) for cls in classes)
        return classes if sound and total == _catalan(n) else None

    def store(self, n: int, classes: list[CatalogClass]) -> Path | None:
        path = self.path(n)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            return None
        payload = {"version": self.VERSION, "n": n, "classes": [cls.members for cls in classes]}
        # write beside the target and rename over it, so a reader never sees
        # a partly written file
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            tmp.unlink(missing_ok=True)
            return None
        return path


def u1_classes_cached(n: int, cache: CatalogCache | None = None) -> list[CatalogClass]:
    """u1_classes with a read-through JSON cache."""
    if cache is None:
        return u1_classes(n)
    classes = cache.load(n)
    if classes is None:
        classes = u1_classes(n)
        cache.store(n, classes)
    return classes
