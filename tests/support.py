"""Sequence generators, oracles and the subprocess environment shared by the
test modules."""

from __future__ import annotations

import os
from math import comb
from pathlib import Path

from hypothesis import strategies as st

from minitwistor import (
    InvalidSequenceError,
    analyze_sequence,
    enumerate_marked,
    u1_key,
    validate_sequence,
)
from minitwistor.catalog import _marked_count
from minitwistor.exact import decimal, format_scalar

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env():
    """The environment with the package source first on PYTHONPATH, so a
    child interpreter imports this checkout without an install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fibonacci(n):
    """f(1) = f(2) = 1, f(3) = 2, ..."""
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def reversal_canonical(seq):
    """Lexicographic minimum of a sequence and its reversal."""
    return min(seq, seq[::-1])


def insertions(seq):
    """All children of a level-(n-1) sequence at level n, as a multiset:
    prepend 1, append 1, and the mediant k_i + k_{i+1} at each adjacency."""
    children = [(1,) + seq, seq + (1,)]
    for i in range(len(seq) - 1):
        children.append(seq[: i + 1] + (seq[i] + seq[i + 1],) + seq[i + 1 :])
    return children


def is_valid_sequence(seq):
    try:
        validate_sequence(seq)
    except InvalidSequenceError:
        return False
    return True


def oriented_sequences(n):
    """Every level-n sequence in both orientations, each palindrome once."""
    for seq in enumerate_marked(n):
        yield seq
        if seq != seq[::-1]:
            yield seq[::-1]


def marked_by_insertion(n_max):
    """Levels 0..n_max up to reversal, sorted, by brute force: every insertion
    child of every parent, canonicalized, duplicates dropped by a set.  The
    oracle for enumerate_marked, which generates each sequence once."""
    levels = [((1,),)]
    for _ in range(n_max):
        level = {reversal_canonical(child) for parent in levels[-1] for child in insertions(parent)}
        levels.append(tuple(sorted(level)))
    return levels


def unpack(packed):
    """A packed sequence or block, the str whose code points are its
    entries, as the tuple of its entries."""
    return tuple(map(ord, packed))


def unpack_key(key):
    """A packed block multiset key as the tuple of its blocks' tuples, the
    form of CatalogClass.u1_key."""
    return tuple(map(unpack, key))


def pack(seq):
    """A sequence or block as the str whose code points are its entries."""
    return "".join(map(chr, seq))


def mediant_stop(p):
    """The end of the mediant range of an oriented sequence p, by scanning:
    the children of p in the canonical augmentation are (1,) + p and the
    mediants at adjacencies 1 <= i < stop.  The callers settle p == (1,)
    (stop 1) and p[1] == 1 (stop 2); otherwise stop = j + 2 at the first
    interior mediant j, and len(p) = 2 for (1, 1).  The oracle for the stop
    that catalog._windows carries with each window and catalog._marked_level
    scans for."""
    for j in range(1, len(p) - 1):
        if p[j] == p[j - 1] + p[j + 1]:
            return j + 2
    return len(p)


def marked_tuples(n):
    """Level n up to reversal, sorted, by the canonical augmentation on
    tuples of entries, each level checked against its closed-form count:
    the oracle for catalog._marked_level, which walks the same tree on
    packed sequences.  Each oriented parent p has the children (1,) + p and
    the mediants at adjacencies i < mediant_stop(p); of a child and its
    reversal only the lesser is kept, decided by c[1] against c[-2] where
    the two differ (see catalog._marked_level)."""
    level = [(1,)]
    for j in range(1, n + 1):
        parents, level = level, []
        keep = level.append
        for rep in parents:
            for p in (rep,) if rep == rep[::-1] else (rep, rep[::-1]):
                last = len(p) - 1
                if last == 0:
                    keep((1, 1))
                    continue
                a, b = p[1], p[-2]
                child = (1,) + p
                if b > 1 or child <= child[::-1]:
                    keep(child)
                # at p == (1, 1) the mediant 2 takes both places of the pair
                x = 1 + a
                if x <= b or last == 1:
                    child = (1, x) + p[1:]
                    if x < b or child <= child[::-1]:
                        keep(child)
                if a == 1:
                    continue
                stop = mediant_stop(p)
                if a < b:
                    level += [
                        p[:i] + (p[i - 1] + p[i],) + p[i:] for i in range(2, min(stop, last))
                    ]
                elif a == b:
                    for i in range(2, min(stop, last)):
                        child = p[:i] + (p[i - 1] + p[i],) + p[i:]
                        if child <= child[::-1]:
                            keep(child)
                if stop > last and a <= b + 1:
                    child = p[:-1] + (b + 1, 1)
                    if a <= b or child <= child[::-1]:
                        keep(child)
        level.sort()
        assert len(level) == _marked_count(j), j
    return tuple(level)


def block_rows(blocks):
    """Each block's row of catalog._block_table from its definition: the
    piece ",B[0],...,B[-1],1" of the canonical text, the share
    sum |w[k+1] - w[k]| / 2 over its window w = (1, B, 1), and whether it
    differs from its reversal.  Keyed by the block's tuple; it takes any
    block, valid or not."""
    return {
        block: (
            ",%d" * len(block) % block + ",1",
            sum(abs(v - u) for u, v in zip(window, window[1:])) // 2,
            block != block[::-1],
        )
        for block in blocks
        for window in [(1,) + block + (1,)]
    }


def west_children(p, k):
    """The children of an oriented sequence p of label k in West's Catalan
    generating tree (J. West, Discrete Math. 146, 1995), with their labels:
    (1,) + p with label 2, and the mediant at adjacency i with label i + 2
    for 1 <= i < k.  The root (1,) has label 1."""
    yield (1,) + p, 2
    for i in range(1, k):
        yield p[:i] + (p[i - 1] + p[i],) + p[i:], i + 2


def tree_count(k, d):
    """N(k, d), the descendants d levels below a node of label k, defined by
    N(k, 0) = 1 and N(k, d) = sum_{j=2}^{k+1} N(j, d - 1), in closed form:
    the ballot number k C(2d + k, d) / (2d + k), so that a draw at n = 500
    needs no recursion 500 levels deep (the tests check the recurrence)."""
    return k * comb(2 * d + k, d) // (2 * d + k)


def west_sample(n, rng):
    """A uniformly random oriented level-n sequence: a walk from (1) down
    West's generating tree that takes each child with probability
    proportional to its level-n descendants, drawn exactly in integers."""
    p, k = (1,), 1
    for d in range(n - 1, -1, -1):
        pick = rng.randrange(tree_count(k, d + 1))
        for p_child, k_child in west_children(p, k):
            pick -= tree_count(k_child, d)
            if pick < 0:
                break
        p, k = p_child, k_child
    return p


def west_sequences(max_n):
    """Hypothesis strategy: a uniformly random oriented sequence by
    :func:`west_sample`, at a level drawn from 0..max_n.  The walk runs on a
    ``random.Random`` seeded by hypothesis, whose draws are uniform, where
    hypothesis's own integers lean towards the ends of their range."""
    return st.builds(west_sample, st.integers(0, max_n), st.randoms(use_true_random=True))


def restriction_oracle(trace):
    """The divisor's restriction to the cycle (C_i, then conj C_i), by
    accumulating the two half-cycles of every step of the trace.  The oracle
    for restriction_multiplicities, which reads m +/- k_i."""
    n = trace.n
    c = [0] * (n + 2)
    cbar = [0] * (n + 2)
    for i, j in trace.steps:
        for t in range(i, n + 3):
            c[t - 1] += 1
        for t in range(1, i):
            cbar[t - 1] += 1
        for t in range(1, j + 1):
            c[t - 1] += 1
        for t in range(j + 1, n + 3):
            cbar[t - 1] += 1
    return tuple(c), tuple(cbar)


def greedy_maximal_step(n):
    """The level-n maximal-step sequence by the greedy walk: from (1, 2, 1),
    insert the mediant at the adjacency with the largest sum, up to reversal.
    The oracle for family_fibonacci, which writes the sequence down."""
    seq = (1, 2, 1)
    for _ in range(n - 2):
        # insertions(seq)[2:] are the mediant children, adjacency by adjacency
        seq = min(
            (-(seq[i] + seq[i + 1]), reversal_canonical(child))
            for i, child in enumerate(insertions(seq)[2:])
        )[1]
    return seq


def grouped_classes(n):
    """The level-n circle-action classes by enumerate-then-group: every
    level-n sequence keyed by u1_key, each group closed under reversal and
    analyzed at its least member.  The oracle for u1_classes, which builds
    the classes from block multisets.  Returns (key, canonical, members, m,
    l, slack) tuples sorted by canonical member."""
    groups = {}
    for rep in enumerate_marked(n):
        groups.setdefault(u1_key(rep), []).append(rep)
    classes = []
    for key, reps in groups.items():
        members = tuple(sorted({orient for rep in reps for orient in (rep, rep[::-1])}))
        rec = analyze_sequence(members[0])
        classes.append((key, rec.k, members, rec.m, rec.l, rec.slack))
    return sorted(classes, key=lambda cls: cls[1])


def ordered_terms(q):
    """The terms of a QuadraticForm by descending a + b, then descending a."""
    return sorted(q.terms, key=lambda item: (-(item[0][0] + item[0][1]), -item[0][0]))


def join_terms(rendered):
    """(sign, body) pairs as "body1 + body2 - body3 ...", a first negative
    body as "-body1", and no pairs as "0"."""
    if not rendered:
        return "0"
    parts = []
    for position, (sign, body) in enumerate(rendered):
        if position == 0:
            parts.append(("-" if sign < 0 else "") + body)
        else:
            parts.append(("- " if sign < 0 else "+ ") + body)
    return " ".join(parts)


def equation_latex_oracle(model):
    """The model equation as a LaTeX line, one loop per format with the sign
    and magnitude taken in Fraction arithmetic: the oracle for
    render.equation_latex, which writes both formats in one walk."""
    m = model.m
    rendered = []
    for (a, b), coeff in ordered_terms(model.q):
        mono = f"z_{{{a}}}^{{2}}" if a == b else f"z_{{{a}}}z_{{{b}}}"
        mag = abs(coeff)
        if mag == 1:
            body = mono
        elif mag.denominator == 1:
            body = f"{decimal(mag.numerator)}{mono}"
        else:
            body = f"\\tfrac{{{decimal(mag.numerator)}}}{{{decimal(mag.denominator)}}}{mono}"
        rendered.append((1 if coeff > 0 else -1, body))
    return f"z_{{{m + 1}}}z_{{{m + 2}}} = " + join_terms(rendered)


def equation_text_oracle(model):
    """The model equation as a plain-text line, the same way: the oracle for
    render.equation_text."""
    m = model.m
    rendered = []
    for (a, b), coeff in ordered_terms(model.q):
        mono = f"z{a}^2" if a == b else f"z{a}*z{b}"
        mag = abs(coeff)
        body = mono if mag == 1 else f"{format_scalar(mag)}*{mono}"
        rendered.append((1 if coeff > 0 else -1, body))
    return f"z{m + 1}*z{m + 2} = " + join_terms(rendered)
