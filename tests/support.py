"""Sequence generators shared by the test modules."""

from __future__ import annotations

from minitwistor import enumerate_marked, insertions, reversal_canonical


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
