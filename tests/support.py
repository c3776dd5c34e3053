"""Sequence generators shared by the test modules."""

from __future__ import annotations

from minitwistor import enumerate_marked


def oriented_sequences(n):
    """Every level-n sequence in both orientations, each palindrome once."""
    for seq in enumerate_marked(n):
        yield seq
        if seq != seq[::-1]:
            yield seq[::-1]
