"""Sequence generators, oracles and the subprocess environment shared by the
test modules."""

from __future__ import annotations

import os
from pathlib import Path

from minitwistor import enumerate_marked, insertions, reversal_canonical

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env():
    """The environment with the package source first on PYTHONPATH, so a
    child interpreter imports this checkout without an install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


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
