"""Invariants of a circle subgroup acting on an invariant anticanonical cycle.

Everything downstream is driven by the weight sequence (k_2, ..., k_{n+2}) of
the chosen circle subgroup on the components of the cycle.  Padding it with
k_1 = k_{n+3} = 0, every invariant has a closed form, for i = 1..n+2:

    l_i^+ = max(0, k_{i+1} - k_i)      l_i^- = max(0, k_i - k_{i+1})
    l_i   = |k_{i+1} - k_i|            m     = sum_i l_i^+

The plus/minus vectors are the multiplicities of a distinguished divisor, and
their sum l drives fibers, singularities and discriminants.  The divisor
restricts to the cycle with multiplicity m + k_i on C_i and m - k_i on its
conjugate (m on C_1 and its conjugate).  With lead and trail the numbers of
ones at the two ends of the sequence, the regular-run indices are
r = lead + 1 and s = n + 3 - trail, so the slack n + r - s of the
deformability criterion is lead + trail - 2.

:func:`analyze_sequence` validates a sequence once and returns all of this as
one frozen :class:`SequenceAnalysis` record, which the model, conic-bundle,
catalog and CLI layers read.  The record builds the trace of the decrement
procedure only when asked, by a level scan: the steps are the connected
components of {i : k_i >= h} for h = max k down to 1, left to right within a
level, so their number is m.

The decrement simulation itself (:func:`reduction_steps`,
:func:`reduction_trace`), the divisor assembled from its steps
(:func:`trace_divisor`, :func:`l_vector`), the run scan of
:func:`regularity` and :func:`sequence_l_vector` are the test oracle for
these closed forms; no library path calls them.  They are not exported from
the package: import them from this module.  They stay in this module, not
with the other oracles under ``tests/``, only because the benchmark's span
tracer (``bench/tracer.py``) wraps them by their ``invariants.*`` names.  The
tests check the restriction against the component-by-component accumulation
over the trace.

Indices follow the geometry: weights are indexed 2..n+2 and divisors 1..n+2.
Python tuples hold the entries in that order, while every index appearing in
steps, reports or index sets is the 1-based geometric one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import add, mul, sub

from .errors import invariant_violation
from .fans import HalfFan, Ray, sequence_from_fan, validate_sequence

SEMI_FREE_NOTE = "semi-free: handled by LeBrun theory"


@dataclass(frozen=True)
class ReductionTrace:
    """Steps (i_l, j_l) of the decrement procedure on a weight sequence.

    Step l lowers entries i_l..j_l by one; indices are in the k-numbering
    (2..n+2).  The final step always spans (2, n+2): one pass before the end
    every entry equals 1.  The library builds it by the level scan of
    :attr:`SequenceAnalysis.trace`; :func:`reduction_trace` simulates it as
    the test oracle.
    """

    n: int
    steps: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class TraceDivisor:
    """Multiplicities of the degree-one components of the divisor built from
    a reduction trace: step (i_l, j_l) contributes the component left of the
    run on the plus side and the run end on the minus side.

    ``plus[t]`` and ``minus[t]`` are the multiplicities of the t+1-st
    plus/minus component; no index carries both signs, the first plus and last
    minus multiplicities are exactly one, and each sign sums to m.
    """

    n: int
    plus: tuple[int, ...]
    minus: tuple[int, ...]

    @property
    def m(self) -> int:
        return sum(self.plus)


@dataclass(frozen=True)
class SequenceAnalysis:
    """A validated weight sequence with its invariants in closed form.

    Built once per request by :func:`analyze_sequence`.  ``rays`` is the ray
    chain of the normalized half-fan that validation produced; ``l_plus``,
    ``l_minus`` and ``l`` are indexed 1..n+2; ``regular`` lists the indices
    with weight 1.  For the semi-free sequence (all weights 1) r, s and slack
    are None and deformability is settled by LeBrun's theory of semi-free
    circle actions instead: such metrics deform whenever n >= 3.
    """

    k: tuple[int, ...]
    rays: tuple[Ray, ...]
    n: int
    m: int
    l_plus: tuple[int, ...]
    l_minus: tuple[int, ...]
    l: tuple[int, ...]
    regular: tuple[int, ...]
    semi_free: bool
    r: int | None
    s: int | None
    slack: int | None
    deformable: bool
    note: str | None = None

    @cached_property
    def trace(self) -> ReductionTrace:
        """The decrement trace by the level scan: between two consecutive
        distinct weights the components of {i : k_i >= h} do not change, so
        each is emitted once per level it spans."""
        k = self.k
        levels = sorted(set(k), reverse=True)
        steps: list[tuple[int, int]] = []
        for top, below in zip(levels, levels[1:] + [0]):
            runs = []
            start = None
            for index, entry in enumerate(k, start=2):
                if entry >= top:
                    if start is None:
                        start = index
                elif start is not None:
                    runs.append((start, index - 1))
                    start = None
            if start is not None:
                runs.append((start, self.n + 2))
            steps.extend(runs * (top - below))
        if len(steps) != self.m:
            raise invariant_violation("trace", k, "level scan length differs from m")
        if steps[-1] != (2, self.n + 2):
            raise invariant_violation("trace", k, "final pass does not span the whole sequence")
        return ReductionTrace(n=self.n, steps=tuple(steps))


Weights = tuple[int, ...] | SequenceAnalysis


def analyze_sequence(seq: Weights) -> SequenceAnalysis:
    """Validate a weight sequence once and fill in its invariants from the
    closed forms; a record passes through unchanged.

    The cheap structural identities are checked on the way: sum l = 2m,
    l_1 = l_{n+2} = 1, no index carries both signs and max k <= m <= sum k.
    """
    if isinstance(seq, SequenceAnalysis):
        return seq
    rays = validate_sequence(seq)
    k = tuple(seq)
    n = len(k) - 1
    padded = (0,) + k + (0,)
    diffs = list(map(sub, padded[1:], padded))
    plus = tuple([d if d > 0 else 0 for d in diffs])
    minus = tuple([0 if d > 0 else -d for d in diffs])
    l = tuple(map(add, plus, minus))
    m = sum(plus)
    if sum(l) != 2 * m or l[0] != 1 or l[-1] != 1:
        raise invariant_violation("analyze_sequence", k, "l-vector failed its structural identities")
    if any(map(mul, plus, minus)):
        raise invariant_violation("analyze_sequence", k, "an index carries both signs")
    if not max(k) <= m <= sum(k):
        raise invariant_violation("analyze_sequence", k, "m lies outside [max k, sum k]")
    regular = tuple([i for i, entry in enumerate(k, start=2) if entry == 1])
    runs = _end_runs(k)
    if runs is None:
        r = s = slack = None
        deformable, note = n >= 3, SEMI_FREE_NOTE
    else:
        lead, trail = runs
        r, s, slack = lead + 1, n + 3 - trail, lead + trail - 2
        deformable, note = slack > 0, None
    return SequenceAnalysis(
        k=k, rays=rays, n=n, m=m, l_plus=plus, l_minus=minus, l=l, regular=regular,
        semi_free=runs is None, r=r, s=s, slack=slack, deformable=deformable, note=note,
    )


def _end_runs(k: tuple[int, ...]) -> tuple[int, int] | None:
    """Numbers of ones (lead, trail) at the two ends of a sequence, or None
    when every entry is 1."""
    lead = 0
    while lead < len(k) and k[lead] == 1:
        lead += 1
    if lead == len(k):
        return None
    trail = 0
    while k[-1 - trail] == 1:
        trail += 1
    return lead, trail


def _weights(seq: Weights) -> tuple[int, ...]:
    return seq.k if isinstance(seq, SequenceAnalysis) else seq


def restriction_multiplicities(seq: Weights) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Multiplicities m + k_i on C_i and m - k_i on conj C_i (m on C_1 and
    its conjugate) of the divisor's restriction to the cycle.  A plus
    component a restricts to C_{a+1}, ..., conj C_a and a minus component b
    to C_b, ..., conj C_{b+1}; as l^+ and l^- are the positive and negative
    parts of the differences of (0, k, 0), their sum telescopes to m +/- k_i."""
    rec = analyze_sequence(seq)
    m = rec.m
    return (m, *[m + k for k in rec.k]), (m, *[m - k for k in rec.k])


# ---------------------------------------------------------------------------
# the decrement simulation: the test oracle for the closed forms


def reduction_steps(
    entries: tuple[int, ...], first_index: int = 2
) -> tuple[tuple[int, int], ...]:
    """Run the decrement procedure on a positive sequence, recording steps.

    Each pass picks the smallest position attaining the maximum, extends it to
    the maximal run of equal entries, and lowers that run by one; passes repeat
    until the sequence is zero.  Positions are reported shifted so the first
    entry has index ``first_index``.

    This is the test oracle for the level scan of
    :attr:`SequenceAnalysis.trace`, which yields the same steps without the
    O(m n) simulation; no library path calls it.
    """
    k = list(entries)
    steps: list[tuple[int, int]] = []
    while any(k):
        top = max(k)
        i = k.index(top)
        j = i
        while j + 1 < len(k) and k[j + 1] == top:
            j += 1
        for t in range(i, j + 1):
            k[t] -= 1
        steps.append((i + first_index, j + first_index))
    return tuple(steps)


def reduction_trace(seq: Weights) -> ReductionTrace:
    """Trace of the decrement procedure on a valid weight sequence, by
    simulation (the test oracle)."""
    seq = _weights(seq)
    validate_sequence(seq)
    n = len(seq) - 1
    steps = reduction_steps(seq)
    m = len(steps)
    if m > sum(seq):
        raise invariant_violation("reduction_trace", seq, "step count exceeds the entry sum")
    if m < max(seq):
        raise invariant_violation("reduction_trace", seq, "step count fell below the maximal weight")
    if steps[-1] != (2, n + 2):
        raise invariant_violation(
            "reduction_trace", seq, "final pass does not span the whole sequence"
        )
    return ReductionTrace(n=n, steps=steps)


def _trace_weights(trace: ReductionTrace) -> tuple[int, ...]:
    # k_i is the number of steps covering index i
    return tuple(sum(1 for i, j in trace.steps if i <= t <= j) for t in range(2, trace.n + 3))


def trace_divisor(trace: ReductionTrace) -> TraceDivisor:
    """Assemble the signed multiplicity vectors from a reduction trace."""
    n = trace.n
    plus = [0] * (n + 2)
    minus = [0] * (n + 2)
    for i, j in trace.steps:
        plus[i - 2] += 1
        minus[j - 1] += 1
    m = trace.m
    detail = None
    if plus[0] != 1 or minus[n + 1] != 1 or minus[0] != 0 or plus[n + 1] != 0:
        detail = "boundary multiplicities of the trace divisor are wrong"
    elif any(p and q for p, q in zip(plus, minus)):
        detail = "an index carries both signs in the trace divisor"
    elif sum(plus) != m or sum(minus) != m:
        detail = "signed multiplicities do not each sum to m"
    if detail is not None:
        raise invariant_violation("trace_divisor", _trace_weights(trace), detail)
    return TraceDivisor(n=n, plus=tuple(plus), minus=tuple(minus))


def l_vector(div: TraceDivisor) -> tuple[int, ...]:
    """Total multiplicities l_i = l_i^+ + l_i^-; they sum to 2m and the two
    boundary entries are 1."""
    l = tuple(p + q for p, q in zip(div.plus, div.minus))
    if sum(l) != 2 * div.m or l[0] != 1 or l[-1] != 1:
        # k_{i+1} - k_i = l_i^+ - l_i^-, so the weights are the prefix sums
        weights, total = [], 0
        for p, q in zip(div.plus[:-1], div.minus[:-1]):
            total += p - q
            weights.append(total)
        raise invariant_violation("l_vector", weights, "l-vector failed its structural identities")
    return l


def sequence_l_vector(seq: Weights) -> tuple[int, ...]:
    """Convenience: l-vector straight from a weight sequence."""
    return analyze_sequence(seq).l


@dataclass(frozen=True)
class RegularityReport:
    """Regular components and the deformability slack of a weight sequence.

    A component is regular when its weight is 1.  r is the last index of the
    all-regular prefix starting at 2, s the first index of the all-regular
    suffix ending at n+2, and slack = n + r - s (nonnegative; positive slack
    is the deformability criterion).  For semi-free sequences (all weights 1)
    r and s are undefined and deformability is settled by LeBrun's theory of
    semi-free circle actions instead: such metrics deform whenever n >= 3.
    """

    n: int
    k: tuple[int, ...]
    regular: tuple[int, ...]
    semi_free: bool
    r: int | None
    s: int | None
    slack: int | None
    deformable: bool
    note: str | None = None


def regularity(seq: Weights) -> RegularityReport:
    """Regularity by scanning the runs of ones (the test oracle for the
    closed-form r, s and slack of :class:`SequenceAnalysis`)."""
    seq = _weights(seq)
    validate_sequence(seq)
    n = len(seq) - 1
    regular = tuple(i for i in range(2, n + 3) if seq[i - 2] == 1)
    if all(k == 1 for k in seq):
        return RegularityReport(
            n=n,
            k=seq,
            regular=regular,
            semi_free=True,
            r=None,
            s=None,
            slack=None,
            deformable=n >= 3,
            note=SEMI_FREE_NOTE,
        )
    r = 2
    while r + 1 <= n + 2 and seq[r - 1] == 1:
        r += 1
    s = n + 2
    while s - 1 >= 2 and seq[s - 3] == 1:
        s -= 1
    if not 2 <= r < s <= n + 2:
        raise invariant_violation("regularity", seq, "regular-run indices out of order")
    slack = n + r - s
    if slack < 0:
        raise invariant_violation("regularity", seq, "slack n + r - s went negative")
    return RegularityReport(
        n=n,
        k=seq,
        regular=regular,
        semi_free=False,
        r=r,
        s=s,
        slack=slack,
        deformable=slack > 0,
    )


def is_lebrun(fan: HalfFan) -> bool:
    """Whether some marking of the fan yields the all-ones weight sequence,
    i.e. whether the surface belongs to a LeBrun twistor space (the marked
    subgroup then acts semi-freely and m = 1)."""
    return any(
        all(k == 1 for k in sequence_from_fan(fan, marked))
        for marked in range(1, fan.n + 3)
    )


def sequence_summary(seq: Weights) -> dict:
    """The invariant report of a weight sequence as a plain dict.

    Keys: n, k, m, trace, l_plus, l_minus, l, r, s, slack, deformable.
    """
    rec = analyze_sequence(seq)
    return {
        "n": rec.n,
        "k": rec.k,
        "m": rec.m,
        "trace": rec.trace.steps,
        "l_plus": rec.l_plus,
        "l_minus": rec.l_minus,
        "l": rec.l,
        "r": rec.r,
        "s": rec.s,
        "slack": rec.slack,
        "deformable": rec.deformable,
    }
