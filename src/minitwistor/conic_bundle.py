"""Discriminant reports and blow-up bookkeeping for the conic-bundle models.

The twistor space maps onto the model surface as a conic bundle once a short,
explicitly specified chain of blow-ups removes the part of the base locus
meeting the distinguished exceptional divisors.  Both the centers of that
chain and the discriminant locus of the resulting bundle are pure
combinatorics of the multiplicity vector, so they are reported as a symbolic
ledger (curve names and index sets), never as geometry.

Two discriminant reports exist: the one over an untouched torus-invariant
metric (all interior indices participate) and the one after an equivariant
deformation (indices confined to the regular-run window r..s, with the lost
tails reappearing as hyperplane-section discriminant curves, exactly
n + r - s of them).
"""

from __future__ import annotations

from .errors import InvalidParameterError
from .invariants import Weights, analyze_sequence
from .record import Record


class DiscriminantReport(Record):
    """Discriminant locus of a conic-bundle model, as index bookkeeping.

    The two sections are always discriminant curves.  Reducible fibers
    contribute chains of l_i + 1 rational curves, irreducible marked fibers
    contribute single curves, and in the deformed case n + r - s hyperplane
    sections join in.  Discriminant curves may be non-reduced; no multiplicity
    is computed (none is known), only the flag below records the caveat.
    """

    deformed: bool
    reducible_fiber_chains: tuple[tuple[int, int], ...]
    irreducible_fibers: tuple[int, ...]
    hyperplane_sections: int
    r: int | None = None
    s: int | None = None
    sections: tuple[str, str] = ("Gamma", "Gamma_bar")
    possibly_nonreduced: bool = True


def _window_report(lvec: tuple[int, ...], window: range, **fields) -> DiscriminantReport:
    """The report over the fibers with index in window: a chain of l_i + 1
    curves where l_i > 0, an irreducible fiber where l_i = 0.  The caller
    passes the remaining report fields."""
    return DiscriminantReport(
        reducible_fiber_chains=tuple((i, lvec[i - 1] + 1) for i in window if lvec[i - 1]),
        irreducible_fibers=tuple(i for i in window if not lvec[i - 1]),
        **fields,
    )


def discriminant_joyce(seq: Weights) -> DiscriminantReport:
    """Discriminant report over the undeformed metric: every interior index
    shows up, as a chain when l_i > 0 and as an irreducible fiber when
    l_i = 0 (the two boundary fibers never contribute)."""
    rec = analyze_sequence(seq)
    return _window_report(rec.l, range(2, rec.n + 2), deformed=False, hyperplane_sections=0)


def discriminant_deformed(seq: Weights) -> DiscriminantReport:
    """Discriminant report after the equivariant deformation: fibers are
    confined to r < i < s and the regular tails contribute n + r - s
    hyperplane sections.  Requires a non-semi-free sequence (the semi-free
    case belongs to LeBrun's theory); the report is emitted whether or not the
    slack is positive."""
    rec = analyze_sequence(seq)
    if rec.semi_free:
        raise InvalidParameterError(
            "semi-free sequence: deformations are handled by LeBrun theory"
        )
    r, s = rec.r, rec.s
    return _window_report(
        rec.l, range(r + 1, s), deformed=True, hyperplane_sections=rec.n + r - s, r=r, s=s
    )


class BlowUpStage(Record):
    """One stage of the base-locus elimination.  Center names use '~' for the
    conjugate divisor and '&' for intersection; conjugate centers are implied
    throughout.  For stages past the second, plus_indices and minus_indices
    record which component towers (over E_2 and over ~E_{n+2}) are hit."""

    stage: int
    description: str
    centers: tuple[str, ...]
    plus_indices: tuple[int, ...] = ()
    minus_indices: tuple[int, ...] = ()


class BlowUpSchedule(Record):
    """Symbolic ledger of the partial base-locus elimination.

    One stage suffices in the semi-free case m = 1; otherwise the multiplicity
    vector empties out one unit per stage and the count is max(l_i) + 2.  The
    normal bundle of the distinguished exceptional divisor is the pullback of
    O(l+1, -1) with l = C_1^2 the self-intersection of the marked component.
    """

    n: int
    m: int
    max_multiplicity: int
    normal_bundle: tuple[int, int]
    stages: tuple[BlowUpStage, ...]

    @property
    def stage_count(self) -> int:
        return len(self.stages)


def blow_up_schedule(seq: Weights) -> BlowUpSchedule:
    """The base-locus elimination ledger of a weight sequence or its analysis
    record.

    The normal bundle comes from the stored ray chain: the neighbors of
    v_1 = (1, 0) are v_2 = (0, 1) and -v_{n+2}, so -v_{n+2} + v_2 =
    -(C_1^2) v_1 makes C_1^2 the first coordinate of v_{n+2}.
    """
    rec = analyze_sequence(seq)
    lvec, n, m = rec.l, rec.n, rec.m
    plus, minus = rec.l_plus, rec.l_minus
    normal_bundle = (rec.rays[-1][0] + 1, -1)

    stages = [
        BlowUpStage(
            stage=1,
            description="blow up the marked curve pair C_1, ~C_1",
            centers=("C_1", "~C_1"),
        )
    ]
    interior = range(2, n + 2)
    # the semi-free case m = 1 stops after stage 1: its max l is 1, so the
    # loop over t >= 4 below is empty too
    if m > 1:
        plus3 = tuple(i for i in interior if plus[i - 1] > 0)
        minus3 = tuple(i for i in interior if minus[i - 1] > 0)
        stages += [
            BlowUpStage(
                stage=2,
                description="blow up the four cycle components adjacent to the marked pair",
                centers=("C_2", f"~C_{n + 2}", "~C_2", f"C_{n + 2}"),
            ),
            BlowUpStage(
                stage=3,
                description=(
                    "blow up the base curves cut on E_2 and ~E_{n+2} by the divisor components"
                ),
                centers=tuple(f"E_2 & S_{i}^-" for i in plus3)
                + tuple(f"~E_{n + 2} & S_{i}^-" for i in minus3),
                plus_indices=plus3,
                minus_indices=minus3,
            ),
        ]
    max_mult = max(lvec)
    for t in range(4, max_mult + 3):
        threshold = t - 2
        plus_t = tuple(i for i in interior if plus[i - 1] >= threshold)
        minus_t = tuple(i for i in interior if minus[i - 1] >= threshold)
        primes = "'" * (t - 4)
        stages.append(
            BlowUpStage(
                stage=t,
                description=(
                    f"blow up the exceptional intersections still of multiplicity >= {threshold}"
                ),
                centers=tuple(f"F{primes}_{i} & E_2" for i in plus_t)
                + tuple(f"F{primes}_{i} & ~E_{n + 2}" for i in minus_t),
                plus_indices=plus_t,
                minus_indices=minus_t,
            )
        )
    return BlowUpSchedule(
        n=n,
        m=m,
        max_multiplicity=max_mult,
        normal_bundle=normal_bundle,
        stages=tuple(stages),
    )
