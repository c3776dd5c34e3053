from __future__ import annotations

import pytest

from minitwistor import (
    InvalidParameterError,
    blow_up_schedule,
    discriminant_deformed,
    discriminant_joyce,
    fan_from_sequence,
    regularity,
    self_intersections,
    sequence_l_vector,
)

from support import oriented_sequences


# ---------------------------------------------------------------------------
# discriminant reports


def test_joyce_examples():
    report = discriminant_joyce((1, 2, 3, 1))
    assert report.sections == ("Gamma", "Gamma_bar")
    assert report.reducible_fiber_chains == ((2, 2), (3, 2), (4, 3))
    assert report.irreducible_fibers == ()
    assert report.hyperplane_sections == 0

    report = discriminant_joyce((1, 1, 1, 1))
    assert report.reducible_fiber_chains == ()
    assert report.irreducible_fibers == (2, 3, 4)

    report = discriminant_joyce((1, 2, 1, 2, 1))
    assert report.reducible_fiber_chains == ((2, 2), (3, 2), (4, 2), (5, 2))
    assert report.irreducible_fibers == ()


def test_deformed_examples():
    report = discriminant_deformed((1, 2, 3, 1, 1))
    assert report.hyperplane_sections == 1
    assert report.r == 2 and report.s == 5
    assert report.reducible_fiber_chains == ((3, 2), (4, 3))
    assert report.irreducible_fibers == ()

    report = discriminant_deformed((1, 2, 1, 2, 1, 1, 1, 1))
    assert report.hyperplane_sections == 3

    for n in (3, 4, 5, 6):
        staircase = tuple(range(1, n + 1)) + (1,)
        assert discriminant_deformed(staircase).hyperplane_sections == 0


def test_deformed_rejects_semi_free():
    with pytest.raises(InvalidParameterError):
        discriminant_deformed((1, 1, 1, 1))


def test_chain_lengths_are_multiplicity_plus_one():
    for n in range(6):
        for seq in oriented_sequences(n):
            lvec = sequence_l_vector(seq)
            for index, length in discriminant_joyce(seq).reducible_fiber_chains:
                assert length == lvec[index - 1] + 1
                assert length == 2 + (lvec[index - 1] - 1)


def test_joyce_deformed_reconciliation_exhaustive():
    # the deformed report loses exactly the fiber over the index r among
    # chains, and the regular tails {2..r-1} and {s..n+1} move from
    # irreducible fibers to hyperplane sections: exactly n + r - s of them
    for n in range(7):
        for seq in oriented_sequences(n):
            reg = regularity(seq)
            if reg.semi_free:
                continue
            joyce = discriminant_joyce(seq)
            deformed = discriminant_deformed(seq)
            r, s = reg.r, reg.s
            lvec = sequence_l_vector(seq)

            joyce_chains = set(joyce.reducible_fiber_chains)
            deformed_chains = set(deformed.reducible_fiber_chains)
            assert deformed_chains <= joyce_chains
            assert joyce_chains - deformed_chains == {(r, lvec[r - 1] + 1)}

            joyce_irr = set(joyce.irreducible_fibers)
            deformed_irr = set(deformed.irreducible_fibers)
            assert deformed_irr <= joyce_irr
            movers = joyce_irr - deformed_irr
            assert movers == set(range(2, r)) | set(range(s, n + 2))
            assert len(movers) == n + r - s == deformed.hyperplane_sections


def test_multiplicity_caveat_flag():
    assert discriminant_joyce((1, 2, 1)).possibly_nonreduced is True
    assert discriminant_deformed((1, 2, 1)).possibly_nonreduced is True


# ---------------------------------------------------------------------------
# blow-up schedules


def test_schedule_semi_free_single_stage():
    for n in (0, 1, 4):
        schedule = blow_up_schedule((1,) * (n + 1))
        assert schedule.m == 1
        assert schedule.stage_count == 1
        assert schedule.stages[0].centers == ("C_1", "~C_1")


def test_schedule_multiplicity_free():
    schedule = blow_up_schedule((1, 2, 1, 2, 1))
    assert schedule.max_multiplicity == 1
    assert schedule.stage_count == 3


def test_schedule_example():
    schedule = blow_up_schedule((1, 2, 5, 3, 1))
    assert schedule.max_multiplicity == 3
    assert schedule.stage_count == 5
    by_stage = {stage.stage: stage for stage in schedule.stages}
    assert by_stage[2].centers == ("C_2", "~C_6", "~C_2", "C_6")
    # stage 3 centers: every index carrying the matching sign
    assert by_stage[3].plus_indices == (2, 3)
    assert by_stage[3].minus_indices == (4, 5)
    # deeper stages keep only multiplicity >= stage - 2
    assert by_stage[4].plus_indices == (3,)
    assert by_stage[4].minus_indices == (4, 5)
    assert by_stage[5].plus_indices == (3,)
    assert by_stage[5].minus_indices == ()


def test_schedule_stage_count_exhaustive():
    for n in range(7):
        for seq in oriented_sequences(n):
            schedule = blow_up_schedule(seq)
            lvec = sequence_l_vector(seq)
            assert schedule.max_multiplicity == max(lvec)
            if schedule.m == 1:
                assert schedule.stage_count == 1
            else:
                assert schedule.stage_count == max(lvec) + 2
            # the last stage is never empty
            last = schedule.stages[-1]
            if schedule.m > 1:
                assert last.plus_indices or last.minus_indices or last.stage <= 3


def test_schedule_normal_bundle():
    # marked component of the product-surface fan has self-intersection 0
    assert blow_up_schedule((1,)).normal_bundle == (1, -1)
    assert blow_up_schedule((1, 1)).normal_bundle == (0, -1)
    assert blow_up_schedule((1, 2, 5, 3, 1)).normal_bundle == (0, -1)


def test_schedule_normal_bundle_matches_self_intersections():
    # C_1^2 read off the stored ray v_{n+2} against the half-fan oracle
    count = 0
    for n in range(10):
        for seq in oriented_sequences(n):
            expected = self_intersections(fan_from_sequence(seq))[0] + 1
            assert blow_up_schedule(seq).normal_bundle == (expected, -1)
            count += 1
    assert count == 6918
