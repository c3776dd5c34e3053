from __future__ import annotations

import pytest

from minitwistor import (
    enumerate_marked,
    fan_from_sequence,
    is_lebrun,
    restriction_multiplicities,
    sequence_summary,
)
from minitwistor.invariants import (
    l_vector,
    reduction_steps,
    reduction_trace,
    regularity,
    sequence_l_vector,
    trace_divisor,
)

from support import oriented_sequences, restriction_oracle


# ---------------------------------------------------------------------------
# the decrement procedure


def test_worked_example():
    trace = reduction_trace((1, 2, 1, 2, 1))
    assert trace.m == 3
    assert trace.steps == ((3, 3), (5, 5), (2, 6))


def test_all_ones_single_pass():
    for n in range(7):
        trace = reduction_trace((1,) * (n + 1))
        assert trace.m == 1
        assert trace.steps == ((2, n + 2),)


def test_fibonacci_row_step_count():
    assert reduction_trace((1, 2, 5, 13, 8, 3, 1)).m == 13


def test_leftmost_maximal_run_tie_breaking():
    # two separated maxima: the leftmost is taken first
    assert reduction_trace((1, 2, 1, 2, 1)).steps[0] == (3, 3)
    # adjacent equal maxima never occur in valid inputs (neighbors are
    # coprime) but do occur mid-procedure; a run is decremented as one step
    assert reduction_steps((1, 2, 2, 2, 1, 1))[0] == (3, 5)


# ---------------------------------------------------------------------------
# the trace divisor and its multiplicities


def test_divisor_all_ones():
    div = trace_divisor(reduction_trace((1, 1, 1, 1)))
    assert div.plus == (1, 0, 0, 0, 0)
    assert div.minus == (0, 0, 0, 0, 1)


def test_divisor_examples():
    div = trace_divisor(reduction_trace((1, 2, 3, 1)))
    assert div.plus == (1, 1, 1, 0, 0)
    assert div.minus == (0, 0, 0, 2, 1)
    div = trace_divisor(reduction_trace((1, 2, 5, 3, 1)))
    assert div.plus == (1, 1, 3, 0, 0, 0)
    assert div.minus == (0, 0, 0, 2, 2, 1)


def test_l_vector_examples():
    assert sequence_l_vector((1, 2, 3, 1)) == (1, 1, 1, 2, 1)
    assert sequence_l_vector((1, 2, 5, 8, 3, 1)) == (1, 1, 3, 3, 5, 2, 1)
    assert sequence_l_vector((1, 2, 1, 2, 1)) == (1, 1, 1, 1, 1, 1)


def test_restriction_examples():
    for seq, c, cbar in (
        ((1, 1, 1), (1, 2, 2, 2), (1, 0, 0, 0)),
        ((1, 2, 3, 1), (3, 4, 5, 6, 4), (3, 2, 1, 0, 2)),
        ((1, 2, 1, 2, 1), (3, 4, 5, 4, 5, 4), (3, 2, 1, 2, 1, 2)),
    ):
        assert restriction_multiplicities(seq) == (c, cbar)
        assert restriction_oracle(reduction_trace(seq)) == (c, cbar)


def test_restriction_matches_step_oracle_exhaustive():
    for n in range(6):
        for seq in oriented_sequences(n):
            assert restriction_multiplicities(seq) == restriction_oracle(reduction_trace(seq))


# ---------------------------------------------------------------------------
# structural identities, exhaustively through n = 6


def test_structure_suite_exhaustive():
    for n in range(7):
        for seq in oriented_sequences(n):
            trace = reduction_trace(seq)
            m = trace.m
            assert m >= max(seq)
            assert trace.steps[-1] == (2, n + 2)
            div = trace_divisor(trace)
            assert sum(div.plus) == sum(div.minus) == m
            assert not any(p and q for p, q in zip(div.plus, div.minus))
            l = l_vector(div)
            assert sum(l) == 2 * m
            assert l[0] == l[-1] == 1
            assert restriction_oracle(trace) == (
                (m,) + tuple(m + k for k in seq),
                (m,) + tuple(m - k for k in seq),
            )


def test_reversal_equivariance():
    for n in range(7):
        for seq in enumerate_marked(n):
            rev = seq[::-1]
            assert reduction_trace(seq).m == reduction_trace(rev).m
            assert sequence_l_vector(rev) == sequence_l_vector(seq)[::-1]


def test_small_isotropy_iff_multiplicity_free():
    # l_i <= 1 everywhere exactly for weights in {1, 2}
    for n in range(7):
        for seq in oriented_sequences(n):
            flat = all(l <= 1 for l in sequence_l_vector(seq))
            assert flat == (max(seq) <= 2)


def test_truncated_trace_agrees_until_last_pass():
    # restricting to the window (k_r, ..., k_s) reproduces every step except
    # the final full pass, which shrinks to (r, s)
    for n in range(7):
        for seq in oriented_sequences(n):
            reg = regularity(seq)
            if reg.semi_free:
                continue
            full = reduction_trace(seq).steps
            window = seq[reg.r - 2 : reg.s - 1]
            sub = reduction_steps(window, first_index=reg.r)
            assert sub[:-1] == full[:-1]
            assert sub[-1] == (reg.r, reg.s)
            assert full[-1] == (2, n + 2)


# ---------------------------------------------------------------------------
# regularity and the deformability slack


def test_regularity_examples():
    rep = regularity((1, 2, 3, 1, 1))
    assert (rep.r, rep.s, rep.slack, rep.deformable) == (2, 5, 1, True)
    rep = regularity((1, 2, 3, 4, 1))
    assert (rep.r, rep.s, rep.slack, rep.deformable) == (2, 6, 0, False)
    rep = regularity((1, 2, 1, 2, 1, 1, 1, 1))
    assert rep.n == 7 and rep.slack == 3


def test_regularity_semi_free():
    rep = regularity((1, 1, 1, 1))
    assert rep.semi_free
    assert rep.r is None and rep.s is None and rep.slack is None
    assert rep.deformable  # n = 3: deformations exist by LeBrun theory
    assert not regularity((1, 1)).deformable  # n = 1
    assert rep.note == "semi-free: handled by LeBrun theory"


def test_regular_set():
    rep = regularity((1, 2, 5, 3, 1))
    assert rep.regular == (2, 6)
    rep = regularity((1, 2, 1, 2, 1))
    assert rep.regular == (2, 4, 6)


def test_slack_nonnegative_exhaustive():
    for n in range(7):
        for seq in oriented_sequences(n):
            rep = regularity(seq)
            if not rep.semi_free:
                assert rep.slack >= 0


# ---------------------------------------------------------------------------
# LeBrun detection and the summary dict


def test_is_lebrun():
    assert is_lebrun(fan_from_sequence((1,)))
    assert is_lebrun(fan_from_sequence((1, 2, 3, 1)))
    assert is_lebrun(fan_from_sequence((1, 2, 3, 4, 1)))
    assert not is_lebrun(fan_from_sequence((1, 2, 5, 3, 1)))
    assert not is_lebrun(fan_from_sequence((1, 3, 2, 3, 1)))


def test_sequence_summary_schema():
    summary = sequence_summary((1, 2, 5, 3, 1))
    assert set(summary) == {
        "n", "k", "m", "trace", "l_plus", "l_minus", "l", "r", "s", "slack", "deformable",
    }
    assert summary["m"] == 5
    assert summary["l"] == (1, 1, 3, 2, 2, 1)
    assert summary["slack"] == 0 and summary["deformable"] is False


def test_summary_semi_free_fields_undefined():
    summary = sequence_summary((1, 1, 1, 1, 1))
    assert summary["r"] is None and summary["s"] is None and summary["slack"] is None
    assert summary["deformable"] is True


def test_invalid_sequence_rejected():
    from minitwistor import InvalidSequenceError

    with pytest.raises(InvalidSequenceError):
        reduction_trace((2, 1, 1))
    with pytest.raises(InvalidSequenceError):
        regularity((1, 4, 1))
