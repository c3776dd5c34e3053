"""The indent-2 JSON writer against its oracle, ``json.dumps``.

``render.dumps`` writes JSON itself; every payload the CLI hands it must come
out as the bytes of ``json.dumps(value, sort_keys=True, indent=2,
default=render._encode)`` plus a newline.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minitwistor import cli, render
from minitwistor.exact import INF

from support import west_sequences
from test_golden import GOLDEN


def oracle(value):
    return json.dumps(value, sort_keys=True, indent=2, default=render._encode) + "\n"


def assert_matches_oracle(value):
    assert render.dumps(value) == oracle(value)


def payloads(argv):
    """Every value the CLI passes to render.dumps while it runs argv."""
    seen = []

    def recording(value):
        seen.append(value)
        return render.dumps(value)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "dumps", recording)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
    return seen


def test_golden_payloads_match_the_oracle():
    requests = [argv.split() for argv, _ in GOLDEN if "--format json" in argv]
    assert len(requests) >= 15
    for argv in requests:
        (value,) = payloads(argv)
        assert_matches_oracle(value)


def lambda_tokens(draw, seq, kind):
    """The --lambda text of a level-n sequence: None for the default, else
    0 < lambda_2 < ... < lambda_{n+1} < inf, small rationals or huge ints."""
    if kind == "default":
        return None
    count = len(seq) - 1
    if kind == "random":
        steps = draw(st.lists(st.fractions(min_value=Fraction(1, 12), max_value=9,
                                           max_denominator=12), min_size=count, max_size=count))
    else:
        steps = draw(st.lists(st.integers(10**30, 10**600), min_size=count, max_size=count))
    values, total = [], Fraction(0)
    for step in steps:
        total += step
        values.append(str(total))
    return ",".join(["0", *values, "inf"])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seq=west_sequences(7), data=st.data())
def test_sequence_payloads_match_the_oracle(seq, data):
    text = ",".join(map(str, seq))
    for command in ("analyze", "equation", "deform-check", "schedule"):
        argv = [command, "--seq", text, "--format", "json"]
        if command in ("analyze", "equation"):
            kind = data.draw(st.sampled_from(("default", "random", "huge")))
            lambdas = lambda_tokens(data.draw, seq, kind)
            if lambdas is not None:
                argv += ["--lambda", lambdas]
            argv += ["--c", data.draw(st.sampled_from(("+1", "-1")))]
        (value,) = payloads(argv)
        assert_matches_oracle(value)


@pytest.mark.parametrize("classes", ["u1", "marked"])
def test_catalog_payloads_match_the_oracle(classes):
    for n in range(9):
        argv = ["catalog", "--n", str(n), "--classes", classes, "--format", "json", "--no-cache"]
        (value,) = payloads(argv)
        assert_matches_oracle(value)


HAND_CASES = (
    {},
    [],
    (),
    {"a": {}, "b": [], "c": (), "d": [[], {}, ()]},
    [[[[]]]],
    "",
    'quote " and backslash \\ and slash /',
    "controls \x00 \x01 \x08 \t \n \r \x1f \x7f",
    "non-ASCII é ∞ 𝔽  ",
    {"é": 1, "e": 2, "E": 3, "": 4, " ": 5, "\x00": 6, "~": 7},
    [True, 1, False, 0, None, -1],
    {"true": True, "one": 1, "false": False, "zero": 0, "none": None},
    INF,
    [INF, Fraction(-7, 3), Fraction(-4), Fraction(0), Fraction(12, 4), 10**40, -(10**40)],
    # past CPython's 4300-digit int-to-str limit
    {"coefficient": Fraction(-(10**4400) - 1, 3)},
    {"z": {"y": [{"x": (1, Fraction(1, 2))}]}, "a": [INF, "inf"]},
)


@pytest.mark.parametrize("value", HAND_CASES, ids=range(len(HAND_CASES)))
def test_hand_cases_match_the_oracle(value):
    assert_matches_oracle(value)


@pytest.mark.parametrize(
    "value", [object(), 1.5, {1, 2}, b"bytes", {1: "a"}, [1, complex(1, 1)], {"k": [object()]}],
    ids=["object", "float", "set", "bytes", "int key", "complex in list", "nested object"],
)
def test_unknown_types_raise_type_error(value):
    with pytest.raises(TypeError):
        render.dumps(value)
