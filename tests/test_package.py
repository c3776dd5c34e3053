"""The package exports the analysis record's paths, not the oracles that test
them."""

from __future__ import annotations

import subprocess
import sys

import minitwistor
import minitwistor.invariants

from support import src_env

#: The decrement simulation and its run scan: test oracles, imported from
#: minitwistor.invariants only.
ORACLE_NAMES = (
    "RegularityReport",
    "TraceDivisor",
    "l_vector",
    "reduction_steps",
    "reduction_trace",
    "regularity",
    "sequence_l_vector",
    "trace_divisor",
)

#: Test helpers no library path calls; they live in tests/support.py.
HELPER_NAMES = ("fibonacci", "insertions", "is_valid_sequence", "reversal_canonical")


def test_star_import_is_the_public_surface():
    namespace: dict = {}
    exec("from minitwistor import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(minitwistor.__all__)
    assert len(minitwistor.__all__) == len(set(minitwistor.__all__)) == 47


def test_oracles_and_helpers_are_not_exported():
    for name in ORACLE_NAMES + HELPER_NAMES:
        assert not hasattr(minitwistor, name), name
        assert name not in minitwistor.__all__, name


def test_oracles_resolve_in_invariants():
    for name in ORACLE_NAMES:
        assert callable(getattr(minitwistor.invariants, name)), name


def test_cli_import_leaves_out_the_slow_stdlib_modules():
    # dataclasses imports inspect, which imports ast, dis and tokenize: about
    # a fifth of a CLI call's start-up on a 2-core VM
    probe = (
        "import sys, minitwistor.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=src_env(), check=True
    )
    assert result.stdout == "[]\n"
