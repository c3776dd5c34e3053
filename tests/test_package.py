"""The package exports the analysis record's paths, not the oracles that test
them."""

from __future__ import annotations

import ast
import importlib
import subprocess
import sys

import pytest

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
    assert len(minitwistor.__all__) == len(set(minitwistor.__all__)) == 45
    # the CLI's catalog cache, on packed keys, is imported from
    # minitwistor.catalog only
    for name in ("CatalogCache", "u1_classes_cached"):
        assert not hasattr(minitwistor, name), name


def test_oracles_and_helpers_are_not_exported():
    for name in ORACLE_NAMES + HELPER_NAMES:
        assert not hasattr(minitwistor, name), name
        assert name not in minitwistor.__all__, name


def test_oracles_resolve_in_invariants():
    for name in ORACLE_NAMES:
        assert callable(getattr(minitwistor.invariants, name)), name


def test_cli_import_leaves_out_the_slow_stdlib_modules():
    # dataclasses imports inspect, which imports ast, dis and tokenize: about
    # a fifth of a CLI call's start-up on a 2-core VM.  The enumeration in
    # catalog and the json package are loaded only by the requests that use
    # them
    probe = (
        "import sys, minitwistor.cli; "
        "print(sorted({'dataclasses', 'inspect', 'json', 'minitwistor.catalog'}"
        " & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=src_env(), check=True
    )
    assert result.stdout == "[]\n"


def test_package_import_loads_no_module_until_a_name_is_used():
    probe = (
        "import sys, minitwistor; "
        "print(sorted(m for m in sys.modules if m.startswith('minitwistor'))); "
        "minitwistor.analyze_sequence; "
        "print(sorted(m for m in sys.modules if m.startswith('minitwistor.catalog')))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=src_env(), check=True
    )
    assert result.stdout == "['minitwistor']\n[]\n"


def test_names_resolve_to_their_modules_and_are_not_stored():
    # a name stored on first access would be a new package binding, which
    # bench/tracer.py's snapshot would count as a binding left unrestored
    for name in minitwistor.__all__:
        module = importlib.import_module(f"minitwistor.{minitwistor._MODULE_OF[name]}")
        assert getattr(minitwistor, name) is getattr(module, name), name
        assert name not in vars(minitwistor), name
    assert set(minitwistor.__all__) <= set(dir(minitwistor))
    with pytest.raises(AttributeError, match="no attribute 'bogus'"):
        minitwistor.bogus


#: The modules every request loads: the four sequence commands' own, imported
#: by cli at module level.
SEQUENCE_MODULES = {
    "minitwistor",
    "minitwistor.cli",
    "minitwistor.conic_bundle",
    "minitwistor.errors",
    "minitwistor.exact",
    "minitwistor.fans",
    "minitwistor.invariants",
    "minitwistor.model",
    "minitwistor.record",
    "minitwistor.render",
}

#: One text request per subcommand, and whether it needs minitwistor.catalog.
SUBCOMMAND_REQUESTS = (
    (["analyze", "--seq", "1,2,5,3,1"], False),
    (["equation", "--seq", "1,2,5,3,1"], False),
    (["deform-check", "--seq", "1,2,5,3,1"], False),
    (["schedule", "--seq", "1,2,5,3,1"], False),
    (["catalog", "--n", "4", "--no-cache"], True),
    (["tables", "delta"], True),
)


def test_each_subcommand_loads_only_the_modules_it_uses():
    # each request in a fresh interpreter: the package modules it loaded, and
    # whether json was among them, go to stderr once main has returned
    probe = (
        "import sys; from minitwistor.cli import main; code = main(sys.argv[1:]); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('json', 'minitwistor')),"
        " file=sys.stderr); sys.exit(code)"
    )
    for argv, uses_catalog in SUBCOMMAND_REQUESTS:
        result = subprocess.run(
            [sys.executable, "-c", probe, *argv],
            capture_output=True, text=True, env=src_env(), check=True,
        )
        loaded = set(ast.literal_eval(result.stderr))
        package = {name for name in loaded if name.startswith("minitwistor")}
        expected = SEQUENCE_MODULES | ({"minitwistor.catalog"} if uses_catalog else set())
        assert package == expected, argv
        if not uses_catalog:
            assert "json" not in loaded, argv
