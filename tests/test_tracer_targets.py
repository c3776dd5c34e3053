"""Every function the benchmark tracer wraps must still exist, so a removal
in the library cannot silently break ``bench/run.py --trace 1``, and the
functions it wraps must be the ones the CLI calls."""

from __future__ import annotations

import ast
import contextlib
import importlib
import importlib.util
import io
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def tracer_targets() -> tuple[str, ...]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TARGETS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py defines no TARGETS")


def test_every_tracer_target_resolves():
    targets = tracer_targets()
    assert targets
    for target in targets:
        module_name, *path = target.split(".")
        owner = importlib.import_module(f"minitwistor.{module_name}")
        for part in path:
            assert hasattr(owner, part), f"{target} no longer resolves"
            owner = getattr(owner, part)
        assert callable(owner), f"{target} is not callable"


def test_tracer_sees_the_cli_cache(tmp_path):
    # the CLI reads and writes its cache through CatalogCache.load and store,
    # the names the tracer wraps: a miss then a hit at level 5.  cli imports
    # catalog only inside its catalog handlers, and install() imports every
    # module it wraps, so catalog is imported before the snapshot, as
    # bench/worker.py does
    import minitwistor.catalog
    from minitwistor import cli

    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    before = tracer.snapshot()
    tracer.install()
    try:
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["catalog", "--n", "5", "--cache-dir", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    assert tracer.sizes["catalog.cache_misses"] == 1
    assert tracer.sizes["catalog.cache_hits"] == 1
    assert tracer.calls["catalog.CatalogCache.load"] == 2
    assert tracer.calls["catalog.CatalogCache.store"] == 1
    assert tracer.snapshot() == before
