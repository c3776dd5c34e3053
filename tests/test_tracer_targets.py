"""Every function the benchmark tracer wraps must still exist, so a removal
in the library cannot silently break ``bench/run.py --trace 1``."""

from __future__ import annotations

import ast
import importlib
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
