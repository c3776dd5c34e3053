from __future__ import annotations

import importlib
import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """Wrap a library function wherever a minitwistor module binds it, so
    calls through any import path are counted; returns the list of calls."""

    def install(module_name: str, attr: str) -> list:
        original = getattr(importlib.import_module(f"minitwistor.{module_name}"), attr)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name == "minitwistor" or name.startswith("minitwistor."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, counting)
        return calls

    return install
