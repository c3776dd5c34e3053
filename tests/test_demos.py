"""Every demo script runs to completion."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from support import src_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_exits_zero(demo):
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=src_env(), cwd=ROOT, timeout=120
    )
    assert result.returncode == 0, result.stderr.decode()[-2000:]
