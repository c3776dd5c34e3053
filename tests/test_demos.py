"""Every demo script runs to completion and prints its recorded bytes."""

from __future__ import annotations

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from support import src_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

#: sha256 of each demo's stdout; the library's output is byte-deterministic
STDOUT_SHA256 = {
    "01_weights_and_invariants.py": "565f38bca79adc4d55483e88dc4016cf5eef160403c232dce7ccf1341370721b",
    "02_model_equations.py": "93e35b9ec0a5a322c9623d7c6ed464c3f8f055b7cc67dc12329b59b7fae70208",
    "03_catalog_and_growth.py": "8ecb3daba3cf318b1752efb7b12f70df3fa1bc98240e08d05582d41ca3c33365",
    "04_conic_bundles.py": "40f9a58c04633a561e67f8affa251dbcab28dfedb9b3c1a4786fe86c73aa73bf",
}


def test_all_demos_found():
    assert [demo.name for demo in DEMOS] == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_exits_zero(demo):
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, env=src_env(), cwd=ROOT, timeout=120
    )
    assert result.returncode == 0, result.stderr.decode()[-2000:]
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.name]
