"""The benchmark's self-test passes against this checkout, so a library change
that breaks a workload (a renamed function, a changed return type) fails
here rather than in a benchmark run."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from support import src_env

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--selftest"],
        capture_output=True, env=src_env(), cwd=ROOT, timeout=300,
    )
    assert result.returncode == 0, result.stderr.decode()[-2000:]
    assert json.loads(result.stdout)["selftest"] == "pass"
