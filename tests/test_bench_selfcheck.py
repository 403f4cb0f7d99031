"""Smoke test of the benchmark: every workload at r = 4, every metric and check.

Runs ``bench/selfcheck.py`` in a subprocess; it writes only under the
git-ignored ``bench/out/``.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selfcheck_passes():
    out = subprocess.run(
        [sys.executable, "bench/selfcheck.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert out.returncode == 0, out.stdout + out.stderr
    assert "selfcheck passed" in out.stdout
