"""Smoke test of the benchmark: every workload at r = 4, every metric and check.

Runs ``bench/selfcheck.py`` in a subprocess; it writes only under the
git-ignored ``bench/out/``. The tracer's targets are checked by reading
``bench/tracing.py`` alone.
"""

import importlib
import importlib.util
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


# traced names the package no longer has, each on its way out of the benchmark
GONE = {
    ("perms", "distance_matrix"),
    # the ADMM sweeps and the multiplier search, replaced by the projected-Newton phi-step
    ("admm", "vertex_sweep"),
    ("admm", "_vertex_update_batch"),
    ("admm", "edge_sweep"),
    ("admm", "dual_sweep"),
    # the one-line objective wrapper; em._scored gives the same value
    ("em", "penalized_nll"),
}


def test_every_traced_function_exists():
    # a traced function that is renamed away reads 0 in its per-layer metric
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, attr in tracing.TRACED:
        owner = importlib.import_module(f"partialrank.{module}")
        for name in attr.split("."):
            owner = getattr(owner, name, None)
        if owner is None:
            missing.append((module, attr))
    assert set(missing) <= GONE
