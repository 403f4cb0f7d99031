"""Helpers shared by steady.py and compare.py: run one workload, summarize runs."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    """Run bench/run.py of the tree at ``root`` in a fresh process.

    Returns the final JSON line plus the run's record from bench/out/.
    """
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = root / "bench" / "out" / f"{workload}-s{seed}-t{trace}.json"
    result["record"] = json.loads(record.read_text())
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def metric_values(runs: list[dict], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def report_values(runs: list[dict], name: str) -> list[float]:
    return [r["record"]["report"][name]["value"] for r in runs if name in r["record"]["report"]]
