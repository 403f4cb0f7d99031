"""Reduced-size self-check of the benchmark (r = 4, tiny n, one round).

    python3 bench/selfcheck.py

Runs every workload at smoke size, untraced and traced, and fails unless
each run prints exactly the metrics BENCHMARK.json names, with their units,
every correctness check ran at least once and passed, and run.py refuses to
run in a directory that holds only BENCHMARK.json and bench/.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

from runs import BENCH, ROOT, spec

CHECKS = {
    "nll_matches_reference", "em_trace_non_increasing", "phi_rows_on_simplex",
    "me_phi_is_length_histogram", "rcv_best_lam", "l_par_matches_reference",
    "l_comp_matches_reference", "classification_error_matches_reference",
    "csv_round_trip", "group_counts", "fit_child_self_times_within_wall", "traced_round_matches_untraced",
}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(bench: dict) -> list[str]:
    problems = []
    if set(bench) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys {sorted(bench)}")
    names = [w["name"] for w in bench["workloads"]] + [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    problems += [f"bad or repeated name {n}" for n in names if not NAME.match(n) or names.count(n) > 1]
    problems += [f"bound of {m['name']}" for m in bench["end_to_end"] if not 0 < m["bound"] <= 0.25]
    if not any(m["name"] == "setup_s" and m["unit"] == "s" for m in bench["end_to_end"]):
        problems.append("no setup_s")
    problems += [f"why of {w['name']}" for w in bench["workloads"] if len(w["why"]) > 200 or "\n" in w["why"]]
    problems += [f"unit {m['unit']}" for m in bench["end_to_end"] + bench["per_layer"] if not UNIT.match(m["unit"])]
    if not (isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60):
        problems.append("run_seconds")
    return problems


def smoke_run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    record = json.loads((BENCH / "out" / f"{workload}-s7-t{trace}.json").read_text())
    return json.loads(out.stdout.strip().splitlines()[-1]), record


def bare_directory_refuses() -> bool:
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "desk-r5", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    return out.returncode != 0 and '"metrics"' not in out.stdout


def main() -> int:
    bench = spec()
    problems = check_spec(bench)
    seen = set()
    for w in (w["name"] for w in bench["workloads"]):
        for trace, wanted in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result, record = smoke_run(w, trace)
            seen |= set(record["checks"])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{w} trace {trace}: keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1 or result["failed"]:
                problems.append(f"{w} trace {trace}: {record['check_failures']} {record['errors']}")
            units = {m["name"]: m["unit"] for m in wanted}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != units:
                problems.append(f"{w} trace {trace}: metrics {got} differ from {units}")
            print(f"{w} trace {trace}: {len(got)} metrics, {sum(record['checks'].values())} checks", flush=True)
    problems += [f"check never ran: {name}" for name in sorted(CHECKS - seen)]
    if not bare_directory_refuses():
        problems.append("run.py did not refuse a directory without src/")
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck passed" if not problems else "selfcheck FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
