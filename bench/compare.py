"""Compare two source trees (parent and change) on the benchmark.

    python3 bench/compare.py --base ../parent

Both sides run this tree's benchmark code: each gets a copy of bench/ and
BENCHMARK.json next to a copy of its own src/, under bench/out/compare/.
Runs ten pairs per workload, each pair on its own seed, alternating
which side runs first. For every workload and end-to-end metric it reports
each side's median and quartiles and a verdict:

* ``better``: the change wins at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's quartile distance;
* ``worse``: the change's median is worse than the parent's by more than the
  metric's bound;
* ``unresolved``: the parent's own spread is wider than the bound and not
  every change run beats every parent run;
* ``same``: none of the above; ``identical`` when every pair reads the same.

A gain does not count when more operations fail than on the parent, and
no verdict counts on a workload where a run of the change failed one of its
correctness checks: every row of that workload then reads ``not counted``.

The workload-specific figures each run records (per-method fit times,
losses) get the same treatment, against the bound of ``round_s``.
"""

from __future__ import annotations

import argparse
import json
import shutil
from pathlib import Path

from runs import BENCH, ROOT, metric_values, quartiles, report_values, run_once, spec

SEED0 = 1001  # pair i runs seed SEED0 + i on both sides
PAIRS = 10


def verdict(base: list[float], head: list[float], better: str, bound: float) -> str:
    if base == head:
        return "identical"
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (b - h) > 0)
    bq1, bmed, bq3 = quartiles(base)
    hmed = quartiles(head)[1]
    if wins >= 0.9 * len(base) and abs(hmed - bmed) > bq3 - bq1:
        return "better"
    if sign * (hmed - bmed) > bound * abs(bmed):
        return "worse"
    if (bq3 - bq1) > bound * abs(bmed) and not all(sign * (b - h) > 0 for b in base for h in head):
        return "unresolved"
    return "same"


def checkout(src: Path, dest: Path) -> Path:
    """A tree holding this benchmark and a copy of ``src``."""
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(BENCH, dest / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copytree(src, dest / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    return dest


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="parent commit's source tree (holds src/)")
    args = parser.parse_args()
    bench = spec()
    trees = {side: checkout(tree.resolve() / "src", BENCH / "out" / "compare" / side)
             for side, tree in (("base", args.base), ("head", ROOT))}
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {(side, w): [] for side in ("base", "head") for w in workloads}
    for i in range(PAIRS):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for w in workloads:
            for side in order:
                runs[(side, w)].append(run_once(trees[side], w, SEED0 + i, bench["run_seconds"]))
            print(f"pair {i + 1}/{PAIRS} {w} done", flush=True)

    bound_of = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    rows = []
    for w in workloads:
        base, head = runs[("base", w)], runs[("head", w)]
        failed = [sum(r["failed"] for r in side) for side in (base, head)]
        incorrect = [sum(not r["correct"] for r in side) for side in (base, head)]
        names = list(bound_of) + sorted(base[0]["record"]["report"])
        for name in names:
            if name in bound_of:
                better, bound = bound_of[name]
                b, h = metric_values(base, name), metric_values(head, name)
            else:
                better, bound = "lower", bound_of["round_s"][1]
                b, h = report_values(base, name), report_values(head, name)
            if len(b) != len(h) or not b:
                continue
            v = verdict(b, h, better, bound)
            if incorrect[1]:
                v = f"not counted: {incorrect[1]} run(s) of the change failed a check"
            elif v == "better" and failed[1] > failed[0]:
                v = "not counted: more operations failed"
            rows.append({"workload": w, "metric": name, "base": quartiles(b), "head": quartiles(h),
                         "verdict": v, "gated": name in bound_of,
                         "failed_base": failed[0], "failed_head": failed[1],
                         "incorrect_base": incorrect[0], "incorrect_head": incorrect[1]})
    print(f"\n{'workload':<12} {'metric':<24} {'base median [q1, q3]':>30} {'head median [q1, q3]':>30}  verdict")
    for row in rows:
        fmt = "{1:.4g} [{0:.4g}, {2:.4g}]"
        print(f"{row['workload']:<12} {row['metric']:<24} {fmt.format(*row['base']):>30} "
              f"{fmt.format(*row['head']):>30}  {row['verdict']}{'' if row['gated'] else ' (not gated)'}")
    (BENCH / "out").mkdir(exist_ok=True)
    metadata = {side: runs[(side, workloads[0])][0]["record"]["metadata"] for side in ("base", "head")}
    (BENCH / "out" / "compare.json").write_text(json.dumps({"metadata": metadata, "rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
