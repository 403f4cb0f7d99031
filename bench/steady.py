"""Check that the benchmark is steady: repeated runs agree within its bounds.

    python3 bench/steady.py --runs 10 --sets 2

Runs every workload ``--runs`` times, each with another seed, interleaving
the workloads, and prints the median and quartiles of every end-to-end
metric. A metric passes when its quartile distance, as a share of its
median, is within its bound. ``setup_s`` is exempt from that spread test:
it is a median of 3-9 fresh process starts of 0.1-1.7 s each, and how long
a start takes depends on the machine's load at that moment (its samples
within one run differ by up to 40 %), so set-up is held to its bound by the
drift test alone, which is also how a regression in it shows.

With ``--sets 2`` the same seeds run again: the two medians may not differ
by more than the bound in either direction, the share of failed operations
must match exactly, and the fitted (theta, phi) digests must be identical.
"""

from __future__ import annotations

import argparse
import json

from runs import BENCH, ROOT, metric_values, quartiles, report_values, run_once, spec, spread

SEED0 = 101  # run i of a set uses seed SEED0 + i


def run_set(workloads, seeds, seconds, label):
    runs = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            result = run_once(ROOT, w, seed, seconds)
            runs[w].append(result)
            values = " ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
            print(f"[{label}] {w} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} {values}", flush=True)
    return runs


def main() -> int:
    bench = spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(range(SEED0, SEED0 + args.runs))
    sets = [run_set(workloads, seeds, bench["run_seconds"], f"set {i + 1}") for i in range(args.sets)]

    ok = True
    summary = {"metadata": sets[0][workloads[0]][0]["record"]["metadata"]}
    print(f"\n{'workload':<12} {'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} "
          f"{'bound':>6}  verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            values = metric_values(sets[0][w], name)
            q1, med, q3 = quartiles(values)
            s = spread(values)
            verdict = "ok" if name == "setup_s" or s <= bound else "SPREAD"
            if len(sets) == 2:
                med2 = quartiles(metric_values(sets[1][w], name))[1]
                if abs(med2 - med) / med > bound:
                    verdict = "DRIFT"
                summary.setdefault(w, {})[f"{name}_second_median"] = med2
            ok &= verdict == "ok"
            summary.setdefault(w, {})[name] = {"median": med, "q1": q1, "q3": q3, "spread": s,
                                               "bound": bound, "third_of_bound": s <= bound / 3}
            print(f"{w:<12} {name:<12} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} {s:>7.3f} {bound:>6}  {verdict}")
        for name in sorted(sets[0][w][0]["record"]["report"]):
            values = report_values(sets[0][w], name)
            summary.setdefault(w, {})[name] = {"median": quartiles(values)[1], "spread": spread(values)}
            unit = sets[0][w][0]["record"]["report"][name]["unit"]
            print(f"{w:<12} {name:<24} {quartiles(values)[1]:>10.4g} {unit:<5} spread {spread(values):.3f} "
                  "(not gated)")
        correct = all(r["correct"] for s_ in sets for r in s_[w])
        shares = [sum(r["failed"] for r in s_[w]) / sum(r["attempted"] for r in s_[w]) for s_ in sets]
        ok &= correct and len(set(shares)) == 1
        line = f"{w:<12} correct={correct} failed share={shares}"
        if len(sets) == 2:
            same = [a["record"]["digests"][:n] == b["record"]["digests"][:n]
                    for a, b in zip(sets[0][w], sets[1][w])
                    for n in [min(len(a["record"]["digests"]), len(b["record"]["digests"]))]]
            ok &= all(same)
            line += f" digests identical at the same seed: {sum(same)}/{len(same)}"
        print(line)
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "steady.json").write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
