"""Run one partialrank benchmark workload and print its metrics.

    python3 bench/run.py --workload desk-r5 --seed 1 --seconds 30 --trace 0

Each run is one fresh process. It measures set-up (import plus a warm-up pass
on a tiny input at the workload's r) in several fresh child processes, then
runs a fixed pass of rounds closed-loop, one operation at a time. Round
``i`` of a pass always draws the same data from ``--seed``, so every run of
a seed covers the same inputs; the pass is repeated whole while another
pass fits in ``--seconds``. Every operation's output is checked against
the brute-force references in ``reference.py``. With
``--trace 1`` the calls into each layer are wrapped in spans and the
per-layer metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
name every metric with its unit, and the full record (run metadata, per-round
times, fit digests, check counts) goes to ``bench/out/``.
"""

from __future__ import annotations

import os

# pinned before numpy loads: the machine this was tuned on has two cores
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import tracing  # noqa: E402

# fresh-process set-ups per run: at least 3 and 1.5 s of them, at most 9
MIN_PROBES, MIN_PROBE_SECONDS, MAX_PROBES = 3, 1.5, 9
RCV_GRID = (1.0, 10.0, 100.0)


@dataclass(frozen=True)
class Workload:
    r: int
    generator: str        # "tilt_concentration" or "tilt_mixture"
    n: int
    methods: tuple        # run in this order on each round's data
    scores: tuple         # losses computed for every fit
    fit: dict             # FitConfig fields that differ from the defaults
    rounds: int           # rounds in one pass, about 26 s on a 2-core machine
    data_path: bool = False  # CSV round trip and grouping before the fits
    r10_fit: dict = field(default_factory=dict)  # further FitConfig fields for R10 alone


# Fits are cut below the default 10 restarts (and the r = 7 R10 fit to 3 EM
# iterations) so that a 30 s run holds several rounds: on a 2-core machine
# identical fits differ by 10-25 % in wall time, and only a median over
# rounds brings the run-to-run spread down. An uncapped r = 7 R10 round takes
# 7-13 s, depending on the data, so a pass would hold only 3 rounds, and over
# ten seeds the spread of round_s was then 0.31, above its 0.25 bound.
WORKLOADS = {
    # one simulation replicate at desk scale: ADMM's multiplier solve dominates
    "desk-r5": Workload(5, "tilt_concentration", 1000, ("R10", "NR", "ME", "RCV"), ("l_par", "l_comp"),
                        {"restarts": 2}, rounds=7),
    # 5040 vertices: large ADMM arrays, the dense distance matrix, big set-up
    "wide-r7": Workload(7, "tilt_concentration", 1000, ("R10", "NR", "ME"), ("l_par", "l_comp"),
                        {"restarts": 1}, rounds=6, r10_fit={"em_max_iter": 3}),
    # n = 1e5 two-component data: CSV path and the O(n) E-step; no ADMM
    "bulk-mix-r5": Workload(5, "tilt_mixture", 100_000, ("NR", "ME"), ("l_par", "classification_error"),
                            {"restarts": 2, "n_clusters": 2}, rounds=6, data_path=True),
}


def smoke(w: Workload) -> Workload:
    """The reduced size the self-check runs: r = 4, tiny n, one restart, one round."""
    return replace(w, r=4, n=400 if w.data_path else 80, fit={**w.fit, "restarts": 1}, rounds=1)


def generator_spec(experiments, w: Workload):
    if w.generator == "tilt_concentration":
        return experiments.GeneratorSpec(w.generator, w.r, {"c": 1.0, "c_star": 1.2, "R": 0.7})
    # the acceptance criterion 8 design: identity against (3,2,5,4,1) at r = 5
    second = [5, 2, 1, 4, 3] if w.r == 5 else list(range(w.r, 0, -1))
    return experiments.GeneratorSpec(w.generator, w.r, {
        "sigmas": [list(range(1, w.r + 1)), second], "cs": [1.0, 1.0],
        "w": [0.5, 0.5], "w_star": [0.7, 0.3], "R": 0.7,
    })


def import_package():
    """Import partialrank from this checkout's src/, and nowhere else."""
    init = SRC / "partialrank" / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench/run.py: no partialrank sources at {init}")
    sys.path.insert(0, str(SRC))
    import partialrank
    import partialrank.experiments

    if Path(partialrank.__file__).resolve() != init.resolve():
        sys.exit(f"bench/run.py: imported partialrank from {partialrank.__file__}, not {init}")
    return partialrank


class OpFailed(Exception):
    """A program operation raised; the rest of its round is skipped."""


class Recorder:
    """Times each operation, counts attempts and failures, collects checks."""

    def __init__(self, tracer: tracing.Tracer | None, check: bool = True):
        self.tracer = tracer
        self.check_outputs = check
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.times: dict[str, list[float]] = defaultdict(list)
        self.values: dict[str, list[float]] = defaultdict(list)
        self.checks: Counter = Counter()
        self.bad: list[str] = []

    def op(self, name: str, call):
        self.attempted += 1
        sid = self.tracer.begin(f"op.{name}") if self.tracer and self.tracer.enabled else None
        started = time.perf_counter()
        try:
            result = call()
        except Exception as exc:
            self.failed += 1
            self.errors.append(f"{name}: {traceback.format_exception_only(exc)[-1].strip()}")
            raise OpFailed(name) from exc
        finally:
            if sid is not None:
                self.tracer.end(sid)
        self.times[name].append(time.perf_counter() - started)
        return result

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks[name] += 1
        if not ok:
            self.bad.append(f"{name}: {detail}")


def components(theta) -> list:
    return [(comp.sigma.ranks, comp.c, w) for comp, w in zip(theta.components, theta.weights)]


def digest(fits) -> str:
    h = hashlib.sha256()
    for res in fits:
        h.update(repr(components(res.theta)).encode())
        h.update(np.ascontiguousarray(res.phi.probs).tobytes())
    return h.hexdigest()[:16]


def check_fit(rec: Recorder, space: reference.Space, res, observations, lam: float) -> None:
    ref = space.penalized_nll(components(res.theta), res.phi.probs, observations, lam)
    rel = abs(ref - res.nll) / max(1.0, abs(ref))
    rec.check("nll_matches_reference", rel <= 1e-8, f"{res.method}: nll {res.nll!r} vs {ref!r}")
    trace = res.trace
    rises = [b - a for a, b in zip(trace, trace[1:]) if b > a + 1e-8 * max(1.0, abs(a))]
    rec.check("em_trace_non_increasing", not rises, f"{res.method}: rises {rises}")
    probs = res.phi.probs
    on_simplex = probs.min() >= 0 and float(np.abs(probs.sum(axis=1) - 1.0).max()) <= 1e-10
    rec.check("phi_rows_on_simplex", bool(on_simplex), res.method)


def fit_method(pr, method: str, data, cfg, r10_fit: dict):
    if method == "R10":
        return pr.fit(data, replace(cfg, lam=10.0, **r10_fit))
    if method == "NR":
        return pr.fit(data, replace(cfg, lam=0.0))
    if method == "ME":
        return pr.fit_me(data, cfg)
    return pr.cross_validate(data, RCV_GRID, cfg)


def run_round(pr, w: Workload, data_seed: int, fit_seed: int, rec: Recorder, space, csv_path: Path, cfg=None):
    """One round: truth, data (and its CSV round trip), every fit, every loss.

    Returns the digest of the fitted (theta, phi) in method order.
    """
    check = rec.check_outputs
    spec = generator_spec(pr.experiments, w)
    truth = rec.op("build_truth", lambda: pr.experiments.build_truth(spec))
    data = rec.op("generate", lambda: pr.generate_dataset(truth.theta, truth.mechanism, w.n, data_seed))
    if w.data_path:
        try:
            rec.op("save_csv", lambda: data.save_csv(csv_path))
            loaded = rec.op("load_csv", lambda: pr.Dataset.load_csv(csv_path, w.r))
        finally:
            csv_path.unlink(missing_ok=True)
        groups = rec.op("groups", loaded.groups)
        if check:
            same = (
                [(tau.t, tau.items) for tau in loaded.rankings] == [(tau.t, tau.items) for tau in data.rankings]
                and loaded.true_perms == data.true_perms
                and np.array_equal(loaded.true_clusters, data.true_clusters)
            )
            rec.check("csv_round_trip", same)
            counts = sorted(int(c) for block in groups.blocks for c in block.counts)
            expected = sorted(Counter((tau.t, tau.items) for tau in data.rankings).values())
            rec.check("group_counts", sum(counts) == w.n and counts == expected, f"sum {sum(counts)}")
        data = loaded
    observations = [(tau.t, tau.items) for tau in data.rankings] if check else None
    cfg = cfg or pr.FitConfig(**w.fit, seed=fit_seed)
    fits = []
    for method in w.methods:
        res = rec.op(f"fit_{method}", lambda: fit_method(pr, method, data, cfg, w.r10_fit))
        if method == "RCV":
            cv, res = res, res.refit
            if check:
                best = min(cv.scores.values())
                smallest = min(lam for lam, score in cv.scores.items() if score == best)
                rec.check("rcv_best_lam", cv.best_lam == smallest and res.config.lam == cv.best_lam,
                          f"best {cv.best_lam} scores {cv.scores} refit lam {res.config.lam}")
        fits.append(res)
        if check:
            check_fit(rec, space, res, observations, 0.0 if method in ("NR", "ME") else res.config.lam)
            if method == "ME":
                hist = reference.length_histogram(observations, w.r)
                rec.check("me_phi_is_length_histogram", bool(np.all(res.phi.probs == hist[None, :])))
        for score in w.scores:
            if score == "l_par":
                value = rec.op("l_par", lambda: pr.l_par(truth.theta, truth.phi_table, res.theta, res.phi))
                ref = space.l_par(components(truth.theta), truth.phi_table.probs,
                                  components(res.theta), res.phi.probs) if check else value
            elif score == "l_comp":
                value = rec.op("l_comp", lambda: pr.l_comp(truth.theta, res.theta))
                ref = space.l_comp(components(truth.theta), components(res.theta)) if check else value
            else:
                value = rec.op("classification_error",
                               lambda: pr.classification_error(data.true_clusters, res.posteriors))
                ref = reference.classification_error(data.true_clusters, res.posteriors) if check else value
            if check:
                lo, hi = (0.0, 1.0) if score == "classification_error" else (0.0, 2.0)
                rec.check(f"{score}_matches_reference", abs(value - ref) <= 1e-10 and lo <= value <= hi,
                          f"{method}: {value!r} vs {ref!r}")
            rec.values[f"{score}_{method}"].append(value)
    return digest(fits)


def warm_up(pr, w: Workload, csv_path: Path) -> None:
    """Run every entry point of the workload once on a tiny input at the same r."""
    tiny = replace(w, n=60, r10_fit={})
    cfg = pr.FitConfig(**{**w.fit, "restarts": 1, "em_max_iter": 2, "admm_max_iter": 2})
    run_round(pr, tiny, 0, 0, Recorder(None, check=False), None, csv_path, cfg)


def timed_round(pr, w, seeds, rec, space, csv_path, tracer, index, traced):
    """Run one round; return its digest and, if no operation failed, its time."""
    if tracer:
        tracer.enabled = traced
    span = tracer.begin(f"round{index}") if traced else None
    before = sum(map(sum, rec.times.values()))
    try:
        return run_round(pr, w, *seeds, rec, space, csv_path), sum(map(sum, rec.times.values())) - before
    except OpFailed:
        return (None,)
    finally:
        if span is not None:
            tracer.end(span)


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def metadata(args) -> dict:
    sources = sorted((SRC / "partialrank").glob("*.py"))
    h = hashlib.sha256()
    for path in sources:
        h.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "git_sha": git_sha(), "src_sha256": h.hexdigest()[:16],
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sources),
        "python": platform.python_version(), "numpy": np.__version__, "cpu_count": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
    }


def probe_setup(args) -> float:
    """Set-up time of one fresh child process, as the child measures it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if out.returncode != 0:
        sys.exit(f"bench/run.py: set-up probe failed:\n{out.stderr}")
    return float(out.stdout.split()[-1])


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def report_metrics(rec: Recorder, w: Workload) -> dict[str, tuple[float, str]]:
    """Workload-specific figures, printed and recorded but not gated."""
    out = {}
    for method in w.methods:
        out[f"fit_{method}_s"] = (median(rec.times[f"fit_{method}"]), "s")
        for score in w.scores:
            unit = "share" if score == "classification_error" else "TV"
            out[f"{score}_{method}"] = (median(rec.values[f"{score}_{method}"]), unit)
    if w.data_path:
        for name, ops in (("simulate_s", ("generate", "save_csv")), ("ingest_s", ("load_csv", "groups"))):
            out[name] = (median([sum(parts) for parts in zip(*(rec.times[op] for op in ops))]), "s")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced size: r = 4, tiny n, one round")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    w = smoke(WORKLOADS[args.workload]) if args.smoke else WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    csv_path = OUT / f"{stem}-{os.getpid()}.csv"

    if args.setup_probe:
        started = time.perf_counter()
        warm_up(import_package(), w, csv_path)
        print(time.perf_counter() - started)
        return 0

    setup_samples = []
    while not args.trace and len(setup_samples) < MAX_PROBES and (
        len(setup_samples) < MIN_PROBES or sum(setup_samples) < MIN_PROBE_SECONDS
    ):
        setup_samples.append(probe_setup(args))
    tracer = tracing.Tracer() if args.trace else None
    pr = import_package()
    if tracer:
        tracer.install()
        setup_span = tracer.begin("setup")
    warm_up(pr, w, csv_path)
    if tracer:
        tracer.end(setup_span)
    space = reference.Space(w.r)

    rec = Recorder(tracer)
    # a traced run pairs each traced round with an untraced one on the same
    # seeds, in alternating order, so the tracing overhead is measured free of
    # machine drift and the two digests show tracing changed no output
    plain = Recorder(None, check=False) if tracer else None
    round_s, untraced_s, walls, digests = [], [], [], []
    started = time.perf_counter()
    while True:
        index = len(walls)
        seeds = [int(x) for x in np.random.SeedSequence([args.seed, index % w.rounds]).generate_state(2)]
        wall = time.perf_counter()
        if tracer:
            outs = {}
            for traced in (True, False) if index % 2 == 0 else (False, True):
                outs[traced] = timed_round(pr, w, seeds, rec if traced else plain, space, csv_path, tracer, index,
                                           traced)
            rec.check("traced_round_matches_untraced", outs[True][0] == outs[False][0])
            digests.append(outs[True][0])
            round_s += outs[True][1:]
            untraced_s += outs[False][1:]
        else:
            out = timed_round(pr, w, seeds, rec, space, csv_path, None, index, False)
            digests.append(out[0])
            round_s += out[1:]
        walls.append(time.perf_counter() - wall)
        passes, elapsed = len(walls) / w.rounds, time.perf_counter() - started
        if args.smoke or (passes == int(passes) and elapsed + elapsed / passes > args.seconds):
            break

    result = {
        "metadata": metadata(args), "rounds": len(walls), "round_s": round_s, "digests": digests,
        "setup_samples": setup_samples, "errors": rec.errors + (plain.errors if plain else []),
        "op_times": dict(rec.times),
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report_metrics(rec, w).items()},
    }
    if tracer:
        fits = tuple(f"op.fit_{m}" for m in w.methods)
        bad = tracing.fit_self_time_violations(tracer.spans, fits)
        rec.check("fit_child_self_times_within_wall", not bad, "; ".join(bad))
        metrics = {k: (v, tracing.PER_LAYER[k]) for k, v in tracing.per_layer(tracer).items()}
        result["absent"] = tracer.absent
        result["untraced_round_s"] = untraced_s
        result["trace_overhead_pct"] = 100.0 * median([t / u - 1.0 for t, u in zip(round_s, untraced_s)])
        tracer.write(OUT / f"{args.workload}-s{args.seed}-spans.json")
    else:
        metrics = {
            "setup_s": (median(setup_samples), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            # a mean over the fixed pass: desk-r5 rounds range 1-7 s with the
            # data, and their median jumps between rounds where a mean does not
            "round_s": (statistics.mean(round_s) if round_s else 0.0, "s"),
        }
    result["check_failures"] = rec.bad
    result["checks"] = dict(rec.checks)
    attempted = rec.attempted + (plain.attempted if plain else 0)
    failed = rec.failed + (plain.failed if plain else 0)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    print("metadata " + json.dumps(result["metadata"], sort_keys=True))
    print(f"rounds {len(walls)}  checks {sum(rec.checks.values())}  check failures {len(rec.bad)}")
    for line in rec.bad[:20] + rec.errors[:20]:
        print(f"  {line}")
    if "trace_overhead_pct" in result:
        print(f"trace_overhead {result['trace_overhead_pct']:.2f} %")
    for name, entry in result["report"].items():
        print(f"report {name} = {entry['value']:.6g} {entry['unit']}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not rec.bad, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
