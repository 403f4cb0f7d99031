"""Replicated simulation experiments: generate, fit every method, score.

The harness mirrors the two simulation designs (concentration tilt with a
single component, mixture-coefficient tilt with two components) and the
train/test resampling protocol for external data. Replicates are independent
given their derived seeds, so they can run in a worker pool without changing
any output byte.
"""

from __future__ import annotations

import csv
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from .em import FitConfig, FitResult, fit, fit_me
from .errors import ConfigError, DomainError
from .losses import LossReport, classification_error, cross_validate, l_comp, l_par
from .mallows import MallowsParams, MixtureParams
from .missing import (
    ClusterMissingSpec,
    Dataset,
    MissingTable,
    generate_dataset,
    induced_table,
    tilt_concentration_mechanism,
    tilt_mixture_mechanism,
)
from .perms import DEFAULT_CAP, Permutation
from .util import atomic_open, require, require_number, require_numbers, require_typed, write_json


@dataclass(frozen=True)
class GeneratorSpec:
    """Data-generating model: a named mechanism plus its parameters."""

    kind: str  # "tilt_concentration" | "tilt_mixture"
    r: int
    params: dict


@dataclass(frozen=True)
class Truth:
    theta: MixtureParams
    mechanism: MissingTable | ClusterMissingSpec
    phi_table: MissingTable  # per-vertex table the losses are scored against


def _ordering(value, r: int) -> Permutation:
    if value is None:
        return Permutation.identity(r)
    if not isinstance(value, list) or not all(isinstance(x, int) and not isinstance(x, bool) for x in value):
        raise ConfigError(f"an ordering must be a list of item ids, got {value!r}")
    return Permutation.from_ordering(value)


def build_truth(spec: GeneratorSpec, cap: int = DEFAULT_CAP) -> Truth:
    params = spec.params
    if spec.kind == "tilt_concentration":
        sigma0 = _ordering(params.get("sigma0"), spec.r)
        c = require_number(params, "c")
        theta = MixtureParams.single(sigma0, c)
        mech = tilt_concentration_mechanism(
            c, require_number(params, "c_star"), require_number(params, "R"), sigma0, cap
        )
        return Truth(theta, mech, mech)
    if spec.kind == "tilt_mixture":
        orderings = require_typed(params, "sigmas", list)
        cs, w, w_star = (require_numbers(params, key) for key in ("cs", "w", "w_star"))
        if not len(orderings) == len(cs) == len(w) == len(w_star):
            raise ConfigError("sigmas, cs, w and w_star must be lists of one length")
        components = tuple(MallowsParams(_ordering(o, spec.r), float(c)) for o, c in zip(orderings, cs))
        theta = MixtureParams(components, tuple(map(float, w)))
        mech = tilt_mixture_mechanism(w, w_star, require_number(params, "R"), spec.r)
        return Truth(theta, mech, induced_table(mech, theta, cap))
    raise ConfigError(f"unknown generator kind {spec.kind!r}")


def run_method(method: dict, dataset: Dataset, config: FitConfig, cap: int = DEFAULT_CAP) -> FitResult:
    """Dispatch one method spec: ME, NR, R (fixed lam), or RCV (grid)."""
    if not isinstance(method, dict):
        raise ConfigError(f"a method must be a JSON object, got {method!r}")
    name = str(method.get("name", "")).upper()
    if name == "ME":
        return fit_me(dataset, config, cap)
    if name == "NR":
        return fit(dataset, replace(config, lam=0.0), cap)
    if name == "R":
        return fit(dataset, replace(config, lam=require_number(method, "lam")), cap)
    if name == "RCV":
        result = cross_validate(dataset, require_numbers(method, "grid"), config, cap).refit
        result.method = "RCV"
        return result
    raise ConfigError(f"unknown method {method!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    spec: GeneratorSpec
    methods: tuple
    fit: FitConfig
    n: int
    replicates: int
    seed: int
    workers: int = 1
    keep_datasets: bool = False
    param_label: str = ""


def _replicate_seeds(seed: int, replicates: int) -> list[tuple[int, int]]:
    children = np.random.SeedSequence(seed).spawn(replicates)
    return [tuple(int(s) for s in child.generate_state(2)) for child in children]


def _replicate_worker(payload) -> list[LossReport]:
    cfg, index, data_seed, fit_seed, dataset_path, cap = payload
    truth = build_truth(cfg.spec, cap)
    dataset = generate_dataset(truth.theta, truth.mechanism, cfg.n, data_seed, cap)
    if dataset_path is not None:
        dataset.save_csv(dataset_path)
    rows = []
    for method in cfg.methods:
        started = perf_counter()
        result = run_method(method, dataset, replace(cfg.fit, seed=fit_seed), cap)
        elapsed_ms = (perf_counter() - started) * 1000.0
        err = None
        if cfg.fit.n_clusters > 1 and dataset.true_clusters is not None:
            err = classification_error(dataset.true_clusters, result.posteriors)
        rows.append(
            LossReport(
                method=result.method,
                replicate=index,
                param=cfg.param_label,
                l_par=l_par(truth.theta, truth.phi_table, result.theta, result.phi, cap),
                l_comp=l_comp(truth.theta, result.theta, cap),
                classification_error=err,
                runtime_ms=elapsed_ms,
            )
        )
    return rows


def run_experiment(cfg: ExperimentConfig, out_dir: str | Path | None = None, cap: int = DEFAULT_CAP) -> list[LossReport]:
    """Run every replicate (optionally in a worker pool) and collect rows in order."""
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    payloads = []
    for index, (data_seed, fit_seed) in enumerate(_replicate_seeds(cfg.seed, cfg.replicates)):
        dataset_path = None
        if cfg.keep_datasets and out_dir is not None:
            dataset_path = out_dir / f"dataset_{index:03d}.csv"
        payloads.append((cfg, index, data_seed, fit_seed, dataset_path, cap))
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            per_replicate = list(pool.map(_replicate_worker, payloads))
    else:
        per_replicate = [_replicate_worker(p) for p in payloads]
    rows = [row for chunk in per_replicate for row in chunk]
    if out_dir is not None:
        write_report_csv(rows, out_dir / "report.csv")
        write_summary_json(rows, out_dir / "summary.json")
    return rows


# ---------------------------------------------------------------------------
# Report output.
# ---------------------------------------------------------------------------

REPORT_HEADER = ["method", "replicate", "param", "l_par", "l_comp", "class_err", "runtime_ms"]


def write_report_csv(rows: list[LossReport], path: str | Path) -> None:
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(REPORT_HEADER)
        for row in rows:
            writer.writerow(
                [
                    row.method,
                    row.replicate,
                    row.param,
                    repr(row.l_par),
                    "" if row.l_comp is None else repr(row.l_comp),
                    "" if row.classification_error is None else repr(row.classification_error),
                    repr(row.runtime_ms),
                ]
            )


def _quartiles(values: list[float]) -> dict:
    arr = np.asarray(values, dtype=float)
    q1, med, q3 = (float(np.percentile(arr, p)) for p in (25, 50, 75))
    return {"q1": q1, "median": med, "q3": q3, "n": int(arr.size)}


def write_summary_json(rows: list[LossReport], path: str | Path) -> None:
    """Per-method quartiles of each loss (the numbers behind boxplots)."""
    methods = sorted({row.method for row in rows})
    summary = {}
    for method in methods:
        chunk = [row for row in rows if row.method == method]
        comps = [row.l_comp for row in chunk if row.l_comp is not None]
        entry = {
            "l_par": _quartiles([row.l_par for row in chunk]),
            "l_comp": _quartiles(comps) if comps else None,
        }
        errs = [row.classification_error for row in chunk if row.classification_error is not None]
        entry["classification_error"] = _quartiles(errs) if errs else None
        summary[method] = entry
    write_json(path, summary)


# ---------------------------------------------------------------------------
# Train/test resampling for external datasets.
# ---------------------------------------------------------------------------


def resample_splits(
    dataset: Dataset, test_size: int, train_sizes, resamples: int, seed: int
) -> list[tuple[int, np.ndarray, dict[int, np.ndarray]]]:
    """Repeatedly draw a test set, then per-size train sets from the rest."""
    train_sizes = [int(x) for x in train_sizes]
    n = len(dataset)
    if test_size + max(train_sizes) > n:
        raise DomainError(
            f"test size {test_size} plus train size {max(train_sizes)} exceeds {n} observations"
        )
    rng = np.random.default_rng([seed, 0x5B])
    out = []
    for s in range(resamples):
        test_idx = rng.choice(n, size=test_size, replace=False)
        remaining = np.setdiff1d(np.arange(n), test_idx)
        trains = {
            size: remaining[rng.choice(remaining.size, size=size, replace=False)]
            for size in train_sizes
        }
        out.append((s, np.sort(test_idx), {k: np.sort(v) for k, v in trains.items()}))
    return out
