"""Command-line entry point driven by a JSON run configuration.

Usage::

    partialrank run --config experiment.json [--seed N] [--out PATH]

The configuration's ``command`` field selects the workflow; ``--seed`` and
``--out`` override the corresponding config fields. See the README for the
full schema per command. Validation failures exit non-zero and print a
machine-readable error object on stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import fields
from pathlib import Path

from . import experiments
from .em import FitConfig, e_step, load_fit_json
from .errors import (
    CapacityError,
    ConfigError,
    DataFormatError,
    DegenerateClusterError,
    DegenerateLikelihoodError,
    DimensionError,
    DomainError,
    NumericError,
)
from .experiments import ExperimentConfig, GeneratorSpec, build_truth, resample_splits, run_method
from .losses import LossReport, classification_error, cross_validate, l_comp, l_par, l_par_empirical
from .missing import Dataset, generate_dataset
from .perms import DEFAULT_CAP, build_cayley_graph, write_edge_csv
from .util import atomic_path, require

logger = logging.getLogger(__name__)

EXIT_CODES = {
    ConfigError: 2,
    DataFormatError: 3,
    DimensionError: 4,
    DomainError: 5,
    CapacityError: 6,
    DegenerateLikelihoodError: 7,
    DegenerateClusterError: 7,
    NumericError: 8,
    OSError: 9,
}

COMMANDS = ("simulate", "fit", "eval", "cv", "graph", "split", "experiment")


# ---------------------------------------------------------------------------
# Config plumbing.
# ---------------------------------------------------------------------------


def _fit_config(config: dict) -> FitConfig:
    allowed = {f.name for f in fields(FitConfig)}
    overrides = dict(config.get("fit", {}))
    unknown = set(overrides) - allowed
    if unknown:
        raise ConfigError(f"unknown fit config fields: {sorted(unknown)}")
    if "K" in config:
        overrides.setdefault("n_clusters", int(config["K"]))
    if "seed" in config:
        overrides.setdefault("seed", int(config["seed"]))
    try:
        return FitConfig(**overrides)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def _generator_spec(config: dict) -> GeneratorSpec:
    gen = dict(require(config, "generator"))
    kind = gen.pop("kind", None)
    if kind not in ("tilt_concentration", "tilt_mixture"):
        raise ConfigError(f"unknown generator kind {kind!r}")
    return GeneratorSpec(kind=kind, r=int(require(config, "r")), params=gen)


def _out_dir(config: dict) -> Path:
    out = Path(require(config, "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_distinct_paths(config: dict) -> None:
    paths = []
    for key in ("input", "out", "dataset"):
        if key in config and config[key] is not None:
            paths.append(str(Path(config[key])))
    if len(paths) != len(set(paths)):
        raise ConfigError("referenced paths must be distinct")


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def _cmd_graph(config: dict) -> None:
    r = int(require(config, "r"))
    graph = build_cayley_graph(r, int(config.get("cap", DEFAULT_CAP)))
    out = Path(require(config, "out"))
    with atomic_path(out) as tmp:
        write_edge_csv(graph, tmp)
    logger.info("wrote %d edges to %s", graph.n_edges, out)


def _cmd_simulate(config: dict) -> None:
    spec = _generator_spec(config)
    n = int(require(config, "n"))
    replicates = int(config.get("replicates", 1))
    seed = int(config.get("seed", 0))
    cap = int(config.get("cap", DEFAULT_CAP))
    out = _out_dir(config)
    truth = build_truth(spec, cap)
    for index, (data_seed, _) in enumerate(experiments._replicate_seeds(seed, replicates)):
        dataset = generate_dataset(truth.theta, truth.mechanism, n, data_seed, cap)
        with atomic_path(out / f"dataset_{index:03d}.csv") as tmp:
            dataset.save_csv(tmp)
    logger.info("wrote %d datasets to %s", replicates, out)


def _cmd_fit(config: dict) -> None:
    _check_distinct_paths(config)
    r = int(require(config, "r"))
    cap = int(config.get("cap", DEFAULT_CAP))
    dataset = Dataset.load_csv(require(config, "input"), r, cap)
    fit_cfg = _fit_config(config)
    method = dict(config.get("method", {"name": "R", "lam": fit_cfg.lam}))
    result = run_method(method, dataset, fit_cfg, cap)
    out = Path(require(config, "out"))
    with atomic_path(out) as tmp:
        result.save_json(tmp)
    logger.info("wrote fit (%s, nll=%.6g) to %s", result.method, result.nll, out)


def _cmd_eval(config: dict) -> None:
    r = int(require(config, "r"))
    cap = int(config.get("cap", DEFAULT_CAP))
    truth_cfg = require(config, "truth")
    param = str(config.get("param", ""))
    rows = []
    for index, entry in enumerate(require(config, "inputs")):
        entry = dict(entry)
        theta_hat, phi_hat, method = load_fit_json(require(entry, "fit"))
        if theta_hat.r != r:
            raise DimensionError(f"fit over r={theta_hat.r}, config says r={r}")
        err = None
        if "dataset" in entry:
            dataset = Dataset.load_csv(entry["dataset"], r, cap)
            if dataset.true_clusters is not None and theta_hat.n_clusters > 1:
                posteriors = e_step(theta_hat, phi_hat, dataset, cap).posteriors()
                err = classification_error(dataset.true_clusters, posteriors)
        if "generator" in truth_cfg:
            truth = build_truth(_generator_spec({"generator": truth_cfg["generator"], "r": r}), cap)
            lp = l_par(truth.theta, truth.phi_table, theta_hat, phi_hat, cap)
            lc = l_comp(truth.theta, theta_hat, cap)
        elif "test" in truth_cfg:
            test = Dataset.load_csv(truth_cfg["test"], r, cap)
            lp = l_par_empirical(test, theta_hat, phi_hat, cap)
            lc = None
        else:
            raise ConfigError("truth must supply either a generator or a test dataset")
        rows.append(
            LossReport(
                method=method,
                replicate=int(entry.get("replicate", index)),
                param=param,
                l_par=lp,
                l_comp=lc,
                classification_error=err,
                runtime_ms=0.0,
            )
        )
    out = _out_dir(config)
    experiments.write_report_csv(rows, out / "report.csv")
    experiments.write_summary_json(rows, out / "summary.json")
    logger.info("wrote %d loss rows to %s", len(rows), out)


def _cmd_cv(config: dict) -> None:
    _check_distinct_paths(config)
    r = int(require(config, "r"))
    cap = int(config.get("cap", DEFAULT_CAP))
    dataset = Dataset.load_csv(require(config, "input"), r, cap)
    grid = require(config, "grid")
    result = cross_validate(dataset, grid, _fit_config(config), cap)
    out = _out_dir(config)
    with atomic_path(out / "cv_scores.json") as tmp:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            json.dump(
                {
                    "best_lam": result.best_lam,
                    "scores": {repr(lam): score for lam, score in sorted(result.scores.items())},
                },
                fh,
                indent=1,
                sort_keys=True,
            )
            fh.write("\n")
    with atomic_path(out / "refit.json") as tmp:
        result.refit.save_json(tmp)
    logger.info("selected lam=%g; wrote scores and refit to %s", result.best_lam, out)


def _cmd_split(config: dict) -> None:
    _check_distinct_paths(config)
    r = int(require(config, "r"))
    cap = int(config.get("cap", DEFAULT_CAP))
    dataset = Dataset.load_csv(require(config, "input"), r, cap)
    splits = resample_splits(
        dataset,
        int(require(config, "test_size")),
        require(config, "train_sizes"),
        int(require(config, "resamples")),
        int(config.get("seed", 0)),
    )
    out = _out_dir(config)
    for s, test_idx, trains in splits:
        with atomic_path(out / f"test_{s:02d}.csv") as tmp:
            dataset.subset(test_idx).save_csv(tmp)
        for size, train_idx in trains.items():
            with atomic_path(out / f"train_{size}_{s:02d}.csv") as tmp:
                dataset.subset(train_idx).save_csv(tmp)
    logger.info("wrote %d resamples to %s", len(splits), out)


def _cmd_experiment(config: dict) -> None:
    spec = _generator_spec(config)
    cfg = ExperimentConfig(
        spec=spec,
        methods=tuple(dict(m) for m in require(config, "methods")),
        fit=_fit_config(config),
        n=int(require(config, "n")),
        replicates=int(config.get("replicates", 1)),
        seed=int(config.get("seed", 0)),
        workers=int(config.get("workers", 1)),
        keep_datasets=bool(config.get("keep_datasets", False)),
        param_label=str(config.get("param", "")),
    )
    out = _out_dir(config)
    rows = experiments.run_experiment(cfg, out, int(config.get("cap", DEFAULT_CAP)))
    logger.info("wrote %d loss rows to %s", len(rows), out)


_RUNNERS = {
    "graph": _cmd_graph,
    "simulate": _cmd_simulate,
    "fit": _cmd_fit,
    "eval": _cmd_eval,
    "cv": _cmd_cv,
    "split": _cmd_split,
    "experiment": _cmd_experiment,
}


def run(config_path: str | Path, seed: int | None = None, out: str | Path | None = None) -> None:
    """Execute the workflow a config file describes; overrides win over the file."""
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    command = config.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"command must be one of {COMMANDS}, got {command!r}")
    if seed is not None:
        config["seed"] = int(seed)
    if out is not None:
        config["out"] = str(out)
    _RUNNERS[command](config)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="partialrank", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    run_parser = sub.add_parser("run", help="execute a JSON run configuration")
    run_parser.add_argument("--config", required=True, help="path to the JSON config")
    run_parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    run_parser.add_argument("--out", default=None, help="override the config output path")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(message)s")
    try:
        run(args.config, args.seed, args.out)
    except Exception as exc:  # noqa: BLE001 - single boundary that maps errors to codes
        code = 1
        for klass, value in EXIT_CODES.items():
            if isinstance(exc, klass):
                code = value
                break
        payload = {"error": type(exc).__name__, "code": code, "message": str(exc)}
        if isinstance(exc, DataFormatError) and exc.line is not None:
            payload["line"] = exc.line
        print(json.dumps(payload), file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
