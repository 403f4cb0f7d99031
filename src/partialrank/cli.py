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
import numbers
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
)
from .experiments import ExperimentConfig, GeneratorSpec, build_truth, resample_splits, run_method
from .losses import LossReport, classification_error, cross_validate, l_comp, l_par, l_par_empirical
from .missing import Dataset, generate_dataset
from .perms import build_cayley_graph, write_edge_csv
from .util import field, write_json

logger = logging.getLogger(__name__)

EXIT_CODES = {
    ConfigError: 2,
    DataFormatError: 3,
    DimensionError: 4,
    DomainError: 5,
    CapacityError: 6,
    DegenerateLikelihoodError: 7,
    DegenerateClusterError: 7,
    OSError: 9,
}


# ---------------------------------------------------------------------------
# Config plumbing: every field is read through ``util.field`` before any work.
# ---------------------------------------------------------------------------

_GENERATOR_FIELDS = {
    "tilt_concentration": {"c": float, "c_star": float, "R": float},
    "tilt_mixture": {"sigmas": [[int]], "cs": [float], "w": [float], "w_star": [float], "R": float},
}
_METHOD_FIELDS = {"ME": {}, "NR": {}, "R": {"lam": float}, "RCV": {"grid": [float]}}


def _known(block: dict, allowed, where: str) -> dict:
    """``block`` itself, once every key in it is one of ``allowed``."""
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown {where} config fields: {sorted(unknown)}")
    return block


# the FitConfig fields a ``fit`` object sets: ``K``, ``seed`` and the method's lam own the others
_FIT_FIELDS = tuple(f.name for f in fields(FitConfig) if f.name not in ("n_clusters", "seed", "lam"))


def _fit_config(config: dict) -> FitConfig:
    """Each fit setting from its one field; lam keeps its default for the method to replace."""
    block = _known(field(config, "fit", dict, {}), _FIT_FIELDS, "fit")
    values = {f.name: field(block, f.name, int if isinstance(f.default, int) else numbers.Real, f.default)
              for f in fields(FitConfig) if f.name in _FIT_FIELDS}
    return FitConfig(n_clusters=field(config, "K", int, FitConfig.n_clusters),
                     seed=field(config, "seed", int, FitConfig.seed), **values)


def _generator_spec(gen: dict, r: int) -> GeneratorSpec:
    kind = field(gen, "kind", str)
    if kind not in _GENERATOR_FIELDS:
        raise ConfigError(f"unknown generator kind {kind!r}")
    params = {key: field(gen, key, of) for key, of in _GENERATOR_FIELDS[kind].items()}
    if kind == "tilt_concentration":
        params["sigma0"] = field(gen, "sigma0", [int], None)
    elif not len(params["sigmas"]) == len(params["cs"]) == len(params["w"]) == len(params["w_star"]):
        raise ConfigError("sigmas, cs, w and w_star must be lists of one length")
    _known(gen, ("kind", *params), "generator")
    return GeneratorSpec(kind=kind, r=r, params=params)


def _method(spec: dict) -> dict:
    name = field(spec, "name", str).upper()
    if name not in _METHOD_FIELDS:
        raise ConfigError(f"unknown method {spec!r}")
    method = {"name": name, **{key: field(spec, key, kind) for key, kind in _METHOD_FIELDS[name].items()}}
    _known(spec, method, "method")
    return method


def _input_and_out(config: dict) -> tuple[Path, Path]:
    source, out = Path(field(config, "input", str)), Path(field(config, "out", str))
    if source == out:
        raise ConfigError("referenced paths must be distinct")
    return source, out


# ---------------------------------------------------------------------------
# Commands.
# ---------------------------------------------------------------------------


def _cmd_graph(config: dict) -> None:
    r, out = field(config, "r", int), Path(field(config, "out", str))
    graph = build_cayley_graph(r)
    write_edge_csv(graph, out)
    logger.info("wrote %d edges to %s", graph.n_edges, out)


def _cmd_simulate(config: dict) -> None:
    spec = _generator_spec(field(config, "generator", dict), field(config, "r", int))
    n = field(config, "n", int)
    replicates = field(config, "replicates", int, 1)
    seed = field(config, "seed", int, 0)
    out = Path(field(config, "out", str))
    truth = build_truth(spec)
    out.mkdir(parents=True, exist_ok=True)
    for index, (data_seed, _) in enumerate(experiments._replicate_seeds(seed, replicates)):
        dataset = generate_dataset(truth.theta, truth.mechanism, n, data_seed)
        dataset.save_csv(out / f"dataset_{index:03d}.csv")
    logger.info("wrote %d datasets to %s", replicates, out)


def _cmd_fit(config: dict) -> None:
    source, out = _input_and_out(config)
    r, fit_cfg = field(config, "r", int), _fit_config(config)
    method = _method(field(config, "method", dict, {"name": "R", "lam": FitConfig.lam}))
    result = run_method(method, Dataset.load_csv(source, r), fit_cfg)
    result.save_json(out)
    logger.info("wrote fit (%s, nll=%.6g) to %s", result.method, result.nll, out)


def _cmd_eval(config: dict) -> None:
    r = field(config, "r", int)
    inputs = []
    for index, entry in enumerate(field(config, "inputs", [dict])):
        _known(entry, ("fit", "dataset", "replicate"), "inputs entry")
        fit_path, dataset_path = field(entry, "fit", str), field(entry, "dataset", str, None)
        inputs.append((fit_path, dataset_path, field(entry, "replicate", int, index)))
    param, out = field(config, "param", str, ""), Path(field(config, "out", str))
    truth_cfg = _known(field(config, "truth", dict), ("generator", "test"), "truth")
    if ("generator" in truth_cfg) == ("test" in truth_cfg):
        raise ConfigError("truth must supply exactly one of a generator and a test dataset")
    if "generator" in truth_cfg:
        truth = build_truth(_generator_spec(field(truth_cfg, "generator", dict), r))
    else:
        test = Dataset.load_csv(field(truth_cfg, "test", str), r)
    rows = []
    for fit_path, dataset_path, replicate in inputs:
        theta_hat, phi_hat, method = load_fit_json(fit_path)
        if theta_hat.r != r:
            raise DimensionError(f"fit over r={theta_hat.r}, config says r={r}")
        err = None
        if dataset_path is not None:
            dataset = Dataset.load_csv(dataset_path, r)
            if dataset.true_clusters is not None and theta_hat.n_clusters > 1:
                posteriors = e_step(theta_hat, phi_hat, dataset).posteriors()
                err = classification_error(dataset.true_clusters, posteriors)
        if "generator" in truth_cfg:
            lp = l_par(truth.theta, truth.phi_table, theta_hat, phi_hat)
            lc = l_comp(truth.theta, theta_hat)
        else:
            lp = l_par_empirical(test, theta_hat, phi_hat)
            lc = None
        rows.append(
            LossReport(
                method=method,
                replicate=replicate,
                param=param,
                l_par=lp,
                l_comp=lc,
                classification_error=err,
                runtime_ms=0.0,
            )
        )
    out.mkdir(parents=True, exist_ok=True)
    experiments.write_report_csv(rows, out / "report.csv")
    experiments.write_summary_json(rows, out / "summary.json")
    logger.info("wrote %d loss rows to %s", len(rows), out)


def _cmd_cv(config: dict) -> None:
    source, out = _input_and_out(config)
    r, grid, fit_cfg = field(config, "r", int), field(config, "grid", [float]), _fit_config(config)
    result = cross_validate(Dataset.load_csv(source, r), grid, fit_cfg)
    out.mkdir(parents=True, exist_ok=True)
    scores = {repr(lam): score for lam, score in sorted(result.scores.items())}
    write_json(out / "cv_scores.json", {"best_lam": result.best_lam, "scores": scores})
    result.refit.save_json(out / "refit.json")
    logger.info("selected lam=%g; wrote scores and refit to %s", result.best_lam, out)


def _cmd_split(config: dict) -> None:
    source, out = _input_and_out(config)
    r = field(config, "r", int)
    test_size, train_sizes = field(config, "test_size", int), field(config, "train_sizes", [int])
    resamples, seed = field(config, "resamples", int), field(config, "seed", int, 0)
    dataset = Dataset.load_csv(source, r)
    splits = resample_splits(dataset, test_size, train_sizes, resamples, seed)
    out.mkdir(parents=True, exist_ok=True)
    for s, test_idx, trains in splits:
        dataset.subset(test_idx).save_csv(out / f"test_{s:02d}.csv")
        for size, train_idx in trains.items():
            dataset.subset(train_idx).save_csv(out / f"train_{size}_{s:02d}.csv")
    logger.info("wrote %d resamples to %s", len(splits), out)


def _cmd_experiment(config: dict) -> None:
    cfg = ExperimentConfig(
        spec=_generator_spec(field(config, "generator", dict), field(config, "r", int)),
        methods=tuple(map(_method, field(config, "methods", [dict]))),
        fit=_fit_config(config),
        n=field(config, "n", int),
        replicates=field(config, "replicates", int, 1),
        seed=field(config, "seed", int, 0),
        workers=field(config, "workers", int, 1),
        keep_datasets=field(config, "keep_datasets", bool, False),
        param_label=field(config, "param", str, ""),
    )
    out = Path(field(config, "out", str))
    rows = experiments.run_experiment(cfg, out)
    logger.info("wrote %d loss rows to %s", len(rows), out)


# each command's runner and the top-level fields it reads, besides "command"
_COMMANDS = {
    "simulate": (_cmd_simulate, ("r", "n", "replicates", "seed", "generator", "out")),
    "fit": (_cmd_fit, ("r", "input", "method", "fit", "K", "seed", "out")),
    "eval": (_cmd_eval, ("r", "inputs", "truth", "param", "out")),
    "cv": (_cmd_cv, ("r", "input", "grid", "fit", "K", "seed", "out")),
    "graph": (_cmd_graph, ("r", "out")),
    "split": (_cmd_split, ("r", "input", "test_size", "train_sizes", "resamples", "seed", "out")),
    "experiment": (_cmd_experiment, ("r", "n", "replicates", "seed", "generator", "methods", "fit", "K", "workers",
                                     "keep_datasets", "param", "out")),
}
COMMANDS = tuple(_COMMANDS)


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
    runner, known = _COMMANDS[command]
    _known(config, ("command", *known), command)
    if seed is not None:
        config["seed"] = seed
    if out is not None:
        config["out"] = str(out)
    runner(config)


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
