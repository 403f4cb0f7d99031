import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from partialrank import (
    Dataset,
    FitConfig,
    MixtureParams,
    Permutation,
    TopTRanking,
    fit,
    generate_dataset,
    l_comp,
    tilt_concentration_mechanism,
)
from partialrank import cli, em, experiments
from partialrank.cli import main
from partialrank.em import load_fit_json
from partialrank.errors import DomainError
from partialrank.experiments import _replicate_seeds, resample_splits
from partialrank.missing import MissingTable
from partialrank.util import atomic_open, write_json


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def run_cli(config_path, *extra):
    return main(["run", "--config", str(config_path), *extra])


def strip_runtime(text: str) -> str:
    return "\n".join(",".join(line.split(",")[:-1]) for line in text.splitlines())


GENERATOR = {"kind": "tilt_concentration", "c": 1.0, "c_star": 1.2, "R": 0.7}


class TestIngest:
    def test_basic_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,items\n2,3>1\n")
        ds = Dataset.load_csv(path, r=4)
        assert ds.rankings == [TopTRanking((3, 1), 4)]

    def test_duplicate_items_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("t,items\n4,1>1>2>3\n")
        with pytest.raises(Exception, match="line 2"):
            Dataset.load_csv(path, r=5)

    def test_empty_file_warns(self, tmp_path, caplog):
        path = tmp_path / "d.csv"
        path.write_text("")
        with caplog.at_level("WARNING"):
            ds = Dataset.load_csv(path, r=4)
        assert len(ds) == 0


class TestGraphCommand:
    def test_writes_edge_csv(self, tmp_path):
        out = tmp_path / "edges.csv"
        cfg = write_config(tmp_path, "g.json", {"command": "graph", "r": 4, "out": str(out)})
        assert run_cli(cfg) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "src,dst"
        assert len(lines) == 1 + 24 * 3 // 2


class TestSimulateCommand:
    def test_deterministic_files(self, tmp_path):
        out = tmp_path / "sims"
        cfg = write_config(
            tmp_path,
            "s.json",
            {
                "command": "simulate",
                "r": 4,
                "n": 50,
                "replicates": 3,
                "seed": 9,
                "generator": GENERATOR,
                "out": str(out),
            },
        )
        assert run_cli(cfg) == 0
        files = sorted(out.glob("dataset_*.csv"))
        assert len(files) == 3
        first = [f.read_bytes() for f in files]
        assert run_cli(cfg) == 0
        assert [f.read_bytes() for f in sorted(out.glob("dataset_*.csv"))] == first

    def test_roundtrip_matches_library(self, tmp_path):
        out = tmp_path / "sims"
        cfg = write_config(
            tmp_path,
            "s.json",
            {
                "command": "simulate",
                "r": 4,
                "n": 40,
                "replicates": 2,
                "seed": 3,
                "generator": GENERATOR,
                "out": str(out),
            },
        )
        assert run_cli(cfg) == 0
        theta = MixtureParams.single(Permutation.identity(4), 1.0)
        mech = tilt_concentration_mechanism(1.0, 1.2, 0.7, Permutation.identity(4))
        for index, (data_seed, _) in enumerate(_replicate_seeds(3, 2)):
            expected = generate_dataset(theta, mech, 40, data_seed)
            loaded = Dataset.load_csv(out / f"dataset_{index:03d}.csv", 4)
            assert loaded.rankings == expected.rankings
            assert loaded.true_perms == expected.true_perms
            assert np.array_equal(loaded.true_clusters, expected.true_clusters)


@pytest.fixture()
def complete_dataset(tmp_path):
    theta = MixtureParams.single(Permutation((2, 3, 1, 4)), 1.3)
    row = np.zeros(3)
    row[-1] = 1.0
    ds = generate_dataset(theta, MissingTable.homogeneous(4, row), 120, rng_seed=5)
    path = tmp_path / "complete.csv"
    ds.save_csv(path)
    return path, ds


class TestFitAndEval:
    def test_fit_writes_json(self, tmp_path, complete_dataset):
        path, _ = complete_dataset
        out = tmp_path / "fit.json"
        cfg = write_config(
            tmp_path,
            "f.json",
            {
                "command": "fit",
                "r": 4,
                "input": str(path),
                "method": {"name": "NR"},
                "fit": {"restarts": 2},
                "seed": 1,
                "out": str(out),
            },
        )
        assert run_cli(cfg) == 0
        theta, phi, method = load_fit_json(out)
        assert method == "NR"
        assert theta.r == 4

    def test_complete_data_nr_matches_library_fit(self, tmp_path, complete_dataset):
        path, ds = complete_dataset
        fit_out = tmp_path / "fit.json"
        cfg = write_config(
            tmp_path,
            "f.json",
            {
                "command": "fit",
                "r": 4,
                "input": str(path),
                "method": {"name": "NR"},
                "fit": {"restarts": 2},
                "seed": 1,
                "out": str(fit_out),
            },
        )
        assert run_cli(cfg) == 0
        eval_out = tmp_path / "evaldir"
        truth_gen = {"kind": "tilt_concentration", "c": 1.3, "c_star": 1.3, "R": 1.0, "sigma0": [3, 1, 2, 4]}
        cfg_eval = write_config(
            tmp_path,
            "e.json",
            {
                "command": "eval",
                "r": 4,
                "inputs": [{"fit": str(fit_out)}],
                "truth": {"generator": truth_gen},
                "out": str(eval_out),
            },
        )
        assert run_cli(cfg_eval) == 0
        rows = (eval_out / "report.csv").read_text().splitlines()
        assert rows[0] == "method,replicate,param,l_par,l_comp,class_err,runtime_ms"
        got_l_comp = float(rows[1].split(",")[4])
        # missingness plays no role on complete data: the CLI pipeline must
        # score exactly like a direct library fit
        direct = fit(ds, FitConfig(lam=0.0, restarts=2, seed=1))
        theta_true = MixtureParams.single(Permutation((2, 3, 1, 4)), 1.3)
        assert got_l_comp == pytest.approx(l_comp(theta_true, direct.theta), abs=1e-12)

    def test_eval_empirical_truth(self, tmp_path, complete_dataset):
        path, ds = complete_dataset
        fit_out = tmp_path / "fit.json"
        cfg = write_config(
            tmp_path,
            "f.json",
            {
                "command": "fit",
                "r": 4,
                "input": str(path),
                "method": {"name": "ME"},
                "fit": {"restarts": 1},
                "seed": 2,
                "out": str(fit_out),
            },
        )
        assert run_cli(cfg) == 0
        eval_out = tmp_path / "evaldir"
        cfg_eval = write_config(
            tmp_path,
            "e.json",
            {
                "command": "eval",
                "r": 4,
                "inputs": [{"fit": str(fit_out)}],
                "truth": {"test": str(path)},
                "out": str(eval_out),
            },
        )
        assert run_cli(cfg_eval) == 0
        rows = (eval_out / "report.csv").read_text().splitlines()
        assert rows[1].split(",")[4] == ""  # no complete-ranking truth available


class TestCvCommand:
    def test_paper_grid_without_r1(self, tmp_path):
        theta = MixtureParams.single(Permutation.identity(3), 1.0)
        mech = tilt_concentration_mechanism(1.0, 1.2, 0.7, Permutation.identity(3))
        ds = generate_dataset(theta, mech, 60, rng_seed=4)
        data_path = tmp_path / "d.csv"
        ds.save_csv(data_path)
        out = tmp_path / "cvdir"
        cfg = write_config(
            tmp_path,
            "c.json",
            {
                "command": "cv",
                "r": 3,
                "input": str(data_path),
                "grid": [10, 100],
                "fit": {"restarts": 1, "em_max_iter": 25},
                "seed": 5,
                "out": str(out),
            },
        )
        assert run_cli(cfg) == 0
        scores = json.loads((out / "cv_scores.json").read_text())
        assert scores["best_lam"] in (10.0, 100.0)
        assert set(scores["scores"]) == {"10.0", "100.0"}
        theta_hat, phi_hat, method = load_fit_json(out / "refit.json")
        assert method == f"R{scores['best_lam']:g}"


class TestSplitCommand:
    def test_sizes(self, tmp_path):
        theta = MixtureParams.single(Permutation.identity(3), 1.0)
        mech = tilt_concentration_mechanism(1.0, 1.0, 0.7, Permutation.identity(3))
        ds = generate_dataset(theta, mech, 200, rng_seed=6)
        data_path = tmp_path / "d.csv"
        ds.save_csv(data_path)
        out = tmp_path / "splits"
        cfg = write_config(
            tmp_path,
            "sp.json",
            {
                "command": "split",
                "r": 3,
                "input": str(data_path),
                "test_size": 50,
                "train_sizes": [20, 100],
                "resamples": 3,
                "seed": 7,
                "out": str(out),
            },
        )
        assert run_cli(cfg) == 0
        for s in range(3):
            assert len(Dataset.load_csv(out / f"test_{s:02d}.csv", 3)) == 50
            assert len(Dataset.load_csv(out / f"train_20_{s:02d}.csv", 3)) == 20
            assert len(Dataset.load_csv(out / f"train_100_{s:02d}.csv", 3)) == 100

    @pytest.mark.parametrize("sizes", [(50, [2.9], 1), (50.0, [20], 1), (50, [20], 2.0), (50, [True], 1)])
    def test_library_rejects_non_integer_sizes(self, sizes):
        ds = Dataset(3, list(range(5)) * 20)
        with pytest.raises(DomainError, match="must be an integer"):
            resample_splits(ds, *sizes, seed=0)


class TestExperimentCommand:
    def test_parallel_matches_sequential(self, tmp_path):
        base = {
            "command": "experiment",
            "r": 3,
            "n": 60,
            "replicates": 3,
            "seed": 11,
            "generator": {"kind": "tilt_concentration", "c": 1.0, "c_star": 1.3, "R": 0.7},
            "methods": [{"name": "R", "lam": 10}, {"name": "ME"}],
            "fit": {"restarts": 2},
            "keep_datasets": True,
            "workers": 1,
        }
        seq_dir = tmp_path / "seq"
        par_dir = tmp_path / "par"
        cfg_seq = write_config(tmp_path, "seq.json", {**base, "out": str(seq_dir)})
        cfg_par = write_config(tmp_path, "par.json", {**base, "workers": 2, "out": str(par_dir)})
        assert run_cli(cfg_seq) == 0
        assert run_cli(cfg_par) == 0
        for name in ("dataset_000.csv", "dataset_001.csv", "dataset_002.csv", "summary.json"):
            assert (seq_dir / name).read_bytes() == (par_dir / name).read_bytes()
        seq_report = strip_runtime((seq_dir / "report.csv").read_text())
        par_report = strip_runtime((par_dir / "report.csv").read_text())
        assert seq_report == par_report
        assert "R10" in seq_report and "ME" in seq_report


class TestErrors:
    def test_unknown_command(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {"command": "nope"})
        assert run_cli(cfg) == 2

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code = main(["run", "--config", str(path)])
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert code == 2 and err["code"] == 2 and err["error"] == "ConfigError"

    def test_missing_input_file(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "f.json",
            {
                "command": "fit",
                "r": 3,
                "input": str(tmp_path / "absent.csv"),
                "out": str(tmp_path / "o.json"),
            },
        )
        assert run_cli(cfg) == 9

    def test_bad_data_reports_line(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("t,items\n2,1>1\n")
        cfg = write_config(
            tmp_path,
            "f.json",
            {"command": "fit", "r": 3, "input": str(data), "out": str(tmp_path / "o.json")},
        )
        code = main(["run", "--config", str(cfg)])
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert code == 3 and err["line"] == 2

    def test_seed_override_changes_output(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        payload = {
            "command": "simulate",
            "r": 3,
            "n": 30,
            "replicates": 1,
            "seed": 1,
            "generator": {"kind": "tilt_concentration", "c": 1.0, "c_star": 1.0, "R": 0.5},
            "out": str(out_a),
        }
        cfg = write_config(tmp_path, "s.json", payload)
        assert run_cli(cfg) == 0
        assert run_cli(cfg, "--seed", "2", "--out", str(out_b)) == 0
        assert (out_a / "dataset_000.csv").read_bytes() != (out_b / "dataset_000.csv").read_bytes()

    def test_identical_paths_rejected(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("t,items\n1,2\n")
        cfg = write_config(
            tmp_path,
            "f.json",
            {"command": "fit", "r": 3, "input": str(data), "out": str(data)},
        )
        assert run_cli(cfg) == 2

    def fit_config(self, tmp_path, **fields):
        data = tmp_path / "d.csv"
        data.write_text("t,items\n1,2\n2,1>3\n")
        payload = {"command": "fit", "r": 3, "input": str(data), "out": str(tmp_path / "o.json"), **fields}
        return write_config(tmp_path, "f.json", payload)

    @pytest.mark.parametrize("fields", [{"method": {"name": "R", "lam": math.nan}}, {"fit": {"em_tol": math.nan}}])
    def test_non_finite_fit_setting_exits_5(self, tmp_path, fields):
        cfg = self.fit_config(tmp_path, **fields)
        assert "NaN" in cfg.read_text()  # Python's JSON reader accepts it
        assert run_cli(cfg) == 5
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.parametrize(
        "fields",
        [
            {"command": "cv", "grid": "10"},
            {"fit": [1]},
            {"fit": {"restarts": "2"}},
            {"method": "R"},
            {"method": {"name": "R", "lam": "ten"}},
            {"method": {"name": "R", "lam": None}},
            {"method": {"name": "RCV", "grid": [1.0, "10"]}},
        ],
        ids=["cv grid string", "fit list", "fit field string", "method string", "lam string", "lam null", "rcv grid entry"],
    )
    def test_wrong_type_or_shape_exits_2(self, tmp_path, fields):
        assert run_cli(self.fit_config(tmp_path, **fields)) == 2
        assert not (tmp_path / "o.json").exists()

    def test_mixture_lists_of_different_lengths_exit_2(self, tmp_path):
        generator = {
            "kind": "tilt_mixture",
            "sigmas": [[1, 2, 3], [3, 2, 1]],
            "cs": [1.0, 1.0, 1.0],
            "w": [0.5, 0.5],
            "w_star": [0.6, 0.4],
            "R": 0.5,
        }
        out = tmp_path / "sim"
        cfg = write_config(
            tmp_path, "s.json", {"command": "simulate", "r": 3, "n": 10, "generator": generator, "out": str(out)}
        )
        assert run_cli(cfg) == 2
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize(
        "generator",
        [
            {"kind": "tilt_mixture", "sigmas": [[1, 2, 3], [3, 2, 1]], "cs": [1.0, 1.0], "w": [math.nan, math.nan],
             "w_star": [0.6, 0.4], "R": 0.5},
            {**GENERATOR, "c_star": math.nan},
        ],
        ids=["w", "c_star"],
    )
    def test_nan_generator_setting_exits_5_without_a_dataset(self, tmp_path, generator):
        out = tmp_path / "sim"
        cfg = write_config(
            tmp_path, "s.json", {"command": "simulate", "r": 3, "n": 10, "generator": generator, "out": str(out)}
        )
        assert "NaN" in cfg.read_text()
        assert run_cli(cfg) == 5
        assert not out.exists()

    @pytest.mark.parametrize("fields", [{"fit": {"restarts": 2.5}}, {"seed": -1}, {"K": 1.5}])
    def test_non_integer_or_negative_count_exits_5(self, tmp_path, fields):
        assert run_cli(self.fit_config(tmp_path, **fields)) == 5

    def test_negative_n_exits_5(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "s.json",
            {"command": "simulate", "r": 3, "n": -3, "generator": GENERATOR, "out": str(tmp_path / "sim")},
        )
        assert run_cli(cfg) == 5

    def test_sigma0_over_other_item_count_exits_4(self, tmp_path):
        out = tmp_path / "sim"
        generator = {**GENERATOR, "sigma0": [2, 1, 3]}
        cfg = write_config(
            tmp_path, "s.json", {"command": "simulate", "r": 4, "n": 10, "generator": generator, "out": str(out)}
        )
        assert run_cli(cfg) == 4
        assert not out.exists()

    def test_split_without_train_sizes_exits_5(self, tmp_path):
        cfg = self.fit_config(tmp_path, command="split", test_size=1, train_sizes=[], resamples=1)
        assert run_cli(cfg) == 5
        assert not (tmp_path / "o.json").exists()

    def test_undecodable_input_exits_3(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_bytes(b"t,items\n1,\xff\n")
        cfg = write_config(
            tmp_path, "f.json", {"command": "fit", "r": 3, "input": str(data), "out": str(tmp_path / "o.json")}
        )
        assert run_cli(cfg) == 3
        assert json.loads(capsys.readouterr().err.splitlines()[-1])["error"] == "DataFormatError"

    def test_r_without_lam_exits_2(self, tmp_path, capsys):
        assert run_cli(self.fit_config(tmp_path, method={"name": "R"})) == 2
        assert "'lam'" in json.loads(capsys.readouterr().err.splitlines()[-1])["message"]

    def test_generator_without_c_exits_2(self, tmp_path, capsys):
        generator = {key: value for key, value in GENERATOR.items() if key != "c"}
        cfg = write_config(
            tmp_path,
            "s.json",
            {"command": "simulate", "r": 3, "n": 10, "generator": generator, "out": str(tmp_path / "sim")},
        )
        assert run_cli(cfg) == 2
        assert "'c'" in json.loads(capsys.readouterr().err.splitlines()[-1])["message"]

    def test_eval_truth_with_generator_and_test_exits_2(self, tmp_path, table_inputs, capsys):
        # the test file does not exist: the config is refused before any file is read
        config = table_config("eval", table_inputs, tmp_path / "out")
        config["truth"] = {"generator": GENERATOR, "test": str(tmp_path / "missing-file.csv")}
        assert run_cli(write_config(tmp_path, "config.json", config)) == 2
        message = json.loads(capsys.readouterr().err.splitlines()[-1])["message"]
        assert message == "truth must supply exactly one of a generator and a test dataset"
        assert not (tmp_path / "out" / "report.csv").exists()

    @pytest.mark.parametrize("inputs", [["x"], [[["fit", "a.json"]]]], ids=["string entry", "list of pairs"])
    def test_eval_input_that_is_not_an_object_exits_2(self, tmp_path, inputs):
        out = tmp_path / "ev"
        cfg = write_config(
            tmp_path,
            "e.json",
            {"command": "eval", "r": 3, "inputs": inputs, "truth": {"generator": GENERATOR}, "out": str(out)},
        )
        assert run_cli(cfg) == 2
        assert not out.exists()

    def test_experiment_checks_every_method_before_fitting(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a fit ran before the config was checked")

        monkeypatch.setattr(experiments, "fit", refuse)
        monkeypatch.setattr(experiments, "fit_me", refuse)
        out = tmp_path / "exp"
        payload = {
            "command": "experiment",
            "r": 3,
            "n": 20,
            "generator": GENERATOR,
            "methods": [{"name": "NR"}, {"name": "R"}],
            "fit": {"restarts": 1},
            "out": str(out),
        }
        assert run_cli(write_config(tmp_path, "x.json", payload)) == 2
        assert "'lam'" in json.loads(capsys.readouterr().err.splitlines()[-1])["message"]
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("command", ["graph", "simulate", "fit", "eval", "cv", "split", "experiment"])
    def test_leftover_cap_field_exits_2(self, tmp_path, table_inputs, capsys, command):
        # the enumeration limit is a constant, so a "cap" field is an unknown one
        config = table_config(command, table_inputs, tmp_path / "out") | {"cap": 8}
        assert run_cli(write_config(tmp_path, "config.json", config)) == 2
        message = json.loads(capsys.readouterr().err.splitlines()[-1])["message"]
        assert message == f"unknown {command} config fields: ['cap']"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize(
        "command, where, key, edit",
        [
            ("simulate", "simulate", "replicate", lambda c: c.update(replicate=3)),
            ("simulate", "generator", "sigma_0", lambda c: c["generator"].update(sigma_0=[2, 1, 3])),
            ("fit", "method", "grid", lambda c: c.update(method={"name": "R", "lam": 10, "grid": [1, 10]})),
            ("eval", "truth", "tset", lambda c: c["truth"].update(tset=c["truth"]["test"])),
            ("eval", "inputs entry", "datset", lambda c: c["inputs"][0].update(datset=c["truth"]["test"])),
        ],
        ids=["top level", "generator", "method", "truth", "inputs entry"],
    )
    def test_unknown_field_exits_2(self, tmp_path, table_inputs, capsys, command, where, key, edit):
        config = json.loads(json.dumps(table_config(command, table_inputs, tmp_path / "out")))
        edit(config)
        assert run_cli(write_config(tmp_path, "config.json", config)) == 2
        message = json.loads(capsys.readouterr().err.splitlines()[-1])["message"]
        assert message == f"unknown {where} config fields: ['{key}']"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("problem", ["not json", "no theta", "wrong type"])
    def test_malformed_fit_file_exits_3(self, tmp_path, table_inputs, capsys, problem):
        payload = json.loads((table_inputs / "fit.json").read_text())
        if problem == "no theta":
            del payload["theta"]
        elif problem == "wrong type":
            payload["theta"]["components"][0]["c"] = "1.0"
        bad = tmp_path / "bad.json"
        bad.write_text("not json" if problem == "not json" else json.dumps(payload))
        config = table_config("eval", table_inputs, tmp_path / "out")
        config["inputs"] = [{"fit": str(bad)}]
        assert run_cli(write_config(tmp_path, "config.json", config)) == 3
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "DataFormatError" and str(bad) in err["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json", "config.json"]

    def test_fit_file_with_nan_phi_exits_5(self, tmp_path, table_inputs, capsys):
        payload = json.loads((table_inputs / "fit.json").read_text())
        payload["phi"] = [[math.nan] * len(row) for row in payload["phi"]]
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(payload))
        config = table_config("eval", table_inputs, tmp_path / "out")
        config["inputs"] = [{"fit": str(bad)}]
        assert run_cli(write_config(tmp_path, "config.json", config)) == 5
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert (err["error"], err["message"]) == ("DomainError", "entries must lie in [0, 1]")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "nan.json"]

    def test_fit_file_whose_weights_do_not_sum_to_one_exits_5(self, tmp_path, table_inputs, capsys):
        # a K = 2 file with both weights 0.3: checked as written, not renormalized
        payload = json.loads((table_inputs / "fit.json").read_text())
        component = payload["theta"]["components"][0]
        payload["theta"]["components"] = [{**component, "w": 0.3}, {**component, "w": 0.3}]
        bad = tmp_path / "weights.json"
        bad.write_text(json.dumps(payload))
        config = table_config("eval", table_inputs, tmp_path / "out")
        config["inputs"] = [{"fit": str(bad)}]
        assert run_cli(write_config(tmp_path, "config.json", config)) == 5
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "DomainError" and "weights must sum to 1" in err["message"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "weights.json"]

    @pytest.mark.parametrize("key", ["rho", "admm_eps_primal", "admm_eps_dual"])
    def test_removed_admm_field_exits_2(self, tmp_path, capsys, key):
        # the phi-step has no ADMM penalty or residual tolerances any more
        assert run_cli(self.fit_config(tmp_path, fit={key: 1.0})) == 2
        message = json.loads(capsys.readouterr().err.splitlines()[-1])["message"]
        assert message == f"unknown fit config fields: ['{key}']"
        assert not (tmp_path / "o.json").exists()


@pytest.fixture(scope="module")
def table_inputs(tmp_path_factory):
    """A dataset and a fit of it, for the config table's commands to read."""
    root = tmp_path_factory.mktemp("inputs")
    theta = MixtureParams.single(Permutation.identity(3), 1.0)
    ds = generate_dataset(theta, tilt_concentration_mechanism(1.0, 1.2, 0.7, Permutation.identity(3)), 40, 4)
    ds.save_csv(root / "d.csv")
    fit(ds, FitConfig(lam=0.0, restarts=1)).save_json(root / "fit.json")
    return root


def table_config(command: str, inputs: Path, out: Path) -> dict:
    """A valid config for each command; the table breaks one field of it."""
    data, fits = str(inputs / "d.csv"), {"restarts": 1, "em_max_iter": 5}
    return {
        "graph": {"r": 3},
        "simulate": {"r": 3, "n": 20, "replicates": 1, "seed": 0, "generator": GENERATOR},
        "fit": {"r": 3, "input": data, "method": {"name": "NR"}, "fit": fits, "seed": 0},
        "eval": {"r": 3, "inputs": [{"fit": str(inputs / "fit.json"), "replicate": 0}], "truth": {"test": data}},
        "cv": {"r": 3, "input": data, "grid": [1, 10], "fit": fits, "seed": 0},
        "split": {"r": 3, "input": data, "test_size": 10, "train_sizes": [5], "resamples": 1, "seed": 0},
        "experiment": {
            "r": 3,
            "n": 20,
            "generator": GENERATOR,
            "methods": [{"name": "NR"}],
            "fit": fits,
            "replicates": 1,
            "seed": 0,
            "workers": 1,
        },
    }[command] | {"command": command, "out": str(out)}


INTEGER_FIELDS = [
    ("graph", "r"),
    ("simulate", "r"),
    ("simulate", "n"),
    ("simulate", "replicates"),
    ("simulate", "seed"),
    ("fit", "r"),
    ("fit", "seed"),
    ("fit", "K"),
    ("eval", "r"),
    ("eval", "replicate"),
    ("cv", "r"),
    ("cv", "seed"),
    ("split", "r"),
    ("split", "test_size"),
    ("split", "train_sizes"),
    ("split", "resamples"),
    ("split", "seed"),
    ("experiment", "r"),
    ("experiment", "n"),
    ("experiment", "replicates"),
    ("experiment", "seed"),
    ("experiment", "workers"),
]
OTHER_FIELDS = [
    *((command, "out", 5, 2) for command in ("graph", "simulate", "fit", "eval", "cv", "split", "experiment")),
    ("experiment", "keep_datasets", "false", 2),
    ("experiment", "param", 3, 2),
    ("eval", "param", 3, 2),
]


class TestConfigTable:
    @pytest.mark.parametrize("command", ["graph", "simulate", "fit", "eval", "cv", "split", "experiment"])
    def test_table_configs_run(self, tmp_path, table_inputs, command):
        out = tmp_path / "out"
        assert run_cli(write_config(tmp_path, "config.json", table_config(command, table_inputs, out))) == 0
        assert out.exists()

    @pytest.mark.parametrize(
        "command, key, value, code",
        [
            (command, key, value, code)
            for command, key in INTEGER_FIELDS
            for value, code in ((4.9, 5), ("5", 2), (True, 2), (-1, 5))
        ]
        + OTHER_FIELDS,
    )
    def test_bad_field_exits_without_output(self, tmp_path, table_inputs, command, key, value, code):
        config = table_config(command, table_inputs, tmp_path / "out")
        if key == "train_sizes":
            config[key] = [5, value]
        elif key == "replicate":
            config["inputs"][0][key] = value
        else:
            config[key] = value
        assert run_cli(write_config(tmp_path, "config.json", config)) == code
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def record_fit_seeds(monkeypatch) -> list[int]:
    """The seed of every fit the fit driver runs from here on, in order."""
    seeds, driver = [], em._fit

    def recorded(dataset, config, *args):
        seeds.append(config.seed)
        return driver(dataset, config, *args)

    monkeypatch.setattr(em, "_fit", recorded)
    return seeds


class TestOneFieldPerFitSetting:
    """``K``, the seed and lam each have one config field, outside the ``fit`` object."""

    @pytest.mark.parametrize("command", ["fit", "cv", "experiment"])
    @pytest.mark.parametrize("key", ["n_clusters", "seed", "lam"])
    def test_fit_field_owned_elsewhere_exits_2(self, tmp_path, table_inputs, capsys, command, key):
        config = table_config(command, table_inputs, tmp_path / "out")
        config["fit"] = {**config["fit"], key: 1}
        assert run_cli(write_config(tmp_path, "config.json", config)) == 2
        message = json.loads(capsys.readouterr().err.splitlines()[-1])["message"]
        assert message == f"unknown fit config fields: ['{key}']"
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("method", [{"name": "R", "lam": 1}, {"name": "NR"}, {"name": "ME"}, None])
    def test_seed_override_seeds_the_fit(self, tmp_path, table_inputs, monkeypatch, method):
        out = tmp_path / "fit.json"
        config = table_config("fit", table_inputs, out) | {"seed": 1, "method": method}
        if method is None:
            del config["method"]
        seeds = record_fit_seeds(monkeypatch)
        assert run_cli(write_config(tmp_path, "config.json", config), "--seed", "7") == 0
        assert seeds == [7]
        assert json.loads(out.read_text())["config"]["seed"] == 7

    def test_seed_override_seeds_every_cv_fit(self, tmp_path, table_inputs, monkeypatch):
        out = tmp_path / "cv"
        config = table_config("cv", table_inputs, out) | {"seed": 1}
        seeds = record_fit_seeds(monkeypatch)
        assert run_cli(write_config(tmp_path, "config.json", config), "--seed", "7") == 0
        assert seeds == [7] * 5  # each grid value's two folds, then the refit
        assert json.loads((out / "refit.json").read_text())["config"]["seed"] == 7

    def test_fit_without_method_is_r_at_the_default_lam(self, tmp_path, table_inputs):
        out = tmp_path / "fit.json"
        config = table_config("fit", table_inputs, out) | {"K": 2}
        del config["method"]
        assert run_cli(write_config(tmp_path, "config.json", config)) == 0
        payload = json.loads(out.read_text())
        assert payload["method"] == f"R{FitConfig.lam:g}" == "R10"
        assert (payload["config"]["lam"], payload["config"]["n_clusters"]) == (10.0, 2)
        assert len(payload["theta"]["components"]) == 2


def test_readme_lists_every_fit_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    listed = re.search(r"`fit` \(an object\s+setting[^:]*: ([^)]*)\)", readme).group(1)
    assert re.findall(r"`(\w+)`", listed) == list(cli._FIT_FIELDS)
    owned = {"n_clusters", "seed", "lam"}
    assert sorted(cli._FIT_FIELDS + tuple(owned)) == sorted(f.name for f in dataclasses.fields(FitConfig))



class TestAtomicWriters:
    def test_failed_json_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"a": 1})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            write_json(path, {"a": 1, "b": object()})  # fails after "a" is written
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_failed_csv_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "d.csv"
        Dataset(3, [0, 1]).save_csv(path)
        before = path.read_bytes()
        with pytest.raises(RuntimeError):
            with atomic_open(path) as fh:
                fh.write("t,items\n")
                raise RuntimeError("interrupted")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["d.csv"]
