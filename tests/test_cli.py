import json
import math

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
from partialrank.cli import main
from partialrank.em import load_fit_json
from partialrank.experiments import _replicate_seeds
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
