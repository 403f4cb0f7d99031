from dataclasses import replace

import pytest

from partialrank import FitConfig
from partialrank import experiments
from partialrank.experiments import ExperimentConfig, GeneratorSpec, run_experiment


class RecordingPool:
    """An in-process stand-in for ``ProcessPoolExecutor`` that records its worker count."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, payloads):
        return map(fn, payloads)


def _without_runtime(path):
    # runtime_ms, the last column, is wall-clock time
    return [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]


@pytest.mark.parametrize("workers,replicates,started", [(64, 2, [2]), (3, 5, [3]), (8, 1, [])])
def test_pool_starts_no_more_workers_than_replicates(tmp_path, monkeypatch, workers, replicates, started):
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
    cfg = ExperimentConfig(
        spec=GeneratorSpec(kind="tilt_concentration", r=4, params={"c": 1.0, "c_star": 1.2, "R": 0.7}),
        methods=({"name": "NR"},),
        fit=FitConfig(restarts=1, em_max_iter=3),
        n=60,
        replicates=replicates,
        seed=3,
        workers=workers,
        keep_datasets=True,
    )
    pooled, alone = tmp_path / "pooled", tmp_path / "alone"
    run_experiment(cfg, pooled)
    assert RecordingPool.sizes == started
    run_experiment(replace(cfg, workers=1), alone)
    assert RecordingPool.sizes == started
    names = sorted(p.name for p in pooled.iterdir())
    assert names == sorted(p.name for p in alone.iterdir())
    for name in names:
        if name != "report.csv":
            assert (pooled / name).read_bytes() == (alone / name).read_bytes()
    assert _without_runtime(pooled / "report.csv") == _without_runtime(alone / "report.csv")
