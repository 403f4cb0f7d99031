"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

The heavy desk-scale reproductions (criteria 7-9) share module-scoped
experiment runs; expect a few minutes of wall time for the whole module.
"""

import numpy as np
import pytest

from oracles import brute_log_normalizer, random_mixture, solve_phi_projected_gradient
from partialrank import (
    FitConfig,
    MissingTable,
    MixtureParams,
    Permutation,
    build_cayley_graph,
    fit,
    generate_dataset,
    log_normalizer,
    tilt_concentration_mechanism,
)
from partialrank.admm import solve_phi
from partialrank.experiments import ExperimentConfig, GeneratorSpec, run_experiment
from partialrank.mallows import mixture_pmf
from partialrank.missing import partial_prob_vector
from partialrank.perms import prefix_tables

SEED = 20260810


def report(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert passed, f"criterion {number} {name} failed{suffix}"


def median(values):
    return float(np.median(np.asarray(values, dtype=float)))


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_admm_matches_projected_gradient_oracle():
    graph = build_cayley_graph(3)
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(20):
        q = rng.random((6, 2)) * rng.uniform(1, 20)
        for lam in (0.0, 1.0, 10.0):
            result = solve_phi(q, graph, lam)
            _, oracle_obj = solve_phi_projected_gradient(q, graph.edges, lam, tol=1e-10)
            worst = max(worst, abs(result.objective - oracle_obj))
    report(1, "oracle equivalence", worst <= 1e-4, f"worst objective gap {worst:.2e}")


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_closed_form_limit_at_lambda_zero():
    graph = build_cayley_graph(4)
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for i in range(20):
        q = rng.random((24, 3)) * 5
        q[rng.random((24, 3)) < 0.3] = 0.0  # sprinkle empty cells
        q[rng.integers(24)] = 0.0           # and one massless vertex
        result = solve_phi(q, graph, 0.0)
        totals = q.sum(axis=1)
        positive = totals > 0
        closed = q[positive] / totals[positive, None]
        worst = max(worst, np.abs(result.phi.probs[positive] - closed).max())
    report(2, "closed-form NR limit", worst <= 1e-6, f"worst entry gap {worst:.2e}")


# -- criterion 3 -------------------------------------------------------------


def test_criterion_3_em_traces_never_increase():
    theta = MixtureParams.single(Permutation.identity(4), 1.0)
    mech = tilt_concentration_mechanism(1.0, 1.2, 0.7, Permutation.identity(4))
    worst = -np.inf
    for seed in range(100):
        dataset = generate_dataset(theta, mech, 200, rng_seed=SEED + seed)
        result = fit(dataset, FitConfig(lam=10.0, seed=seed))
        diffs = np.diff(np.array(result.trace))
        if diffs.size:
            worst = max(worst, float(diffs.max()))
    report(3, "EM monotonicity", worst <= 1e-8, f"worst trace increase {worst:.2e}")


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_combinatorial_exactness():
    rng = np.random.default_rng(SEED + 2)
    theta = random_mixture(5, 2, rng)
    phi = MissingTable(5, rng.dirichlet(np.ones(4), size=120))
    probs = partial_prob_vector(theta, phi)
    total_ok = probs.shape == (205,) and abs(probs.sum() - 1.0) <= 1e-10
    graph = build_cayley_graph(5)
    degrees = np.zeros(120, dtype=int)
    for u, v in graph.edges:
        degrees[u] += 1
        degrees[v] += 1
    graph_ok = graph.n_vertices == 120 and graph.n_edges == 240 and bool(np.all(degrees == 4))
    report(
        4,
        "combinatorial exactness",
        total_ok and graph_ok,
        f"sum deviation {abs(probs.sum() - 1.0):.2e}, {graph.n_vertices} vertices / {graph.n_edges} edges",
    )


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_normalizer_exactness():
    worst = 0.0
    for r in range(2, 8):
        for c in (0.1, 0.5, 1.0, 2.0, 5.0):
            worst = max(worst, abs(log_normalizer(c, r) - brute_log_normalizer(c, r)))
    report(5, "normalizer exactness", worst <= 1e-10, f"worst log gap {worst:.2e}")


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_tilted_marginal_identity():
    r, c, c_star, rate = 4, 1.0, 1.2, 0.5
    sigma0 = Permutation.identity(r)
    theta = MixtureParams.single(sigma0, c)
    mech = tilt_concentration_mechanism(c, c_star, rate, sigma0)
    non_binding = bool(np.all(mech.probs[:, -1] < 1.0))
    probs = partial_prob_vector(theta, mech)
    table = prefix_tables(r)
    complete_slice = probs[table.offsets[-2] :]
    tilted = mixture_pmf(MixtureParams.single(sigma0, c_star))
    aligned = np.array([tilted[members[0]] for members in table.members[-1]])
    gap = float(np.abs(complete_slice / complete_slice.sum() - aligned).max())
    report(
        6,
        "tilted-marginal identity",
        non_binding and gap <= 1e-10,
        f"max probability gap {gap:.2e}",
    )


# -- criteria 7 and 9 --------------------------------------------------------

DESK_METHODS = ({"name": "R", "lam": 10.0}, {"name": "ME"})


def tilt_experiment(c_star: float, out_dir, workers: int) -> ExperimentConfig:
    return ExperimentConfig(
        spec=GeneratorSpec(
            kind="tilt_concentration",
            r=5,
            params={"c": 1.0, "c_star": c_star, "R": 0.7},
        ),
        methods=DESK_METHODS,
        fit=FitConfig(lam=10.0),
        n=1000,
        replicates=20,
        seed=SEED,
        workers=workers,
        keep_datasets=True,
        param_label=f"c_star={c_star:g}",
    )


@pytest.fixture(scope="module")
def tilt_run_12(tmp_path_factory):
    out = tmp_path_factory.mktemp("tilt12_a")
    rows = run_experiment(tilt_experiment(1.2, out, workers=2), out)
    return out, rows


@pytest.fixture(scope="module")
def tilt_run_10(tmp_path_factory):
    out = tmp_path_factory.mktemp("tilt10")
    rows = run_experiment(tilt_experiment(1.0, out, workers=2), out)
    return out, rows


def test_criterion_7_concentration_tilt_ordering(tilt_run_12, tilt_run_10):
    _, rows_12 = tilt_run_12
    _, rows_10 = tilt_run_10
    med = {
        (label, c_star): median(
            [row.l_par for row in rows if row.method == label]
        )
        for c_star, rows in (("1.2", rows_12), ("1.0", rows_10))
        for label in ("R10", "ME")
    }
    non_mar_ok = med[("R10", "1.2")] < med[("ME", "1.2")]
    mar_ok = med[("ME", "1.0")] <= med[("R10", "1.0")] * 1.1
    report(
        7,
        "concentration-tilt ordering",
        non_mar_ok and mar_ok,
        "medians c*=1.2: R10 %.4f vs ME %.4f; c*=1.0: ME %.4f vs R10 %.4f"
        % (med[("R10", "1.2")], med[("ME", "1.2")], med[("ME", "1.0")], med[("R10", "1.0")]),
    )


def test_criterion_9_determinism_across_runs_and_schedules(tilt_run_12, tmp_path_factory):
    out_a, _ = tilt_run_12  # produced with two workers
    out_b = tmp_path_factory.mktemp("tilt12_b")
    run_experiment(tilt_experiment(1.2, out_b, workers=1), out_b)

    identical = True
    for index in range(20):
        name = f"dataset_{index:03d}.csv"
        identical &= (out_a / name).read_bytes() == (out_b / name).read_bytes()
    identical &= (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()

    def strip_runtime(path):
        # runtime_ms is wall-clock measurement, the one excluded field
        return "\n".join(",".join(line.split(",")[:-1]) for line in path.read_text().splitlines())

    identical &= strip_runtime(out_a / "report.csv") == strip_runtime(out_b / "report.csv")
    report(9, "byte-identical reruns", bool(identical))


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_mixture_tilt_classification(tmp_path_factory):
    out = tmp_path_factory.mktemp("mixture")
    cfg = ExperimentConfig(
        spec=GeneratorSpec(
            kind="tilt_mixture",
            r=5,
            params={
                # two well-separated components: identity and the preference
                # order of the ranking whose rank sequence is (3,2,5,4,1)
                "sigmas": [[1, 2, 3, 4, 5], [5, 2, 1, 4, 3]],
                "cs": [1.0, 1.0],
                "w": [0.5, 0.5],
                "w_star": [0.7, 0.3],
                "R": 0.7,
            },
        ),
        methods=DESK_METHODS,
        fit=FitConfig(lam=10.0, n_clusters=2),
        n=1000,
        replicates=20,
        seed=SEED + 8,
        workers=2,
        param_label="w_star1=0.7",
    )
    rows = run_experiment(cfg, out)
    med_r10 = median([r.classification_error for r in rows if r.method == "R10"])
    med_me = median([r.classification_error for r in rows if r.method == "ME"])
    report(
        8,
        "mixture-tilt classification",
        med_r10 < med_me,
        f"median classification error R10 {med_r10:.4f} vs ME {med_me:.4f}",
    )
