import json
import logging
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    brute_force_scores,
    cayley_edges,
    edge_penalty_loop,
    fit_sequential,
    per_observation,
    phi_step_bounds,
    random_mixture,
)
from partialrank import (
    Dataset,
    DegenerateClusterError,
    DegenerateLikelihoodError,
    DomainError,
    FitConfig,
    MallowsParams,
    MissingTable,
    MixtureParams,
    Permutation,
    TopTRanking,
    complete_pmf,
    e_step,
    fit,
    fit_me,
    m_step_theta,
    tilt_concentration_mechanism,
    generate_dataset,
)
from partialrank import admm, em
from partialrank.admm import GAP_TOL
from partialrank.em import Responsibilities, load_fit_json
from partialrank.mallows import mixture_pmf
from partialrank.perms import build_cayley_graph, compatible_set, distances_from, index_of, unindex


def uniform_theta(r, c=1e-12):
    return MixtureParams.single(Permutation.identity(r), c)


class TestEStep:
    def test_singleton_support(self):
        ds = Dataset.from_rankings(4, [TopTRanking((2, 4, 1), 4)])
        resp = e_step(uniform_theta(4, 1.0), MissingTable.uniform(4), ds)
        members, weights = per_observation(resp, 0)
        assert members.shape == (1,)
        assert weights.shape == (1, 1)
        assert weights[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_uniform_symmetry(self):
        ds = Dataset.from_rankings(4, [TopTRanking((3, 1), 4)])
        resp = e_step(uniform_theta(4), MissingTable.uniform(4), ds)
        _, weights = per_observation(resp, 0)
        assert np.allclose(weights, 0.5, atol=1e-9)

    def test_hand_weights_r3(self):
        ds = Dataset.from_rankings(3, [TopTRanking((1,), 3)])
        theta = MixtureParams.single(Permutation.identity(3), 1.0)
        resp = e_step(theta, MissingTable.uniform(3), ds)
        members, weights = per_observation(resp, 0)
        expected = np.array([1.0, math.exp(-1.0)]) / (1.0 + math.exp(-1.0))
        by_distance = sorted(zip(members, weights[0]), key=lambda mv: mv[0])
        assert by_distance[0][1] == pytest.approx(expected[0], rel=1e-12)
        assert by_distance[1][1] == pytest.approx(expected[1], rel=1e-12)

    def test_normalization_support_and_aggregates(self):
        rng = np.random.default_rng(0)
        theta = random_mixture(4, 2, rng)
        mech = tilt_concentration_mechanism(1.0, 1.2, 0.7, Permutation.identity(4))
        ds = generate_dataset(theta, mech, 150, rng_seed=1)
        phi = MissingTable(4, rng.dirichlet(np.ones(3), size=24))
        resp = e_step(theta, phi, ds)
        assert resp.q_table.sum() == pytest.approx(len(ds), rel=1e-12)
        assert np.allclose(resp.posteriors().sum(axis=1), 1.0, atol=1e-10)
        for i in range(0, len(ds), 17):
            members, weights = per_observation(resp, i)
            assert weights.sum() == pytest.approx(1.0, abs=1e-10)
            assert set(int(v) for v in members) == {
                index_of(p) for p in compatible_set(ds.rankings[i])
            }
        # aggregate identity: q_table[v, t] collects every observation of length t
        rebuilt = np.zeros_like(resp.q_table)
        for i, tau in enumerate(ds.rankings):
            members, weights = per_observation(resp, i)
            rebuilt[members, tau.t - 1] += weights.sum(axis=0)
        assert np.abs(rebuilt - resp.q_table).max() < 1e-9

    def test_zero_likelihood_names_observation(self):
        ds = Dataset.from_rankings(3, [TopTRanking((1,), 3), TopTRanking((2,), 3)])
        probs = np.full((6, 2), 0.5)
        # kill length-1 mass on the compatible set of observation 1 (item 2 first)
        for p in compatible_set(TopTRanking((2,), 3)):
            probs[index_of(p)] = [0.0, 1.0]
        phi = MissingTable(3, probs)
        with pytest.raises(DegenerateLikelihoodError, match="observation 1"):
            e_step(uniform_theta(3, 1.0), phi, ds)


def make_resp(r, cluster_vertex):
    cluster_vertex = np.asarray(cluster_vertex, dtype=float)
    return Responsibilities(
        r=r,
        n_clusters=cluster_vertex.shape[0],
        q_table=np.zeros((cluster_vertex.shape[1], r - 1)),
        cluster_vertex=cluster_vertex,
        cluster_mass=cluster_vertex.sum(axis=1),
        nll=0.0,
        groups=None,
        block_weights=[],
    )


class TestMStepTheta:
    def test_point_mass_hits_concentration_cap(self):
        target = Permutation((2, 1, 3))
        mass = np.zeros((1, 6))
        mass[0, index_of(target)] = 5.0
        params = m_step_theta(make_resp(3, mass), c_max=20.0)
        assert params.components[0].sigma == target
        assert params.components[0].c == pytest.approx(20.0, abs=1e-6)

    def test_recovers_generating_concentration(self):
        theta0 = MixtureParams.single(Permutation((2, 3, 1, 4)), 1.0)
        mass = mixture_pmf(theta0)[None, :] * 50.0
        params = m_step_theta(make_resp(4, mass))
        assert params.components[0].sigma == theta0.components[0].sigma
        assert params.components[0].c == pytest.approx(1.0, abs=1e-6)

    def test_tie_breaks_lexicographically(self):
        n1 = Permutation((2, 1, 3))
        n2 = Permutation((1, 3, 2))
        mass = np.zeros((1, 6))
        mass[0, index_of(n1)] = 0.5
        mass[0, index_of(n2)] = 0.5
        params = m_step_theta(make_resp(3, mass))
        # identity, n1, n2 all score 1; the smallest rank sequence wins
        assert params.components[0].sigma == Permutation.identity(3)

    def test_weights_are_mass_proportions(self):
        mass = np.zeros((2, 6))
        mass[0, 0] = 3.0
        mass[1, 5] = 1.0
        params = m_step_theta(make_resp(3, mass))
        assert params.weights == pytest.approx((0.75, 0.25), abs=1e-12)

    def test_empty_cluster_raises(self):
        mass = np.zeros((2, 6))
        mass[0, 0] = 1.0
        with pytest.raises(DegenerateClusterError):
            m_step_theta(make_resp(3, mass))

    def test_location_minimizes_brute_force_expected_distance(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            mass = rng.random((1, 24)) * rng.integers(0, 2, size=(1, 24))
            mass[0, rng.integers(24)] += 1.0
            params = m_step_theta(make_resp(4, mass))
            scores = brute_force_scores(4, mass[0])
            assert index_of(params.components[0].sigma) == int(np.argmin(scores))

    def test_exact_tie_between_adjacent_rankings_takes_smaller_index(self):
        nbrs = build_cayley_graph(4).neighbors
        for v in (5, 17):
            u = int(nbrs[v, 1])
            mass = np.zeros((1, 24))
            mass[0, [u, v]] = 1.0
            scores = brute_force_scores(4, mass[0])
            assert scores[u] == scores[v] == scores.min() == 1.0
            params = m_step_theta(make_resp(4, mass))
            assert index_of(params.components[0].sigma) == min(u, v)

    @pytest.mark.parametrize("r", [5, 6, 7])
    def test_location_and_expected_distance_match_a_reference(self, r, monkeypatch):
        # the pair-order product against the brute-force oracle at r = 5, and
        # against a loop over distances_from (checked against the scalar
        # distance in test_perms) at r = 6 and 7; the expected distance is the
        # one m_step_theta hands to the concentration step
        seen = []
        concentration = em._concentration
        monkeypatch.setattr(em, "_concentration", lambda d, *rest: seen.append(d) or concentration(d, *rest))
        rng = np.random.default_rng(80 + r)
        n_vertices = math.factorial(r)
        for _ in range(2):
            mass = rng.random((1, n_vertices)) * (rng.random((1, n_vertices)) < 0.3)
            mass[0, rng.integers(n_vertices)] += 1.0
            params = m_step_theta(make_resp(r, mass))
            if r == 5:
                scores = brute_force_scores(r, mass[0])
            else:
                scores = np.array([mass[0] @ distances_from(r, v) for v in range(n_vertices)])
            assert index_of(params.components[0].sigma) == int(np.argmin(scores))
            assert seen[-1] == pytest.approx(scores.min(), rel=1e-12)

    def test_concentration_is_an_interior_stationary_point(self):
        from partialrank.mallows import log_normalizer

        rng = np.random.default_rng(20)
        mass = rng.random((1, 24)) * 4
        params = m_step_theta(make_resp(4, mass))
        c_hat = params.components[0].c
        assert 1e-4 < c_hat < 20.0
        expected_dist = brute_force_scores(4, mass[0]).min()
        total = mass.sum()

        def objective(c):
            return c * expected_dist + total * log_normalizer(c, 4)

        delta = 1e-4
        left = (objective(c_hat) - objective(c_hat - delta)) / delta
        right = (objective(c_hat + delta) - objective(c_hat)) / delta
        assert left <= 0 <= right  # derivative changes sign at the minimizer

    @pytest.mark.parametrize("r", [3, 4, 5, 6, 7])
    def test_concentration_solves_the_closed_form_moment_equation(self, r):
        # for a Mallows model E_c[d] has a closed form (Fligner & Verducci
        # 1986); at an interior optimum c solves E_c[d] = the mean distance,
        # to rounding
        rng = np.random.default_rng(600 + r)
        n_vertices = math.factorial(r)
        truth = MixtureParams.single(unindex(int(rng.integers(n_vertices)), r), 0.7)
        mass = mixture_pmf(truth)[None, :] * rng.uniform(50.0, 150.0, size=(1, n_vertices))
        component = m_step_theta(make_resp(r, mass)).components[0]
        c = component.c
        assert 1e-4 < c < 20.0
        mean = float(mass[0] @ distances_from(r, index_of(component.sigma))) / float(mass.sum())
        j = np.arange(1, r)

        def moment(c):
            return float(np.sum(np.exp(-c) / -np.expm1(-c) - (j + 1) * np.exp(-(j + 1) * c) / -np.expm1(-(j + 1) * c)))

        assert moment(c) == pytest.approx(mean, rel=1e-14)

    @pytest.mark.parametrize("r", [3, 5, 7])
    def test_concentration_clamps_at_both_bounds(self, r):
        # mass at the location alone: E_c[d] = 0 has no finite root, so c_max;
        # mass spread uniformly: the mean distance r(r-1)/4 is E_0[d], above
        # every E_c[d] with c > 0, so c_min
        n_vertices = math.factorial(r)
        point = np.zeros((1, n_vertices))
        point[0, 4] = 30.0
        assert m_step_theta(make_resp(r, point), c_max=15.0).components[0].c == 15.0
        flat = np.full((1, n_vertices), 2.0)
        assert m_step_theta(make_resp(r, flat), c_min=0.01).components[0].c == 0.01
        # mass from a Mallows model at c = 3: its root is c = 3, so a bound on either side of it is the answer
        spread = mixture_pmf(MixtureParams.single(unindex(3, r), 3.0))[None, :] * 100.0
        assert m_step_theta(make_resp(r, spread), c_max=2.0).components[0].c == 2.0
        assert m_step_theta(make_resp(r, spread), c_min=4.0).components[0].c == 4.0


class TestFit:
    def test_identical_complete_rankings(self):
        target = Permutation((3, 1, 2, 4))
        tau = TopTRanking(target.inverse[:3], 4)
        ds = Dataset.from_rankings(4, [tau] * 30)
        result = fit(ds, FitConfig(lam=0.0, restarts=3, seed=0))
        assert result.theta.components[0].sigma == target
        row = result.phi.probs[index_of(target)]
        assert row[-1] == 1.0 and row[:-1].sum() == 0.0
        assert result.converged

    def test_huge_lambda_flattens_rows(self):
        theta = MixtureParams.single(Permutation.identity(4), 1.0)
        mech = tilt_concentration_mechanism(1.0, 1.3, 0.7, Permutation.identity(4))
        ds = generate_dataset(theta, mech, 300, rng_seed=5)
        config = FitConfig(lam=1e6, restarts=2, seed=1)
        result = fit(ds, config)
        rows = result.phi.probs
        spread = np.abs(rows[:, None, :] - rows[None, :, :]).max()
        assert spread < 1e-2

    def test_traces_never_increase(self):
        theta = MixtureParams.single(Permutation.identity(3), 1.0)
        mech = tilt_concentration_mechanism(1.0, 0.8, 0.6, Permutation.identity(3))
        for seed in range(10):
            ds = generate_dataset(theta, mech, 80, rng_seed=seed)
            result = fit(ds, FitConfig(lam=10.0, restarts=2, seed=seed))
            diffs = np.diff(np.array(result.trace))
            assert diffs.max() <= 1e-8

    def test_lam_zero_limit_continuity(self):
        theta = MixtureParams.single(Permutation.identity(4), 1.0)
        mech = tilt_concentration_mechanism(1.0, 1.2, 0.7, Permutation.identity(4))
        ds = generate_dataset(theta, mech, 200, rng_seed=9)
        base = FitConfig(lam=0.0, restarts=2, seed=2, transition_iters=0)
        tiny = FitConfig(lam=1e-12, restarts=2, seed=2, transition_iters=0)
        phi_zero = fit(ds, base).phi.probs
        phi_tiny = fit(ds, tiny).phi.probs
        assert np.abs(phi_zero - phi_tiny).max() < 1e-4

    def test_deterministic_and_json_roundtrip(self, tmp_path):
        theta = MixtureParams.single(Permutation.identity(3), 1.0)
        mech = tilt_concentration_mechanism(1.0, 1.2, 0.7, Permutation.identity(3))
        ds = generate_dataset(theta, mech, 60, rng_seed=3)
        config = FitConfig(lam=1.0, restarts=2, seed=4)
        a, b = fit(ds, config), fit(ds, config)
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        a.save_json(path_a)
        b.save_json(path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        theta_loaded, phi_loaded, method = load_fit_json(path_a)
        assert method == "R1"
        assert theta_loaded.components[0].sigma == a.theta.components[0].sigma
        assert np.array_equal(phi_loaded.probs, a.phi.probs)
        payload = json.loads(path_a.read_text())
        assert payload["config"]["lam"] == 1.0
        assert len(payload["trace"]) == len(a.trace)

    def test_load_fit_json_checks_the_weights_as_written(self, tmp_path):
        ds = Dataset.from_rankings(3, [TopTRanking((1, 2), 3), TopTRanking((2,), 3)] * 10)
        path = tmp_path / "fit.json"
        fit(ds, FitConfig(n_clusters=2, lam=0.0, restarts=1, seed=1)).save_json(path)
        payload = json.loads(path.read_text())
        for component in payload["theta"]["components"]:
            component["w"] = 0.3
        path.write_text(json.dumps(payload))
        with pytest.raises(DomainError, match="weights must sum to 1"):
            load_fit_json(path)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DomainError):
            fit(Dataset.from_rankings(3, []), FitConfig())

    @pytest.mark.parametrize("fitter", [fit, fit_me])
    def test_empty_dataset_rejected_before_any_work(self, fitter):
        with pytest.raises(DomainError, match="^cannot fit an empty dataset$"):
            fitter(Dataset(3, []), FitConfig())


class TestFitMe:
    def test_phi_is_empirical_length_histogram(self):
        theta = MixtureParams.single(Permutation.identity(4), 1.0)
        phi_true = MissingTable.homogeneous(4, [0.3, 0.2, 0.5])
        ds = generate_dataset(theta, phi_true, 120, rng_seed=6)
        result = fit_me(ds, FitConfig(restarts=2, seed=5))
        counts = np.bincount(ds.lengths, minlength=4)[1:]
        expected = counts / counts.sum()
        assert np.array_equal(result.phi.probs, np.tile(expected, (24, 1)))

    def test_complete_data_matches_unregularized_fit(self):
        theta = MixtureParams.single(Permutation((2, 3, 1, 4)), 1.2)
        row = np.zeros(3)
        row[-1] = 1.0
        ds = generate_dataset(theta, MissingTable.homogeneous(4, row), 150, rng_seed=7)
        me = fit_me(ds, FitConfig(restarts=2, seed=6))
        nr = fit(ds, FitConfig(lam=0.0, restarts=2, seed=6))
        assert np.all(me.phi.probs[:, -1] == 1.0)
        assert me.theta.components[0].sigma == nr.theta.components[0].sigma
        assert me.theta.components[0].c == pytest.approx(nr.theta.components[0].c, abs=1e-6)

    def test_likelihood_decomposes_under_homogeneity(self):
        rng = np.random.default_rng(10)
        theta = random_mixture(4, 2, rng)
        g = np.array([0.25, 0.35, 0.4])
        phi = MissingTable.homogeneous(4, g)
        mech = tilt_concentration_mechanism(1.0, 1.0, 0.6, Permutation.identity(4))
        ds = generate_dataset(theta, mech, 60, rng_seed=8)
        joint = e_step(theta, phi, ds).nll
        missing_part = -sum(math.log(g[tau.t - 1]) for tau in ds.rankings)
        ranking_part = -sum(
            math.log(sum(complete_pmf(p, theta) for p in compatible_set(tau)))
            for tau in ds.rankings
        )
        assert joint == pytest.approx(missing_part + ranking_part, abs=1e-10)

    def test_trace_monotone(self):
        theta = MixtureParams.single(Permutation.identity(3), 1.0)
        mech = tilt_concentration_mechanism(1.0, 1.2, 0.7, Permutation.identity(3))
        ds = generate_dataset(theta, mech, 100, rng_seed=11)
        result = fit_me(ds, FitConfig(restarts=3, seed=12))
        assert np.diff(np.array(result.trace)).max() <= 1e-8


class TestFitConfig:
    def test_validation(self):
        with pytest.raises(DomainError):
            FitConfig(lam=-1.0)
        with pytest.raises(TypeError):
            FitConfig(rho=1.0)  # no ADMM penalty parameter any more
        with pytest.raises(DomainError):
            FitConfig(restarts=0)
        with pytest.raises(DomainError):
            FitConfig(em_tol=0.0)

    @pytest.mark.parametrize("name", ["lam", "em_tol", "c_min", "c_max"])
    # math.isfinite raised OverflowError on an int too large for a float
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, pytest.param(10**400, id="huge int")])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(DomainError, match=name):
            FitConfig(**{name: value})

    @pytest.mark.parametrize("name", ["lam", "em_tol", "c_min", "c_max"])
    @pytest.mark.parametrize("value", ["10", None, [1.0], True, np.bool_(True)])
    def test_non_real_or_bool_settings_rejected(self, name, value):
        # a bool would be echoed as true in the fit JSON, and FitConfig(lam=True) labelled R1
        with pytest.raises(DomainError, match=name):
            FitConfig(**{name: value})

    def test_real_settings_kept_as_written(self):
        config = FitConfig(lam=10, em_tol=np.float64(0.5), c_min=1, c_max=20)
        assert (type(config.lam), type(config.em_tol), type(config.c_min)) == (int, np.float64, int)

    @pytest.mark.parametrize(
        "name", ["n_clusters", "em_max_iter", "admm_max_iter", "restarts", "transition_iters", "seed"]
    )
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "2", None])
    def test_non_integer_counts_rejected(self, name, value):
        with pytest.raises(DomainError, match=name):
            FitConfig(**{name: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed"):
            FitConfig(seed=-1)

    @pytest.mark.parametrize(
        "name", ["n_clusters", "em_max_iter", "admm_max_iter", "restarts", "transition_iters", "seed"]
    )
    def test_numpy_counts_stored_as_python_ints(self, name):
        assert type(getattr(FitConfig(**{name: np.int64(2)}), name)) is int

    def test_numpy_seed_fit_saves(self, tmp_path):
        ds = Dataset.from_rankings(3, [TopTRanking((1, 2), 3), TopTRanking((2,), 3)] * 5)
        path = tmp_path / "fit.json"
        fit(ds, FitConfig(lam=0.0, restarts=1, seed=np.int64(3))).save_json(path)
        assert '"seed": 3' in path.read_text()
        assert json.loads(path.read_text())["config"]["seed"] == 3

    @pytest.mark.parametrize("n", [-3, 2.5, True])
    def test_generate_dataset_rejects_bad_n(self, n):
        theta = MixtureParams.single(Permutation.identity(3), 1.0)
        mech = tilt_concentration_mechanism(1.0, 1.2, 0.7, Permutation.identity(3))
        with pytest.raises(DomainError, match="n must be"):
            generate_dataset(theta, mech, n, rng_seed=0)


def test_penalized_nll_adds_edge_penalty():
    # a regularized fit scores its last pair by the E-step's NLL plus lam times the edge penalty
    # at its phi, which EM takes from the phi-step's report
    theta = MixtureParams.single(Permutation.identity(4), 1.0)
    mech = tilt_concentration_mechanism(1.0, 1.2, 0.7, Permutation.identity(4))
    ds = generate_dataset(theta, mech, 60, rng_seed=13)
    edges = cayley_edges(4)
    for lam in (0.5, 2.5, 10.0):
        result = fit(ds, FitConfig(lam=lam, restarts=2, seed=14))
        penalty = lam * edge_penalty_loop(result.phi.probs, edges)
        assert penalty > 0
        assert result.trace[-1] == pytest.approx(e_step(result.theta, result.phi, ds).nll + penalty, rel=1e-12)
    phi = MissingTable(4, np.random.default_rng(14).dirichlet(np.ones(3), size=24))
    base = e_step(theta, phi, ds).nll
    assert em._scored(theta, phi, ds, 0.0)[1] == base
    assert em._scored(theta, phi, ds, 2.5)[1] == base + 2.5


def test_e_step_nll_matches_brute_force():
    rng = np.random.default_rng(15)
    theta = random_mixture(4, 2, rng)
    phi = MissingTable(4, rng.dirichlet(np.ones(3), size=24))
    mech = tilt_concentration_mechanism(1.0, 1.2, 0.7, Permutation.identity(4))
    ds = generate_dataset(theta, mech, 50, rng_seed=16)
    expected = -sum(
        math.log(sum(complete_pmf(p, theta) * phi.probs[index_of(p), tau.t - 1] for p in compatible_set(tau)))
        for tau in ds.rankings
    )
    assert e_step(theta, phi, ds).nll == pytest.approx(expected, rel=1e-12)


def test_penalized_nll_is_infinite_at_zero_likelihood():
    ds = Dataset.from_rankings(3, [TopTRanking((1,), 3)] * 4)
    probs = np.zeros((6, 2))
    probs[:, 1] = 1.0  # no vertex ever stops after one item
    phi = MissingTable(3, probs)
    assert em._scored(uniform_theta(3, 1.0), phi, ds, 0.0)[1] == np.inf
    with pytest.raises(DegenerateLikelihoodError):
        e_step(uniform_theta(3, 1.0), phi, ds)


def test_best_run_ending_at_zero_likelihood_raises(monkeypatch):
    # a run whose last pair has zero likelihood returns no E-step, and a fit
    # whose best run is such a run has no posteriors to give
    ds = Dataset.from_rankings(3, [TopTRanking((1,), 3)] * 4)
    probs = np.zeros((6, 2))
    probs[:, 1] = 1.0
    phi = MissingTable(3, probs)

    def ended(dataset, config, init_vertices, rng, fixed_phi, restart):
        return uniform_theta(3, 1.0), phi, [np.inf], False, None

    monkeypatch.setattr(em, "_run_em", ended)
    with pytest.raises(DegenerateLikelihoodError):
        em.fit(ds, FitConfig(lam=0.0, restarts=2))


def _assert_same_fit(result, reference):
    assert result.restart == reference["restart"]
    assert result.theta == reference["theta"]
    assert np.array_equal(result.phi.probs, reference["phi"].probs)
    assert result.nll == reference["nll"]
    assert result.trace == reference["trace"]
    assert result.converged == reference["converged"]
    assert np.array_equal(result.posteriors, reference["posteriors"])


class TestLockstep:
    """Restarts and fold fits, which once ran in lockstep, run one after another:
    every fit is bitwise what ``oracles.fit_sequential`` gives."""

    @pytest.fixture(scope="class")
    def datasets(self):
        mech = tilt_concentration_mechanism(1.0, 1.2, 0.7, Permutation.identity(4))
        one = generate_dataset(MixtureParams.single(Permutation.identity(4), 1.0), mech, 150, rng_seed=30)
        two = generate_dataset(random_mixture(4, 2, np.random.default_rng(31)), mech, 150, rng_seed=32)
        # every length occurs, so at r = 5 the phi-steps run on every column
        every = MissingTable.homogeneous(5, [0.4, 0.3, 0.2, 0.1])
        full = generate_dataset(MixtureParams.single(Permutation.identity(5), 1.0), every, 200, rng_seed=33)
        return {1: one, 2: two, "full": full}

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("mode,lam", [("regularized", 10.0), ("regularized", 0.7), ("nr", 0.0), ("me", 10.0)])
    def test_fit_matches_restarts_run_one_by_one(self, datasets, k, mode, lam):
        config = FitConfig(n_clusters=k, lam=lam, restarts=4, seed=40 + k, em_max_iter=25)
        result = fit_me(datasets[k], config) if mode == "me" else fit(datasets[k], config)
        _assert_same_fit(result, fit_sequential(datasets[k], config, mode))

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("lam", [10.0, 0.7])
    def test_full_support_fit_matches_restarts_run_one_by_one(self, datasets, k, lam, monkeypatch):
        observed, solve = [], admm.solve_phi
        monkeypatch.setattr(admm, "solve_phi", lambda q, *args, **kw: observed.append(q.any(axis=0).sum())
                            or solve(q, *args, **kw))
        config = FitConfig(n_clusters=k, lam=lam, restarts=4, seed=50 + k, em_max_iter=25)
        result = fit(datasets["full"], config)
        monkeypatch.undo()
        assert observed and set(observed) == {4}
        _assert_same_fit(result, fit_sequential(datasets["full"], config, "regularized"))

    def test_me_fit_does_not_depend_on_lam(self, datasets):
        # a run with a fixed phi scores the plain NLL: lam only echoes in the config
        config = FitConfig(restarts=3, seed=9, em_max_iter=20)
        at_zero, at_ten = fit_me(datasets[2], replace(config, lam=0.0)), fit_me(datasets[2], replace(config, lam=10.0))
        assert at_zero.theta == at_ten.theta
        assert np.array_equal(at_zero.phi.probs, at_ten.phi.probs)
        assert at_zero.trace == at_ten.trace
        assert np.array_equal(at_zero.posteriors, at_ten.posteriors)
        assert (at_zero.config.lam, at_ten.config.lam) == (0.0, 10.0)

    # one Newton step per phi-step: every phi-step stops uncertified and returns its last iterate
    unconverged = FitConfig(lam=10.0, restarts=3, seed=7, em_max_iter=10, admm_max_iter=1)

    def test_unconverged_inner_solves_match(self, datasets):
        result = fit(datasets[1], self.unconverged)
        _assert_same_fit(result, fit_sequential(datasets[1], self.unconverged, "regularized"))
        assert np.diff(np.array(result.trace)).max() <= 1e-8

    def test_unconverged_solves_are_logged(self, datasets, caplog):
        with caplog.at_level(logging.DEBUG, logger="partialrank.em"):
            fit(datasets[1], self.unconverged)
        messages = [record.getMessage() for record in caplog.records if record.name == "partialrank.em"]
        assert messages and all("phi-step uncertified after 1 Newton steps" in m for m in messages)
        # the restarts each name themselves in their first line
        first = [m for m in messages if "EM iteration 1:" in m]
        assert sorted(m.split(",")[0] for m in first) == [f"restart {j}" for j in range(3)]

    def test_lower_restart_wins_a_tie(self, datasets, monkeypatch):
        # restarts 1 and 2 tie on the final objective; the first one is kept
        theta = MixtureParams.single(Permutation.identity(4), 1.0)
        phi = MissingTable.uniform(4)
        finals = iter([5.0, 3.0, 3.0, 4.0])

        def fake_run_em(dataset, config, init_vertices, rng, fixed_phi, restart):
            return theta, phi, [next(finals)], True, e_step(theta, phi, dataset)

        monkeypatch.setattr(em, "_run_em", fake_run_em)
        result = fit(datasets[1], FitConfig(restarts=4))
        assert (result.restart, result.nll) == (1, 3.0)


class TestCertifiedFits:
    """Every phi-step of a regularized fit ends certified: the independent
    ``oracles.phi_step_bounds`` reads a relative gap of at most ``GAP_TOL``."""

    @pytest.mark.parametrize("r,lam", [(5, 1.0), (5, 10.0), (5, 100.0), (7, 10.0)])
    @pytest.mark.parametrize("data", ["binary", "general"])
    def test_every_phi_step_is_certified(self, r, lam, data, monkeypatch):
        sigma = Permutation.identity(r)
        if data == "binary":  # the paper's generator: only lengths 1 and r-1 occur
            mech = tilt_concentration_mechanism(1.0, 1.2, 0.7, sigma)
        else:  # every length occurs, weighted (r-1, ..., 1)
            weights = np.arange(r - 1, 0, -1, dtype=float)
            mech = MissingTable.homogeneous(r, weights / weights.sum())
        ds = generate_dataset(MixtureParams.single(sigma, 1.0), mech, 1000 if r == 5 else 400, rng_seed=3)
        requests, solve = [], admm.solve_phi

        def recorded(q, graph, lam, **kw):
            result = solve(q, graph, lam, **kw)
            requests.append((q, graph, lam, result))
            return result

        monkeypatch.setattr(admm, "solve_phi", recorded)
        fit(ds, FitConfig(lam=lam, restarts=1, seed=3, em_max_iter=8 if r == 5 else 3))
        assert requests
        for q, graph, lam, result in requests:
            assert result.converged
            primal, dual = phi_step_bounds(result.phi.probs, q, cayley_edges(graph.r), lam)
            assert primal == pytest.approx(result.objective, rel=1e-12)
            assert (primal - dual) / abs(primal) <= GAP_TOL


class TestRelabeling:
    """Relabeling the items by a bijection g maps vertex v to ``image[v]``.

    Kendall distance counts discordant item pairs, so it is unchanged; the
    E-step's NLL is unchanged and its per-vertex tables move by ``image``,
    and the location step returns the relabeled location. The vertex sums run
    in another order, so agreement is to 1e-9 relative, not bitwise.
    """

    @staticmethod
    def relabeled_pair(r, seed=None, g=None):
        """Data at r from ``seed`` (default r), and its image under the bijection g (default drawn)."""
        seed = r if seed is None else seed
        rng = np.random.default_rng(300 + seed)
        g = rng.permutation(r) + 1 if g is None else np.asarray(g)

        def move(p: Permutation) -> Permutation:
            return Permutation.from_ordering([int(g[item - 1]) for item in p.inverse])

        ranks = np.array([unindex(v, r).ranks for v in range(math.factorial(r))])
        image = np.array([index_of(move(Permutation(tuple(row)))) for row in ranks.tolist()])
        theta = MixtureParams(
            (MallowsParams(unindex(11, r), 1.3), MallowsParams(unindex(4 * r + 7, r), 0.8)), (0.6, 0.4)
        )
        probs = rng.dirichlet(np.ones(r - 1), size=len(image))  # every length is observed
        ds = generate_dataset(theta, MissingTable(r, probs), 1500, seed)
        moved_probs = np.empty_like(probs)
        moved_probs[image] = probs
        moved_theta = MixtureParams(tuple(MallowsParams(move(c.sigma), c.c) for c in theta.components), theta.weights)
        moved_ds = Dataset.from_rankings(
            r,
            [TopTRanking(tuple(int(g[i - 1]) for i in tau.items), r) for tau in ds.rankings],
            [move(p) for p in ds.true_perms],
            ds.true_clusters,
        )
        plain = (theta, MissingTable(r, probs), ds)
        moved = (moved_theta, MissingTable(r, moved_probs), moved_ds)
        return plain, moved, image, ranks

    @staticmethod
    def assert_e_step_equivariant(plain, moved, image):
        a, b = e_step(*plain), e_step(*moved)
        assert b.nll == pytest.approx(a.nll, rel=1e-9)
        assert np.allclose(b.q_table[image], a.q_table, rtol=1e-9, atol=0)
        assert np.allclose(b.cluster_vertex[:, image], a.cluster_vertex, rtol=1e-9, atol=0)
        assert np.allclose(b.posteriors(), a.posteriors(), rtol=1e-9, atol=0)

    @pytest.mark.parametrize("r", [6, 7])
    def test_e_step_is_equivariant(self, r):
        plain, moved, image, _ = self.relabeled_pair(r)
        self.assert_e_step_equivariant(plain, moved, image)

    @given(st.data())
    def test_e_step_is_equivariant_for_drawn_relabelings(self, data):
        r = data.draw(st.sampled_from([4, 5]), label="r")
        g = data.draw(st.permutations(range(1, r + 1)), label="g")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        plain, moved, image, _ = self.relabeled_pair(r, seed, g)
        self.assert_e_step_equivariant(plain, moved, image)

    @pytest.mark.parametrize("r", [6, 7])
    def test_m_step_theta_location_is_equivariant(self, r):
        plain, moved, image, ranks = self.relabeled_pair(r)
        a, b = e_step(*plain), e_step(*moved)
        theta_a, theta_b = m_step_theta(a), m_step_theta(b)
        # expected distances by pair masses: a location that puts item i ahead
        # of item j disagrees with the mass that puts j ahead of i
        ahead = ranks[:, :, None] < ranks[:, None, :]
        for k in range(2):
            pair_mass = np.einsum("v,vij->ij", a.cluster_vertex[k], ahead)
            scores = np.where(ahead, pair_mass.T, 0.0).sum(axis=(1, 2))
            location = index_of(theta_a.components[k].sigma)
            assert scores[location] == pytest.approx(scores.min(), rel=1e-12)
            assert np.sum(scores <= scores.min() * (1 + 1e-9)) == 1  # a unique argmin
            assert index_of(theta_b.components[k].sigma) == image[location]
        assert theta_b.weights == pytest.approx(theta_a.weights, rel=1e-9)

    def test_fit_is_equivariant_at_r6(self, monkeypatch):
        # binary-generator data (lengths 1 and 5 only, so each phi-step runs
        # on those two columns) fitted, then its relabeling fitted from the
        # relabeled initial locations: the transition proposals draw neighbor
        # slots, which relabeling keeps, so the second fit is the relabeled
        # first one. Sums run in another order, so the fits agree to rounding:
        # the concentration step solves its moment equation to rounding, and
        # seven relabelings gave c within 1.1e-15, traces within 4.6e-16 and
        # phi within 1.0e-14, relative
        r = 6
        rng = np.random.default_rng(306)
        g = rng.permutation(r) + 1

        def move(p: Permutation) -> Permutation:
            return Permutation.from_ordering([int(g[item - 1]) for item in p.inverse])

        image = np.array([index_of(move(unindex(v, r))) for v in range(math.factorial(r))])
        sigma0 = unindex(100, r)
        mech = tilt_concentration_mechanism(1.0, 1.2, 0.7, sigma0)
        ds = generate_dataset(MixtureParams.single(sigma0, 1.0), mech, 800, 6)
        assert [block.t for block in ds.groups().blocks] == [1, 5]
        moved_ds = Dataset.from_rankings(r, [TopTRanking(tuple(int(g[i - 1]) for i in tau.items), r)
                                             for tau in ds.rankings])
        config = FitConfig(lam=10.0, restarts=2, seed=8, em_max_iter=12)
        inits, initial_locations = [], em._initial_locations
        monkeypatch.setattr(em, "_initial_locations", lambda *args: inits.append(initial_locations(*args)) or inits[-1])
        plain = fit(ds, config)
        monkeypatch.setattr(em, "_initial_locations", lambda *args: [tuple(int(image[v]) for v in p) for p in inits[0]])
        moved = fit(moved_ds, config)
        assert len(moved.trace) == len(plain.trace) > 3 and moved.restart == plain.restart
        assert [c.sigma for c in moved.theta.components] == [move(c.sigma) for c in plain.theta.components]
        assert [c.c for c in moved.theta.components] == pytest.approx([c.c for c in plain.theta.components], rel=1e-12)
        assert moved.trace == pytest.approx(plain.trace, rel=1e-12)
        assert np.allclose(moved.phi.probs[image], plain.phi.probs, rtol=1e-11, atol=0)
