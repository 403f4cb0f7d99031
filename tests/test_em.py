import json
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import fit_sequential, per_observation, random_mixture
from partialrank import (
    Dataset,
    DegenerateClusterError,
    DegenerateLikelihoodError,
    DomainError,
    FitConfig,
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
from partialrank.em import Responsibilities, load_fit_json, penalized_nll
from partialrank.mallows import mixture_pmf
from partialrank.perms import build_cayley_graph, compatible_set, index_of, kendall_distance, unindex


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


def make_resp(r, cluster_vertex, n=1):
    cluster_vertex = np.asarray(cluster_vertex, dtype=float)
    return Responsibilities(
        r=r,
        n=n,
        n_clusters=cluster_vertex.shape[0],
        q_table=np.zeros((cluster_vertex.shape[1], r - 1)),
        cluster_vertex=cluster_vertex,
        cluster_mass=cluster_vertex.sum(axis=1),
        nll=0.0,
        groups=None,
        block_weights=[],
    )


def brute_force_scores(r, weights):
    """Expected Kendall distance to every candidate location, by the scalar distance."""
    perms = [unindex(v, r) for v in range(len(weights))]
    return np.array(
        [sum(w * kendall_distance(p, sigma) for w, p in zip(weights, perms)) for sigma in perms]
    )


class TestMStepTheta:
    def test_point_mass_hits_concentration_cap(self):
        target = Permutation((2, 1, 3))
        mass = np.zeros((1, 6))
        mass[0, index_of(target)] = 5.0
        params = m_step_theta(make_resp(3, mass), Dataset.from_rankings(3, []), c_max=20.0)
        assert params.components[0].sigma == target
        assert params.components[0].c == pytest.approx(20.0, abs=1e-6)

    def test_recovers_generating_concentration(self):
        theta0 = MixtureParams.single(Permutation((2, 3, 1, 4)), 1.0)
        mass = mixture_pmf(theta0)[None, :] * 50.0
        params = m_step_theta(make_resp(4, mass), Dataset.from_rankings(4, []))
        assert params.components[0].sigma == theta0.components[0].sigma
        assert params.components[0].c == pytest.approx(1.0, abs=1e-6)

    def test_tie_breaks_lexicographically(self):
        n1 = Permutation((2, 1, 3))
        n2 = Permutation((1, 3, 2))
        mass = np.zeros((1, 6))
        mass[0, index_of(n1)] = 0.5
        mass[0, index_of(n2)] = 0.5
        params = m_step_theta(make_resp(3, mass), Dataset.from_rankings(3, []))
        # identity, n1, n2 all score 1; the smallest rank sequence wins
        assert params.components[0].sigma == Permutation.identity(3)

    def test_weights_are_mass_proportions(self):
        mass = np.zeros((2, 6))
        mass[0, 0] = 3.0
        mass[1, 5] = 1.0
        params = m_step_theta(make_resp(3, mass), Dataset.from_rankings(3, []))
        assert params.weights == pytest.approx((0.75, 0.25), abs=1e-12)

    def test_empty_cluster_raises(self):
        mass = np.zeros((2, 6))
        mass[0, 0] = 1.0
        with pytest.raises(DegenerateClusterError):
            m_step_theta(make_resp(3, mass), Dataset.from_rankings(3, []))

    def test_location_minimizes_brute_force_expected_distance(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            mass = rng.random((1, 24)) * rng.integers(0, 2, size=(1, 24))
            mass[0, rng.integers(24)] += 1.0
            params = m_step_theta(make_resp(4, mass), Dataset.from_rankings(4, []))
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
            params = m_step_theta(make_resp(4, mass), Dataset.from_rankings(4, []))
            assert index_of(params.components[0].sigma) == min(u, v)

    def test_concentration_is_an_interior_stationary_point(self):
        from partialrank.mallows import log_normalizer

        rng = np.random.default_rng(20)
        mass = rng.random((1, 24)) * 4
        params = m_step_theta(make_resp(4, mass), Dataset.from_rankings(4, []))
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
        config = FitConfig(
            lam=1e6,
            restarts=2,
            seed=1,
            admm_eps_primal=1e-6,
            admm_eps_dual=1e-6,
            admm_max_iter=3000,
        )
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
        tiny = FitConfig(
            lam=1e-12,
            restarts=2,
            seed=2,
            transition_iters=0,
            admm_eps_primal=1e-9,
            admm_eps_dual=1e-9,
            admm_max_iter=5000,
        )
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

    def test_empty_dataset_rejected(self):
        with pytest.raises(DomainError):
            fit(Dataset.from_rankings(3, []), FitConfig())


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
        with pytest.raises(DomainError):
            FitConfig(rho=0.0)
        with pytest.raises(DomainError):
            FitConfig(restarts=0)
        with pytest.raises(DomainError):
            FitConfig(em_tol=0.0)

    @pytest.mark.parametrize("name", ["lam", "rho", "em_tol", "admm_eps_primal", "admm_eps_dual", "c_min", "c_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(DomainError):
            FitConfig(**{name: value})

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

    @pytest.mark.parametrize("n", [-3, 2.5, True])
    def test_generate_dataset_rejects_bad_n(self, n):
        theta = MixtureParams.single(Permutation.identity(3), 1.0)
        mech = tilt_concentration_mechanism(1.0, 1.2, 0.7, Permutation.identity(3))
        with pytest.raises(DomainError, match="n must be"):
            generate_dataset(theta, mech, n, rng_seed=0)


def test_penalized_nll_adds_edge_penalty():
    theta = MixtureParams.single(Permutation.identity(3), 1.0)
    mech = tilt_concentration_mechanism(1.0, 1.2, 0.7, Permutation.identity(3))
    ds = generate_dataset(theta, mech, 40, rng_seed=13)
    rng = np.random.default_rng(14)
    phi = MissingTable(3, rng.dirichlet(np.ones(2), size=6))
    base = e_step(theta, phi, ds).nll
    assert penalized_nll(theta, phi, ds, 0.0) == base
    assert penalized_nll(theta, phi, ds, 2.5) > base


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
    assert penalized_nll(uniform_theta(3, 1.0), phi, ds, 0.0) == np.inf
    with pytest.raises(DegenerateLikelihoodError):
        e_step(uniform_theta(3, 1.0), phi, ds)


def test_best_run_ending_at_zero_likelihood_raises(monkeypatch):
    # a run whose last pair has zero likelihood returns no E-step; the fit
    # takes the posteriors from a fresh one, which must raise
    ds = Dataset.from_rankings(3, [TopTRanking((1,), 3)] * 4)
    probs = np.zeros((6, 2))
    probs[:, 1] = 1.0
    phi = MissingTable(3, probs)

    def ended(dataset, config, init_vertices, rng, fixed_phi, cap, job, restart):
        return uniform_theta(3, 1.0), phi, [np.inf], False
        yield  # a generator that finishes on its first advance

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
    """Restarts run in lockstep give bitwise what runs one after another give."""

    @pytest.fixture(scope="class")
    def datasets(self):
        mech = tilt_concentration_mechanism(1.0, 1.2, 0.7, Permutation.identity(4))
        one = generate_dataset(MixtureParams.single(Permutation.identity(4), 1.0), mech, 150, rng_seed=30)
        two = generate_dataset(random_mixture(4, 2, np.random.default_rng(31)), mech, 150, rng_seed=32)
        return {1: one, 2: two}

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("mode,lam", [("regularized", 10.0), ("regularized", 0.7), ("nr", 0.0), ("me", 10.0)])
    def test_fit_matches_restarts_run_one_by_one(self, datasets, k, mode, lam):
        config = FitConfig(n_clusters=k, lam=lam, restarts=4, seed=40 + k, em_max_iter=25)
        result = fit_me(datasets[k], config) if mode == "me" else fit(datasets[k], config)
        _assert_same_fit(result, fit_sequential(datasets[k], config, mode))

    def test_me_fit_does_not_depend_on_lam(self, datasets):
        # a run with a fixed phi scores the plain NLL: lam only echoes in the config
        config = FitConfig(restarts=3, seed=9, em_max_iter=20)
        at_zero, at_ten = fit_me(datasets[2], replace(config, lam=0.0)), fit_me(datasets[2], replace(config, lam=10.0))
        assert at_zero.theta == at_ten.theta
        assert np.array_equal(at_zero.phi.probs, at_ten.phi.probs)
        assert at_zero.trace == at_ten.trace
        assert np.array_equal(at_zero.posteriors, at_ten.posteriors)
        assert (at_zero.config.lam, at_ten.config.lam) == (0.0, 10.0)

    # ADMM capped at 3 iterations: every phi-step stops unconverged and returns
    # its last iterate, and once in this fit that iterate would raise the
    # surrogate, so EM keeps the previous phi
    unconverged = FitConfig(lam=10.0, restarts=3, seed=7, em_max_iter=10, admm_max_iter=3,
                            admm_eps_primal=1e-9, admm_eps_dual=1e-9)

    def test_unconverged_inner_solves_match(self, datasets):
        result = fit(datasets[1], self.unconverged)
        _assert_same_fit(result, fit_sequential(datasets[1], self.unconverged, "regularized"))
        assert np.diff(np.array(result.trace)).max() <= 1e-8

    def test_unconverged_solves_and_kept_phi_are_logged(self, datasets, caplog):
        with caplog.at_level(logging.DEBUG, logger="partialrank.em"):
            fit(datasets[1], self.unconverged)
        messages = [record.getMessage() for record in caplog.records if record.name == "partialrank.em"]
        unconverged = [m for m in messages if "phi-step unconverged after 3 ADMM iterations" in m]
        kept = [m for m in messages if "kept the previous phi" in m]
        assert unconverged and kept
        assert len(unconverged) + len(kept) == len(messages)
        # the 3 interleaved restarts each name themselves in their first line
        first = [m for m in unconverged if "EM iteration 1:" in m]
        assert sorted(m.split(",")[0] for m in first) == [f"job 0 restart {j}" for j in range(3)]

    shared = FitConfig(restarts=2, seed=1, em_max_iter=20)

    def jobs(self, datasets):
        return [(datasets[1], 10.0), (datasets[2], 1.0), (datasets[1], 0.0), (datasets[1], 100.0)]

    def test_driver_jobs_match_separate_fits(self, datasets):
        jobs = self.jobs(datasets)
        for batched, (dataset, lam) in zip(em._fit_batch(jobs, self.shared, 7), jobs):
            alone = fit(dataset, replace(self.shared, lam=lam))
            assert batched.to_json_dict() == alone.to_json_dict()
            assert np.array_equal(batched.posteriors, alone.posteriors)

    def test_each_lockstep_round_is_one_solve(self, datasets, monkeypatch):
        # every run starts at once, so there are as many rounds as the longest
        # run has phi-steps, and each round solves every pending request
        steps, sizes = [], []
        run_em, solve = em._run_em, admm.solve_phi_batch

        def counted(*args):
            index = len(steps)
            steps.append(0)
            run, solved = run_em(*args), None
            while True:
                try:
                    request = run.send(solved)
                except StopIteration as stop:
                    return stop.value
                steps[index] += 1
                solved = yield request

        def recording(q_tables, *args, **kwargs):
            sizes.append(len(q_tables))
            return solve(q_tables, *args, **kwargs)

        monkeypatch.setattr(em, "_run_em", counted)
        monkeypatch.setattr(admm, "solve_phi_batch", recording)
        em._fit_batch(self.jobs(datasets), self.shared, 7)
        assert len(steps) == 8 and steps[4:6] == [0, 0]  # the lam = 0 job never yields
        assert len(sizes) == max(steps)
        assert sum(sizes) == sum(steps)
        assert sizes[0] == 6

    def test_lower_restart_wins_a_tie_it_finishes_second(self, datasets, monkeypatch):
        # restart 2 ties restart 1 on the final objective but finishes a
        # lockstep round earlier; runs made one after another keep restart 1
        graph = build_cayley_graph(4)
        theta = MixtureParams.single(Permutation.identity(4), 1.0)
        phi = MissingTable.uniform(4)
        finals, delays = [5.0, 3.0, 3.0, 4.0], [0, 2, 1, 0]
        calls = iter(range(4))

        def fake_run_em(dataset, config, init_vertices, rng, fixed_phi, cap, job, restart):
            j = next(calls)

            def run():
                for _ in range(delays[j]):
                    yield np.ones((graph.n_vertices, 3)), phi.probs, 1.0
                return theta, phi, [finals[j]], True

            return run()

        monkeypatch.setattr(em, "_run_em", fake_run_em)
        result = fit(datasets[1], FitConfig(restarts=4))
        assert (result.restart, result.nll) == (1, 3.0)

    def test_live_runs_capped_by_members_per_call(self, datasets, monkeypatch):
        # with room for two members per solve, at most two runs are live and
        # no solve stacks more; the fits do not change
        jobs = [(datasets[1], 10.0), (datasets[2], 1.0)]
        config = FitConfig(restarts=3, seed=5, em_max_iter=15)
        sizes = []
        solve = admm.solve_phi_batch

        def recording(q_tables, *args, **kwargs):
            sizes.append(len(q_tables))
            return solve(q_tables, *args, **kwargs)

        monkeypatch.setattr(admm, "solve_phi_batch", recording)
        wide = em._fit_batch(jobs, config, 7)
        assert max(sizes) == len(jobs) * config.restarts
        sizes.clear()
        graph = build_cayley_graph(4)
        monkeypatch.setattr(admm, "_STATE_BYTES", 2 * 4 * graph.n_vertices * 3 * 3 * 8)
        assert admm.members_per_call(graph) == 2
        narrow = em._fit_batch(jobs, config, 7)
        assert max(sizes) == 2
        for a, b in zip(wide, narrow):
            assert a.to_json_dict() == b.to_json_dict()
            assert np.array_equal(a.posteriors, b.posteriors)
