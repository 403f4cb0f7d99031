import itertools
from dataclasses import replace

import numpy as np
import pytest

from oracles import random_mixture
from partialrank import (
    Dataset,
    DomainError,
    FitConfig,
    MissingTable,
    MixtureParams,
    Permutation,
    TopTRanking,
    classification_error,
    complete_pmf,
    cross_validate,
    fit,
    generate_dataset,
    l_comp,
    l_par,
    l_par_empirical,
    tilt_concentration_mechanism,
)
from partialrank import losses as losses_mod
from partialrank.losses import LossReport
from partialrank.mallows import mixture_pmf
from partialrank.missing import enumerate_partial_rankings, partial_prob_vector
from partialrank.perms import compatible_set


def uniformish(r):
    return MixtureParams.single(Permutation.identity(r), 1e-12)


class TestLPar:
    def test_zero_on_equal(self):
        rng = np.random.default_rng(0)
        theta = random_mixture(3, 2, rng)
        phi = MissingTable(3, rng.dirichlet(np.ones(2), size=6))
        assert l_par(theta, phi, theta, phi) == 0.0

    def test_bounded_by_two(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            a, b = random_mixture(3, 1, rng), random_mixture(3, 2, rng)
            pa = MissingTable(3, rng.dirichlet(np.ones(2), size=6))
            pb = MissingTable(3, rng.dirichlet(np.ones(2), size=6))
            value = l_par(a, pa, b, pb)
            assert 0.0 <= value <= 2.0

    def test_hand_enumeration_r3(self):
        theta_true = uniformish(3)
        theta_hat = MixtureParams.single(Permutation.identity(3), 1.0)
        phi = MissingTable.uniform(3)
        expected = 0.0
        for tau in enumerate_partial_rankings(3):
            p_true = 0.5 * sum(complete_pmf(p, theta_true) for p in compatible_set(tau))
            p_hat = 0.5 * sum(complete_pmf(p, theta_hat) for p in compatible_set(tau))
            expected += abs(p_true - p_hat)
        assert l_par(theta_true, phi, theta_hat, phi) == pytest.approx(expected, abs=1e-12)

    def test_mar_reduction_to_length_marginals(self):
        rng = np.random.default_rng(2)
        theta_a, theta_b = random_mixture(3, 1, rng), random_mixture(3, 2, rng)
        g = np.array([0.4, 0.6])
        phi = MissingTable.homogeneous(3, g)
        pa, pb = mixture_pmf(theta_a), mixture_pmf(theta_b)
        expected = 0.0
        for tau in enumerate_partial_rankings(3):
            members = [p for p in compatible_set(tau)]
            diff = sum(complete_pmf(p, theta_a) - complete_pmf(p, theta_b) for p in members)
            expected += g[tau.t - 1] * abs(diff)
        assert l_par(theta_a, phi, theta_b, phi) == pytest.approx(expected, abs=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        models = [
            (random_mixture(3, 1, rng), MissingTable(3, rng.dirichlet(np.ones(2), size=6)))
            for _ in range(3)
        ]
        (ta, fa), (tb, fb), (tc, fc) = models
        assert l_par(ta, fa, tc, fc) <= l_par(ta, fa, tb, fb) + l_par(tb, fb, tc, fc) + 1e-12


class TestLParEmpirical:
    def test_large_sample_from_model_scores_small(self):
        theta = MixtureParams.single(Permutation.identity(3), 1.0)
        mech = tilt_concentration_mechanism(1.0, 1.0, 0.6, Permutation.identity(3))
        ds = generate_dataset(theta, mech, 40_000, rng_seed=1)
        assert l_par_empirical(ds, theta, mech) < 0.05

    def test_disjoint_supports_score_two(self):
        # model mass concentrated on complete observations of one ranking,
        # test data on a different single partial ranking
        theta = MixtureParams.single(Permutation.identity(3), 20.0)
        row = np.zeros(2)
        row[-1] = 1.0
        phi = MissingTable.homogeneous(3, row)
        test = Dataset.from_rankings(3, [TopTRanking((3, 2), 3)] * 5)
        assert l_par_empirical(test, theta, phi) == pytest.approx(2.0, abs=1e-6)

    def test_three_point_arithmetic(self):
        # model uniform over all 9 partial rankings; test = {tau_a, tau_a, tau_b}
        theta = uniformish(3)
        phi = MissingTable.homogeneous(3, [1.0 / 3.0, 2.0 / 3.0])
        probs = partial_prob_vector(theta, phi)
        assert np.allclose(probs, 1.0 / 9.0, atol=1e-9)
        test = Dataset.from_rankings(3, [TopTRanking((1,), 3)] * 2 + [TopTRanking((2,), 3)])
        expected = abs(2 / 3 - 1 / 9) + abs(1 / 3 - 1 / 9) + 7 * (1 / 9)
        assert l_par_empirical(test, theta, phi) == pytest.approx(expected, abs=1e-8)

    def test_empty_test_rejected(self):
        with pytest.raises(DomainError):
            l_par_empirical(Dataset.from_rankings(3, []), uniformish(3), MissingTable.uniform(3))


class TestLComp:
    def test_zero_on_equal(self):
        theta = random_mixture(3, 2, np.random.default_rng(4))
        assert l_comp(theta, theta) == 0.0

    def test_disjoint_point_masses(self):
        a = MixtureParams.single(Permutation.identity(3), 25.0)
        b = MixtureParams.single(Permutation((3, 2, 1)), 25.0)
        assert l_comp(a, b) == pytest.approx(2.0, abs=1e-6)

    def test_brute_force_r3(self):
        a = MixtureParams.single(Permutation.identity(3), 1.0)
        b = MixtureParams.single(Permutation.identity(3), 2.0)
        perms = [Permutation(ranks) for ranks in itertools.permutations((1, 2, 3))]
        expected = sum(abs(complete_pmf(p, a) - complete_pmf(p, b)) for p in perms)
        assert l_comp(a, b) == pytest.approx(expected, abs=1e-12)

    def test_tv_axioms_on_random_triples(self):
        rng = np.random.default_rng(6)
        for _ in range(5):
            a = random_mixture(3, 1, rng)
            b = random_mixture(3, 2, rng)
            c = random_mixture(3, 1, rng)
            assert l_comp(a, b) >= 0
            assert l_comp(a, b) == l_comp(b, a)
            assert l_comp(a, c) <= l_comp(a, b) + l_comp(b, c) + 1e-12
            phi = MissingTable(3, rng.dirichlet(np.ones(2), size=6))
            assert l_par(a, phi, b, phi) == l_par(b, phi, a, phi)


class TestClassificationError:
    def test_one_hot_truth(self):
        posteriors = np.eye(2)[[0, 0, 1, 1]]
        assert classification_error([0, 0, 1, 1], posteriors) == 0.0

    def test_relabeled_one_hot(self):
        posteriors = np.eye(2)[[1, 1, 0, 0]]
        assert classification_error([0, 0, 1, 1], posteriors) == 0.0

    def test_quarter_error_example(self):
        truth = [1, 1, 2, 2]
        posteriors = np.eye(2)[[0, 1, 1, 1]]
        assert classification_error(truth, posteriors) == 0.25

    def test_invariant_under_predicted_relabeling(self):
        rng = np.random.default_rng(5)
        posteriors = rng.dirichlet(np.ones(3), size=40)
        truth = rng.integers(0, 3, size=40)
        base = classification_error(truth, posteriors)
        swapped = posteriors[:, [2, 0, 1]]
        assert classification_error(truth, swapped) == base

    def test_length_mismatch(self):
        with pytest.raises(Exception):
            classification_error([0, 1], np.eye(2)[[0]])


class TestLossReport:
    def test_ranges_enforced(self):
        with pytest.raises(DomainError):
            LossReport("ME", 0, "", l_par=2.5, l_comp=0.1, classification_error=None, runtime_ms=1.0)
        with pytest.raises(DomainError):
            LossReport("ME", 0, "", l_par=0.5, l_comp=0.1, classification_error=1.5, runtime_ms=1.0)


class TestCrossValidate:
    @pytest.fixture()
    def small_dataset(self):
        theta = MixtureParams.single(Permutation.identity(3), 1.0)
        mech = tilt_concentration_mechanism(1.0, 1.3, 0.7, Permutation.identity(3))
        return generate_dataset(theta, mech, 80, rng_seed=2)

    def test_single_candidate(self, small_dataset):
        config = FitConfig(restarts=2, seed=0)
        result = cross_validate(small_dataset, [7.5], config)
        assert result.best_lam == 7.5
        assert result.refit.config.lam == 7.5

    def test_duplicates_deduped(self, small_dataset, monkeypatch):
        calls = []

        def fake_fit_batch(jobs, config, cap):
            calls.extend(lam for _, lam in jobs)
            return ["fit"] * len(jobs)

        def fake_fit(dataset, config, cap):
            calls.append(config.lam)
            return "fit"

        monkeypatch.setattr(losses_mod, "_fit_batch", fake_fit_batch)
        monkeypatch.setattr(losses_mod, "fit", fake_fit)
        monkeypatch.setattr(losses_mod, "_cv_fold_score", lambda fitted, heldout, cap: 1.0)
        result = cross_validate(small_dataset, [10, 10.0, 1, 1.0], FitConfig(restarts=1, seed=0))
        assert sorted(set(calls)) == [1.0, 10.0]
        assert len([c for c in calls if c == 10.0]) == 2  # two folds, no refit
        assert len([c for c in calls if c == 1.0]) == 3  # two folds plus the refit
        assert result.best_lam == 1.0  # tie resolved toward the smaller value

    @pytest.mark.parametrize("grid", ["10", [1.0, "10"], [None], [True]])
    def test_non_number_grid_rejected(self, small_dataset, grid):
        with pytest.raises(DomainError, match="grid entries"):
            cross_validate(small_dataset, grid, FitConfig(restarts=1, seed=0))

    def test_paper_grid_runs(self, small_dataset):
        config = FitConfig(restarts=1, seed=1, em_max_iter=30)
        result = cross_validate(small_dataset, [1.0, 10.0, 100.0], config)
        assert set(result.scores) == {1.0, 10.0, 100.0}
        assert result.best_lam in result.scores
        assert result.refit.config.lam == result.best_lam
        assert min(result.scores.values()) == result.scores[result.best_lam]

    def test_matches_a_loop_of_fits(self, small_dataset):
        # the fold fits run in one lockstep batch; fitting each on its own
        # must give the same scores, winner and refit, bit for bit
        config = FitConfig(restarts=2, seed=3, em_max_iter=30)
        grid = [0.0, 1.0, 10.0]
        result = cross_validate(small_dataset, grid, config)
        order = np.random.default_rng([config.seed, 0xCF]).permutation(len(small_dataset))
        half = len(small_dataset) // 2
        folds = (small_dataset.subset(order[:half]), small_dataset.subset(order[half:]))
        scores = {}
        for lam in grid:
            total = 0.0
            for train, test in ((folds[0], folds[1]), (folds[1], folds[0])):
                fitted = fit(train, replace(config, lam=lam))
                total += l_par_empirical(test, fitted.theta, fitted.phi)
            scores[lam] = total / 2.0
        assert result.scores == scores
        best_lam = min(grid, key=lambda lam: (scores[lam], lam))
        assert result.best_lam == best_lam
        refit = fit(small_dataset, replace(config, lam=best_lam))
        assert result.refit.to_json_dict() == refit.to_json_dict()
        assert np.array_equal(result.refit.posteriors, refit.posteriors)
