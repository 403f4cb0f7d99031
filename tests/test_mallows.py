import itertools
import math

import numpy as np
import pytest

from oracles import brute_log_normalizer, random_mixture
from partialrank import (
    DomainError,
    MallowsParams,
    MixtureParams,
    Permutation,
    complete_pmf,
    log_normalizer,
    sample_complete,
    unindex,
)
from partialrank.mallows import log_mixture_pmf, mixture_pmf


class TestLogNormalizer:
    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    @pytest.mark.parametrize("c", [0.1, 0.5, 1.0, 2.0, 5.0])
    def test_matches_brute_force(self, r, c):
        assert log_normalizer(c, r) == pytest.approx(brute_log_normalizer(c, r), abs=1e-10)

    def test_uniform_limit(self):
        assert log_normalizer(0.0, 5) == pytest.approx(math.log(120), abs=1e-12)

    def test_negative_concentration(self):
        with pytest.raises(DomainError):
            log_normalizer(-0.5, 4)

    @pytest.mark.parametrize("c", [10**400, True, "1.5", math.inf, math.nan], ids=["huge int", "bool", "str", "inf", "nan"])
    def test_concentration_must_be_a_finite_real_number(self, c):
        # the int overflowed, True was read as 1, the str raised TypeError, inf gave 0 and nan gave nan
        with pytest.raises(DomainError, match="concentration"):
            log_normalizer(c, 4)


class TestMixtureParams:
    def test_weights_must_sum_to_one(self):
        comp = MallowsParams(Permutation.identity(3), 1.0)
        with pytest.raises(DomainError):
            MixtureParams((comp, comp), (0.6, 0.5))

    def test_weights_must_be_positive(self):
        comp = MallowsParams(Permutation.identity(3), 1.0)
        with pytest.raises(DomainError):
            MixtureParams((comp, comp), (1.0, 0.0))

    def test_concentration_must_be_positive(self):
        with pytest.raises(DomainError):
            MallowsParams(Permutation.identity(3), 0.0)

    @pytest.mark.parametrize("c", [math.inf, math.nan])
    def test_concentration_must_be_finite(self, c):
        # an infinite c once made complete_pmf return nan
        with pytest.raises(DomainError, match="concentration"):
            MallowsParams(Permutation.identity(3), c)

    @pytest.mark.parametrize("c", [10**400, True, "1.5"], ids=["huge int", "bool", "str"])
    def test_concentration_must_be_a_real_number_in_float_range(self, c):
        # the int and True were accepted, the str raised a bare TypeError
        with pytest.raises(DomainError, match="concentration"):
            MallowsParams(Permutation.identity(3), c)


class TestCompletePmf:
    def test_mode_is_maximal(self):
        theta = MixtureParams.single(Permutation((2, 3, 1, 4)), 1.5)
        pmf = mixture_pmf(theta)
        mode = complete_pmf(theta.components[0].sigma, theta)
        assert mode == pytest.approx(pmf.max(), rel=1e-12)
        assert mode == pytest.approx(math.exp(-log_normalizer(1.5, 4)), rel=1e-12)

    def test_two_component_hand_value(self):
        # equal-weight components at identity and reversal, both c=1, at r=3
        theta = MixtureParams(
            (
                MallowsParams(Permutation.identity(3), 1.0),
                MallowsParams(Permutation((3, 2, 1)), 1.0),
            ),
            (0.5, 0.5),
        )
        z1 = math.exp(brute_log_normalizer(1.0, 3))
        expected = 0.5 * (math.exp(0.0) + math.exp(-3.0)) / z1
        assert complete_pmf(Permutation.identity(3), theta) == pytest.approx(expected, rel=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        for k in (1, 2, 3):
            theta = random_mixture(4, k, rng)
            assert mixture_pmf(theta).sum() == pytest.approx(1.0, abs=1e-10)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(9)
        theta = random_mixture(4, 2, rng)
        for _ in range(5):
            eta = rng.permutation(4)

            def relabel(p: Permutation) -> Permutation:
                return Permutation(tuple(p.ranks[eta[i]] for i in range(4)))

            relabeled = MixtureParams(
                tuple(MallowsParams(relabel(c.sigma), c.c) for c in theta.components),
                theta.weights,
            )
            for v in rng.choice(24, size=6, replace=False):
                pi = unindex(int(v), 4)
                assert complete_pmf(pi, theta) == pytest.approx(
                    complete_pmf(relabel(pi), relabeled), rel=1e-12
                )


class TestSampling:
    def test_empty(self):
        theta = MixtureParams.single(Permutation.identity(4), 1.0)
        assert sample_complete(theta, 0, rng_seed=0) == []

    def test_degenerate_concentration(self):
        sigma = Permutation((2, 1, 3, 4))
        theta = MixtureParams.single(sigma, 1e6)
        draws = sample_complete(theta, 200, rng_seed=7)
        assert all(p == sigma for p, _ in draws)

    def test_deterministic(self):
        theta = MixtureParams.single(Permutation.identity(4), 0.7)
        assert sample_complete(theta, 50, rng_seed=11) == sample_complete(theta, 50, rng_seed=11)

    def test_frequencies_match_exact_pmf(self):
        theta = MixtureParams.single(Permutation.identity(4), 1.0)
        n = 50_000
        draws = sample_complete(theta, n, rng_seed=5)
        counts = np.zeros(24)
        for p, k in draws:
            assert k == 0
            counts[list(itertools.permutations((1, 2, 3, 4))).index(p.ranks)] += 1
        pmf = mixture_pmf(theta)
        se = np.sqrt(pmf * (1 - pmf) / n)
        assert np.all(np.abs(counts / n - pmf) <= 3 * se)

    def test_cluster_frequencies(self):
        theta = MixtureParams(
            (
                MallowsParams(Permutation.identity(4), 1.0),
                MallowsParams(Permutation((4, 3, 2, 1)), 2.0),
            ),
            (0.3, 0.7),
        )
        draws = sample_complete(theta, 20_000, rng_seed=13)
        frac = np.mean([k for _, k in draws])
        assert frac == pytest.approx(0.7, abs=3 * math.sqrt(0.21 / 20_000))


def test_log_mixture_pmf_matches_scalar_path():
    rng = np.random.default_rng(21)
    theta = random_mixture(4, 2, rng)
    logp = log_mixture_pmf(theta)
    for v in (0, 5, 17, 23):
        assert math.exp(logp[v]) == pytest.approx(complete_pmf(unindex(v, 4), theta), rel=1e-12)
