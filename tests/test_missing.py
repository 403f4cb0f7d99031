import logging
import math

import numpy as np
import pytest

from oracles import brute_log_normalizer, random_mixture
from partialrank import (
    DataFormatError,
    DomainError,
    MissingTable,
    MixtureParams,
    Permutation,
    TopTRanking,
    generate_dataset,
    partial_pmf,
    tilt_concentration_mechanism,
    tilt_mixture_mechanism,
)
from partialrank.mallows import mixture_pmf
from partialrank.missing import (
    Dataset,
    empirical_partial_counts,
    enumerate_partial_rankings,
    induced_table,
    partial_prob_vector,
)
from partialrank.perms import compatible_set, index_of, prefix_tables


def random_table(r, rng):
    v = math.factorial(r)
    return MissingTable(r, rng.dirichlet(np.ones(r - 1), size=v))


class TestMissingTable:
    def test_rejects_bad_rows(self):
        bad = np.full((6, 2), 0.4)
        with pytest.raises(DomainError):
            MissingTable(3, bad)
        negative = np.array([[1.2, -0.2]] * 6)
        with pytest.raises(DomainError):
            MissingTable(3, negative)

    def test_uniform(self):
        table = MissingTable.uniform(4)
        assert table.probs.shape == (24, 3)
        assert np.allclose(table.probs, 1 / 3)


class TestPartialPmf:
    def test_mar_factorization(self):
        rng = np.random.default_rng(0)
        theta = random_mixture(4, 2, rng)
        g = np.array([0.2, 0.5, 0.3])
        phi = MissingTable.homogeneous(4, g)
        pmf = mixture_pmf(theta)
        for items, t in (((2,), 1), ((3, 1), 2), ((4, 2, 1), 3)):
            tau = TopTRanking(items, 4)
            direct = sum(pmf[index_of(p)] for p in compatible_set(tau))
            assert partial_pmf(tau, theta, phi) == pytest.approx(g[t - 1] * direct, rel=1e-12)

    def test_total_probability_r4(self):
        rng = np.random.default_rng(1)
        theta = random_mixture(4, 2, rng)
        phi = random_table(4, rng)
        probs = partial_prob_vector(theta, phi)
        assert probs.shape == (40,)  # 4 + 12 + 24 partial rankings
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_uniform_top1_value(self):
        # near-uniform ranking model and uniform mechanism rows at r=3
        theta = MixtureParams.single(Permutation.identity(3), 1e-9)
        phi = MissingTable.uniform(3)
        for item in (1, 2, 3):
            value = partial_pmf(TopTRanking((item,), 3), theta, phi)
            assert value == pytest.approx(0.5 * (1.0 / 3.0), abs=1e-8)


class TestTiltConcentration:
    def test_mar_case_is_constant(self):
        table = tilt_concentration_mechanism(1.0, 1.0, 0.7, Permutation.identity(4))
        assert np.all(table.probs[:, -1] == 0.7)
        assert np.all(table.probs[:, 0] == pytest.approx(0.3, abs=1e-15))

    @pytest.mark.parametrize("c_star", [0.8, 1.0, 1.2])
    def test_paper_settings_are_valid(self, c_star):
        table = tilt_concentration_mechanism(1.0, c_star, 0.7, Permutation.identity(5))
        assert table.probs.shape == (120, 4)
        assert np.all(table.probs.sum(axis=1) == 1.0)  # binary rows, no drift
        assert np.all(table.probs[:, 1:3] == 0.0)

    def test_rate_at_the_location(self):
        sigma0 = Permutation.identity(3)
        table = tilt_concentration_mechanism(1.0, 1.2, 0.7, sigma0)
        expected = math.exp(brute_log_normalizer(1.0, 3) - brute_log_normalizer(1.2, 3)) * 0.7
        assert table.probs[index_of(sigma0), -1] == pytest.approx(expected, rel=1e-12)

    def test_min_binds_far_from_location(self):
        table = tilt_concentration_mechanism(2.0, 0.5, 0.9, Permutation.identity(4))
        reversal = index_of(Permutation((4, 3, 2, 1)))
        assert table.probs[reversal, -1] == 1.0
        assert table.probs[reversal, 0] == 0.0

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            tilt_concentration_mechanism(1.0, 1.0, 1.5, Permutation.identity(4))
        with pytest.raises(DomainError):
            tilt_concentration_mechanism(-1.0, 1.0, 0.5, Permutation.identity(4))

    def test_renormalized_complete_marginal_is_tilted_model(self):
        # the non-binding regime reshapes the complete-observation slice into
        # the same model with the tilted concentration
        theta = MixtureParams.single(Permutation.identity(3), 1.0)
        table = tilt_concentration_mechanism(1.0, 1.2, 0.5, Permutation.identity(3))
        assert np.all(table.probs[:, -1] < 1.0)
        probs = partial_prob_vector(theta, table)
        tables = prefix_tables(3)
        offset = len(tables[0].prefixes)
        slice_complete = probs[offset:]
        tilted = mixture_pmf(MixtureParams.single(Permutation.identity(3), 1.2))
        # align enumeration: prefixes of length r-1 in lex order vs vertex order
        aligned = np.empty(6)
        for row, prefix in enumerate(tables[1].prefixes):
            aligned[row] = tilted[tables[1].members[row][0]]
        assert np.abs(slice_complete / slice_complete.sum() - aligned).max() < 1e-10
        assert slice_complete.sum() == pytest.approx(0.5, abs=1e-12)


class TestTiltMixture:
    def test_mar_case(self):
        spec = tilt_mixture_mechanism([0.5, 0.5], [0.5, 0.5], 0.7, 5)
        assert np.all(spec.rows[:, -1] == 0.7)

    def test_hand_value(self):
        spec = tilt_mixture_mechanism([0.5, 0.5], [0.6, 0.4], 0.7, 5)
        assert spec.rows[:, -1] == pytest.approx([0.84, 0.56], rel=1e-12)

    def test_rate_above_one_rejected(self):
        with pytest.raises(DomainError):
            tilt_mixture_mechanism([0.1, 0.9], [0.9, 0.1], 0.5, 4)

    def test_induced_table_homogeneous_under_mar(self):
        rng = np.random.default_rng(4)
        theta = random_mixture(4, 2, rng)
        spec = tilt_mixture_mechanism([0.4, 0.6], [0.4, 0.6], 0.5, 4)
        table = induced_table(spec, theta)
        assert np.abs(table.probs - table.probs[0]).max() < 1e-12

    def test_induced_table_marginal_matches_generator(self):
        # empirical check that the per-vertex table reproduces the generator's
        # (pi, t) joint law
        theta = MixtureParams(
            (
                # two well-separated components
                *random_mixture(4, 1, np.random.default_rng(0)).components,
                *random_mixture(4, 1, np.random.default_rng(99)).components,
            ),
            (0.5, 0.5),
        )
        spec = tilt_mixture_mechanism([0.5, 0.5], [0.7, 0.3], 0.7, 4)
        table = induced_table(spec, theta)
        probs_spec = np.zeros(40)
        # brute force: P(tau) = sum_k w_k phi_{k,t} sum_{pi in [tau]} P_k(pi)
        from partialrank.mallows import component_log_pmf

        comp = np.exp(component_log_pmf(theta))
        tables = prefix_tables(4)
        idx = 0
        for tb in tables:
            for row in range(len(tb.prefixes)):
                members = tb.members[row]
                total = 0.0
                for k, w in enumerate(theta.weights):
                    total += w * spec.rows[k, tb.t - 1] * comp[k, members].sum()
                probs_spec[idx] = total
                idx += 1
        via_table = partial_prob_vector(theta, table)
        assert np.abs(probs_spec - via_table).max() < 1e-12


class TestGenerateDataset:
    def test_empty(self):
        theta = MixtureParams.single(Permutation.identity(4), 1.0)
        ds = generate_dataset(theta, MissingTable.uniform(4), 0, rng_seed=0)
        assert len(ds) == 0

    def test_complete_only_mechanism(self):
        theta = MixtureParams.single(Permutation.identity(4), 1.0)
        row = np.zeros(3)
        row[-1] = 1.0
        ds = generate_dataset(theta, MissingTable.homogeneous(4, row), 100, rng_seed=1)
        assert np.all(ds.lengths == 3)
        assert all(len(compatible_set(tau)) == 1 for tau in ds.rankings[:5])

    def test_complete_fraction_matches_rate(self):
        theta = MixtureParams.single(Permutation.identity(4), 1.0)
        mech = tilt_concentration_mechanism(1.0, 1.0, 0.7, Permutation.identity(4))
        n = 50_000
        ds = generate_dataset(theta, mech, n, rng_seed=2)
        frac = float(np.mean(ds.lengths == 3))
        se = math.sqrt(0.7 * 0.3 / n)
        assert abs(frac - 0.7) <= 3 * se

    def test_reproducible(self):
        rng_theta = random_mixture(4, 2, np.random.default_rng(8))
        spec = tilt_mixture_mechanism([0.5, 0.5], [0.6, 0.4], 0.7, 4)
        a = generate_dataset(rng_theta, spec, 500, rng_seed=3)
        b = generate_dataset(rng_theta, spec, 500, rng_seed=3)
        assert a.rankings == b.rankings
        assert a.true_perms == b.true_perms
        assert np.array_equal(a.true_clusters, b.true_clusters)

    def test_truth_consistent_with_observation(self):
        theta = random_mixture(4, 2, np.random.default_rng(12))
        spec = tilt_mixture_mechanism([0.5, 0.5], [0.6, 0.4], 0.7, 4)
        ds = generate_dataset(theta, spec, 200, rng_seed=4)
        for tau, pi in zip(ds.rankings, ds.true_perms):
            assert pi.inverse[: tau.t] == tau.items


class TestDatasetCsv:
    def test_format_line(self, tmp_path):
        ds = Dataset.from_rankings(4, [TopTRanking((2, 3, 1), 4)])
        path = tmp_path / "d.csv"
        ds.save_csv(path)
        assert path.read_text() == "t,items\n3,2>3>1\n"

    def test_roundtrip_bit_exact(self, tmp_path):
        theta = random_mixture(4, 2, np.random.default_rng(5))
        spec = tilt_mixture_mechanism([0.5, 0.5], [0.6, 0.4], 0.7, 4)
        ds = generate_dataset(theta, spec, 100, rng_seed=6)
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        ds.save_csv(path_a)
        loaded = Dataset.load_csv(path_a, 4)
        loaded.save_csv(path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        assert loaded.rankings == ds.rankings
        assert loaded.true_perms == ds.true_perms
        assert np.array_equal(loaded.true_clusters, ds.true_clusters)

    def test_duplicate_item_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,items\n2,3>1\n4,1>1>2>3\n")
        with pytest.raises(DataFormatError) as err:
            Dataset.load_csv(path, 4)
        assert err.value.line == 3

    def test_length_out_of_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,items\n4,1>4>2>3\n")
        with pytest.raises(DataFormatError):
            Dataset.load_csv(path, 4)  # t must be at most r-1

    @pytest.mark.parametrize(
        "first,row,message",
        [
            ("1,4,4>1>2>3,1", "2,3>1,1>2>3,0", "ranks 3 items, not 4"),
            ("1,4,4>1>2>3,1", "2,3>1,3>2>1>4,0", "does not start with items"),
            ("1,4,4>1>2>3,1", "2,3>1,3>1>2>4,-3", "true_cluster -3"),
            # a spelling parsed once on a valid row is still checked against a later row's items
            ("1,4,04>1>2>3,1", "2,3>1,04>1>2>3,0", "does not start with items"),
        ],
        ids=["true_perm length", "true_perm prefix", "negative true_cluster", "remembered true_perm spelling"],
    )
    def test_inconsistent_truth_rejected_with_line(self, tmp_path, first, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"t,items,true_perm,true_cluster\n{first}\n{row}\n2,3>3,3>1>2>4,0\n")
        with pytest.raises(DataFormatError, match=message) as err:
            Dataset.load_csv(path, 4)
        assert err.value.line == 3

    def test_csv_error_is_a_format_error_with_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,items\n2,3>1\n1," + "1" * 200_000 + "\n")  # over csv's field size limit
        with pytest.raises(DataFormatError, match="field limit") as err:
            Dataset.load_csv(path, 4)
        assert err.value.line == 3

    def test_undecodable_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"t,items\n1,\xff\n")
        with pytest.raises(DataFormatError, match="not valid UTF-8"):
            Dataset.load_csv(path, 4)

    def test_empty_file_warns(self, tmp_path, caplog):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with caplog.at_level(logging.WARNING):
            ds = Dataset.load_csv(path, 4)
        assert len(ds) == 0
        assert any("empty" in rec.message for rec in caplog.records)


class TestGroupsAndCounts:
    def test_group_counts_and_members(self):
        ds = Dataset.from_rankings(
            3,
            [
                TopTRanking((1,), 3),
                TopTRanking((1,), 3),
                TopTRanking((2, 1), 3),
                TopTRanking((1,), 3),
            ],
        )
        groups = ds.groups()
        assert [b.t for b in groups.blocks] == [1, 2]
        assert list(groups.blocks[0].counts) == [3]
        members = groups.blocks[0].members[0]
        assert sorted(int(v) for v in members) == sorted(
            index_of(p) for p in compatible_set(TopTRanking((1,), 3))
        )

    def test_empirical_counts_align(self):
        ds = Dataset.from_rankings(3, [TopTRanking((2,), 3), TopTRanking((2,), 3), TopTRanking((1, 3), 3)])
        counts = empirical_partial_counts(ds)
        taus = enumerate_partial_rankings(3)
        assert counts.sum() == 3
        assert counts[[tau.items for tau in taus].index((2,))] == 2
        assert counts[[tau.items for tau in taus].index((1, 3))] == 1
