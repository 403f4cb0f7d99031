"""The array-backed Dataset against the per-object references in ``oracles``."""

import math

import numpy as np
import pytest

from oracles import (
    generate_dataset_loop,
    group_observations,
    lex_orderings,
    random_mixture,
    read_csv_rows,
    write_csv_writer,
)
from partialrank import (
    CapacityError,
    ClusterMissingSpec,
    DataFormatError,
    DimensionError,
    DomainError,
    MissingTable,
    Permutation,
    TopTRanking,
    generate_dataset,
)
from partialrank.missing import Dataset, empirical_partial_counts, enumerate_partial_rankings

SIZES = (0, 1, 500)


def mechanism(kind, r, rng):
    """Random rows, so every length 1..r-1 occurs."""
    if kind == "table":
        return MissingTable(r, rng.dirichlet(np.ones(r - 1), size=math.factorial(r)))
    return ClusterMissingSpec(r, rng.dirichlet(np.ones(r - 1), size=2))


def draw(r, kind, n):
    rng = np.random.default_rng([r, n, kind == "table"])
    theta = random_mixture(r, 2, rng)
    mech = mechanism(kind, r, rng)
    seed = 1000 * r + n
    return generate_dataset(theta, mech, n, seed), generate_dataset_loop(theta, mech, n, seed)


CASES = [(r, kind, n) for r in range(3, 8) for kind in ("table", "cluster") for n in SIZES]


@pytest.mark.parametrize("r,kind,n", CASES)
def test_generation_matches_per_object_loop(r, kind, n):
    ds, (rankings, perms, clusters) = draw(r, kind, n)
    assert ds.rankings == rankings
    assert ds.true_perms == perms
    assert ds.true_clusters.tolist() == clusters
    assert ds.lengths.tolist() == [tau.t for tau in rankings]


@pytest.mark.parametrize("r,kind,n", CASES)
def test_groups_match_dict_grouping(r, kind, n):
    ds, (rankings, _, _) = draw(r, kind, n)
    groups = ds.groups()
    blocks, obs_block, obs_pos = group_observations(r, rankings)
    assert [(b.t, b.rows.tolist(), b.counts.tolist(), b.members.tolist()) for b in groups.blocks] == blocks
    assert [(b.rows.dtype, b.counts.dtype, b.members.dtype) for b in groups.blocks] == [
        (np.int32, np.int64, np.int32)
    ] * len(blocks)
    assert groups.obs_block.tolist() == obs_block
    assert groups.obs_pos.tolist() == obs_pos
    assert (groups.r, groups.n) == (r, n)
    position = {tau: i for i, tau in enumerate(enumerate_partial_rankings(r))}
    expected = np.zeros(len(position), dtype=np.int64)
    for tau in rankings:
        expected[position[tau]] += 1
    assert empirical_partial_counts(ds).tolist() == expected.tolist()


@pytest.mark.parametrize("r,kind,n", CASES)
def test_csv_bytes_match_csv_writer(r, kind, n, tmp_path):
    ds, (rankings, perms, clusters) = draw(r, kind, n)
    ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
    ds.save_csv(ours)
    write_csv_writer(reference, rankings, perms, clusters)
    assert ours.read_bytes() == reference.read_bytes()
    loaded = Dataset.load_csv(ours, r)
    assert loaded.rankings == rankings
    assert loaded.true_perms == perms
    assert loaded.true_clusters.tolist() == clusters
    observed_only = Dataset(r, ds.obs)
    observed_only.save_csv(ours)
    write_csv_writer(reference, rankings)
    assert ours.read_bytes() == reference.read_bytes()


def test_prefix_and_vertex_tables_underlie_the_layout():
    r = 5
    ds, _ = draw(r, "table", 500)
    taus = enumerate_partial_rankings(r)
    orderings = lex_orderings(r)
    for i, v, tau in zip(ds.obs, ds.true_vertices, ds.rankings):
        assert taus[i] is tau
        assert orderings[v][: tau.t] == tau.items


VALID_SPELLINGS = {
    "leading zeros and signs": "t,items\n2,02>5\n1,+4\n3,3>1>002\n",
    "padded fields": "t,items\n 2, 3>1\n2,3 >1\n",
    "quoted fields": 't,items\n"2","3>1"\n"1",4\n',
    "crlf line ends": "t,items\r\n2,3>1\r\n1,4\r\n",
    "blank lines": "t,items\n\n2,3>1\n\n\n1,4\n",
    "extra column": "t,items,note\n2,3>1,x\n1,4,\n",
    "header only": "t,items\n",
    "truth spellings": (
        "t,items,true_perm,true_cluster\n"
        "2,3>1,03>1>2>4>5,01\n"
        "1,4, 4>1>2>3>5,+1\n"
        '4,5>4>3>2,"5>4>3>2>1","0"\n'
        "2,3>1,3>1>2>4>5,-0\n"
    ),
    "truth columns swapped": "t,items,true_cluster,true_perm\n2,3>1,1,3>1>2>4>5\n",
    "repeated spellings": (
        "t,items,true_perm,true_cluster\n"
        + "2,03>1,03>1>2>4>5,+1\n1, 3,3>2>1>4>5,1\n" * 50
        + "4,3>1>2>4, 3>1>2>4>5,01\n2,03>1,03>1>2>4>5,+1\n" * 50
    ),
}


@pytest.mark.parametrize("text", VALID_SPELLINGS.values(), ids=VALID_SPELLINGS.keys())
def test_loading_valid_spellings_matches_row_reader(text, tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode())
    rankings, perms, clusters = read_csv_rows(path, 5)
    loaded = Dataset.load_csv(path, 5)
    assert loaded.rankings == rankings
    assert loaded.true_perms == perms
    assert (None if loaded.true_clusters is None else loaded.true_clusters.tolist()) == clusters


CANONICAL = "2,3>1,3>1>2>4>5,0\n"
FORMAT_ERRORS = {
    "header": "a,b\n2,3>1\n",
    "field count": "t,items\n2,3>1\n2,3>1,9\n",
    "short row": "t,items,true_perm,true_cluster\n" + CANONICAL + "2,3>1\n",
    "length field": "t,items\nx,3>1\n",
    "items field": "t,items\n2,3>1\n2,3>a\n",
    "length mismatch": "t,items\n3,3>1\n",
    "duplicate item": "t,items\n2,3>3\n",
    "item out of range": "t,items\n1,9\n",
    "complete ranking": "t,items\n5,1>2>3>4>5\n",
    "after blank lines": "t,items\n2,3>1\n\n\n2,3>\n",
    "crlf": "t,items\r\n2,3>1\r\n1,0\r\n",
    "true_perm field": "t,items,true_perm,true_cluster\n" + CANONICAL + "2,3>1,3>1>x>4>5,0\n",
    "true_perm item": "t,items,true_perm,true_cluster\n" + CANONICAL + "2,3>1,3>1>2>4>6,0\n",
    "true_cluster field": "t,items,true_perm,true_cluster\n" + CANONICAL * 3 + "2,3>1,3>1>2>4>5,x\n",
    "first of two errors": "t,items\n2,3>1\n3,3>1\n2,3>3\n",
}


@pytest.mark.parametrize("text", FORMAT_ERRORS.values(), ids=FORMAT_ERRORS.keys())
def test_format_errors_match_row_reader(text, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    with pytest.raises(DataFormatError) as expected:
        read_csv_rows(path, 5)
    with pytest.raises(DataFormatError) as got:
        Dataset.load_csv(path, 5)
    assert (str(got.value), got.value.line) == (str(expected.value), expected.value.line)


def test_arrays_are_read_only():
    ds, _ = draw(4, "cluster", 500)
    for arr in (ds.obs, ds.true_vertices, ds.true_clusters, ds.subset([0, 1]).obs):
        with pytest.raises(ValueError):
            arr[0] = 0
    caller = np.array([0, 1, 2])
    Dataset(4, caller)
    caller[0] = 3  # the dataset copied, so the caller's array stays writable


def test_views_share_one_object_per_ranking():
    tau = TopTRanking((3, 1), 4)
    pi = Permutation.from_ordering((3, 1, 2, 4))
    a = Dataset.from_rankings(4, [tau, TopTRanking((3, 1), 4)], [pi, pi], [0, 1])
    b = Dataset.from_rankings(4, [TopTRanking((3, 1), 4)], [Permutation.from_ordering((3, 1, 2, 4))])
    assert a.rankings == [tau, tau]
    assert a.rankings[0] is a.rankings[1] is b.rankings[0]
    assert a.true_perms[0] is b.true_perms[0]
    assert b.true_clusters is None


class TestConstruction:
    def test_from_rankings_checks_dimensions(self):
        with pytest.raises(DimensionError):
            Dataset.from_rankings(4, [TopTRanking((1,), 3)])
        with pytest.raises(DimensionError):
            Dataset.from_rankings(4, [TopTRanking((1,), 4)], [])
        with pytest.raises(DimensionError):
            Dataset.from_rankings(4, [TopTRanking((1,), 4)], [Permutation.identity(3)])
        with pytest.raises(DimensionError):
            Dataset.from_rankings(4, [TopTRanking((1,), 4)], None, [0, 1])
        with pytest.raises(CapacityError):
            Dataset.from_rankings(8, [])

    def test_array_checks(self):
        n_partials = len(enumerate_partial_rankings(4))
        with pytest.raises(DomainError):
            Dataset(4, [n_partials])
        with pytest.raises(DomainError):
            Dataset(4, [-1])
        with pytest.raises(DimensionError):
            Dataset(4, [[0]])
        with pytest.raises(DomainError):
            Dataset(4, [0], [24])
        with pytest.raises(DomainError):
            Dataset(4, [0], [0], [-1])

    def test_truth_must_extend_observation(self):
        tau = TopTRanking((3, 1), 4)
        with pytest.raises(DomainError, match="observation 1"):
            Dataset.from_rankings(
                4, [tau, tau], [Permutation.from_ordering((3, 1, 2, 4)), Permutation.from_ordering((1, 3, 2, 4))]
            )

    def test_subset_keeps_truth(self):
        ds, (rankings, perms, clusters) = draw(5, "cluster", 500)
        idx = [7, 3, 3, 499]
        sub = ds.subset(idx)
        assert sub.rankings == [rankings[i] for i in idx]
        assert sub.true_perms == [perms[i] for i in idx]
        assert sub.true_clusters.tolist() == [clusters[i] for i in idx]


def test_load_csv_refuses_r_above_the_cap(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("t,items\n2,8>1\n")
    with pytest.raises(CapacityError):
        Dataset.load_csv(path, 8)
    assert Dataset.load_csv(path, 8, cap=8).rankings == [TopTRanking((8, 1), 8)]
