import dataclasses
import inspect
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import bfs_distance, brute_force_scores, cayley_graph_loop, discordant_pairs, lex_orderings
import partialrank
from partialrank import (
    CapacityError,
    Dataset,
    DimensionError,
    DomainError,
    MissingTable,
    MixtureParams,
    Permutation,
    TopTRanking,
    build_cayley_graph,
    compatible_set,
    index_of,
    kendall_distance,
    unindex,
)
from partialrank.cli import main
from partialrank.mallows import component_log_pmf
from partialrank.perms import MAX_R, distances_from, prefix_tables, write_edge_csv


def perm_strategy(r):
    return st.permutations(list(range(1, r + 1))).map(lambda p: Permutation(tuple(p)))


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(DomainError):
            Permutation((1, 1, 3))

    def test_inverse_roundtrip(self):
        p = Permutation((3, 1, 4, 2))
        assert Permutation.from_ordering(p.inverse) == p

    @given(perm_strategy(5))
    def test_inverse_of_inverse(self, p):
        inv = Permutation(p.inverse)
        assert inv.inverse == p.ranks


class TestKendallDistance:
    def test_identity_to_itself(self):
        e = Permutation.identity(5)
        assert kendall_distance(e, e) == 0

    def test_single_adjacent_swap(self):
        a = Permutation.identity(3)
        b = Permutation((2, 1, 3))
        assert kendall_distance(a, b) == 1

    def test_full_reversal_is_max(self):
        a = Permutation.identity(5)
        b = Permutation((5, 4, 3, 2, 1))
        assert kendall_distance(a, b) == 10  # r(r-1)/2

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            kendall_distance(Permutation.identity(3), Permutation.identity(4))

    @given(perm_strategy(5), perm_strategy(5), perm_strategy(5))
    def test_metric_axioms(self, a, b, c):
        dab = kendall_distance(a, b)
        assert dab == kendall_distance(b, a)
        assert (dab == 0) == (a == b)
        assert kendall_distance(a, c) <= dab + kendall_distance(b, c)

    def test_equals_bfs_shortest_path_on_s4(self):
        perms = [Permutation(p) for p in itertools.permutations((1, 2, 3, 4))]
        for a in perms:
            for b in perms:
                assert kendall_distance(a, b) == bfs_distance(a.ranks, b.ranks)


class TestIndexing:
    def test_identity_is_first(self):
        assert index_of(Permutation.identity(4)) == 0

    def test_last_of_s3(self):
        assert index_of(Permutation((3, 2, 1))) == 5

    def test_roundtrip_all_of_s4(self):
        for i in range(24):
            assert index_of(unindex(i, 4)) == i
        for ranks in itertools.permutations((1, 2, 3, 4)):
            p = Permutation(ranks)
            assert unindex(index_of(p), 4) == p

    def test_lexicographic_order(self):
        ranks = [unindex(i, 4).ranks for i in range(24)]
        assert ranks == sorted(ranks)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            unindex(24, 4)


class TestCompatibleSet:
    def test_top_r_minus_1_is_singleton(self):
        tau = TopTRanking((2, 5, 1, 3), r=5)
        members = compatible_set(tau)
        assert len(members) == 1
        assert members[0].inverse == (2, 5, 1, 3, 4)

    def test_top_2_of_5_has_six_members(self):
        assert len(compatible_set(TopTRanking((4, 1), r=5))) == 6

    def test_matches_brute_force_filter(self):
        tau = TopTRanking((3,), r=4)
        expected = [
            Permutation(p)
            for p in itertools.permutations((1, 2, 3, 4))
            if Permutation(p).inverse[0] == 3
        ]
        assert len(expected) == 6
        assert sorted(compatible_set(tau), key=index_of) == sorted(expected, key=index_of)

    def test_truncation_is_exact_at_r4(self):
        perms = [Permutation(p) for p in itertools.permutations((1, 2, 3, 4))]
        for t in (1, 2, 3):
            for tau_items in itertools.permutations((1, 2, 3, 4), t):
                tau = TopTRanking(tau_items, r=4)
                members = set(compatible_set(tau))
                for p in perms:
                    assert (p in members) == (p.inverse[:t] == tau_items)

    def test_invalid_lengths(self):
        with pytest.raises(DomainError):
            TopTRanking((1, 2, 3, 4), r=4)  # t must stay below r
        with pytest.raises(DomainError):
            TopTRanking((1, 1), r=4)


def _csv_edges(graph, tmp_path) -> np.ndarray:
    """The edge list :func:`write_edge_csv` writes for ``graph``, as an (E, 2) array."""
    path = tmp_path / "edges.csv"
    write_edge_csv(graph, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "src,dst"
    return np.array([[int(x) for x in line.split(",")] for line in lines[1:]], dtype=np.int64).reshape(-1, 2)


class TestCayleyGraph:
    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 7])
    def test_matches_loop_reference(self, r, tmp_path):
        graph = build_cayley_graph(r)
        neighbors, edges = cayley_graph_loop(r)
        assert np.array_equal(graph.neighbors, neighbors)
        assert graph.neighbors.dtype == np.int32
        assert np.array_equal(_csv_edges(graph, tmp_path), edges)
        assert graph.n_edges == len(edges)

    def test_r3_matches_enumerated_pairs(self, tmp_path):
        graph = build_cayley_graph(3)
        perms = [Permutation(p) for p in itertools.permutations((1, 2, 3))]
        expected = {
            (min(i, j), max(i, j))
            for i, a in enumerate(perms)
            for j, b in enumerate(perms)
            if i != j and kendall_distance(a, b) == 1
        }
        got = {(int(u), int(v)) for u, v in _csv_edges(graph, tmp_path)}
        assert got == expected
        assert graph.n_vertices == 6 and graph.n_edges == 6

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_counts_and_degrees(self, r, tmp_path):
        graph = build_cayley_graph(r)
        v = math.factorial(r)
        assert graph.n_vertices == v
        assert graph.n_edges == v * (r - 1) // 2
        edges = _csv_edges(graph, tmp_path)
        assert len(edges) == graph.n_edges
        assert np.all(np.bincount(edges.ravel(), minlength=v) == r - 1)

    def test_edges_are_adjacent_transpositions(self, tmp_path):
        graph = build_cayley_graph(4)
        for u, v in _csv_edges(graph, tmp_path):
            assert kendall_distance(unindex(int(u), 4), unindex(int(v), 4)) == 1

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 7])
    def test_neighbor_slots_are_involutions(self, r):
        nbrs = build_cayley_graph(r).neighbors
        assert np.all(nbrs[nbrs, np.arange(r - 1)] == np.arange(len(nbrs))[:, None])

    def test_r2(self):
        graph = build_cayley_graph(2)
        assert graph.n_vertices == 2 and graph.n_edges == 1

    def test_cap(self):
        assert MAX_R == 7
        with pytest.raises(CapacityError):
            build_cayley_graph(8)

    def test_edge_csv(self, tmp_path):
        graph = build_cayley_graph(3)
        path = tmp_path / "edges.csv"
        write_edge_csv(graph, path)
        text = path.read_text()
        assert text.endswith("\n") and "\r" not in text
        lines = text.splitlines()
        assert lines[0] == "src,dst"
        assert len(lines) == 1 + graph.n_edges
        assert all(len(line.split(",")) == 2 for line in lines[1:])

    def test_graph_holds_only_its_neighbor_slots(self):
        assert [f.name for f in dataclasses.fields(build_cayley_graph(3))] == ["r", "neighbors"]


class TestVectorizedHelpers:
    def test_distances_from_matches_pairwise(self):
        row = distances_from(4, 7)
        base = unindex(7, 4)
        for v in range(24):
            assert row[v] == kendall_distance(base, unindex(v, 4))

    def test_distances_from_matches_oracle_for_every_pair(self):
        for i in range(24):
            row = distances_from(4, i)
            assert np.array_equal(row, brute_force_scores(4, np.eye(24)[i]))
            for j in range(24):
                assert row[j] == discordant_pairs(unindex(i, 4).ranks, unindex(j, 4).ranks)

    @pytest.mark.parametrize("r", [5, 6, 7])
    def test_distances_from_is_exact_on_sampled_pairs(self, r):
        rng = np.random.default_rng(70 + r)
        n_vertices = math.factorial(r)
        for u in rng.choice(n_vertices, size=6, replace=False).tolist():
            row = distances_from(r, u)
            assert row.dtype == np.int64 and row.shape == (n_vertices,)
            base = unindex(u, r)
            for v in [u] + rng.choice(n_vertices, size=40, replace=False).tolist():
                assert row[v] == kendall_distance(base, unindex(v, r))

    @pytest.mark.parametrize("vertex", [-1, 24, True, 1.0])
    def test_distances_from_rejects_a_vertex_outside_s_r(self, vertex):
        # a bool would index the table as a mask, a float not at all
        with pytest.raises(DomainError, match=r"is not an integer in 0\.\.23"):
            distances_from(4, vertex)

    @pytest.mark.parametrize("r", range(2, 8))
    def test_prefix_tables_match_itertools(self, r):
        orderings = lex_orderings(r)
        extending = {}
        for v, o in enumerate(orderings):
            for t in range(1, r):
                extending.setdefault(o[:t], []).append(v)
        table = prefix_tables(r)
        expected = [p for t in range(1, r) for p in itertools.permutations(range(1, r + 1), t)]
        assert table.prefixes == expected
        assert table.index == {p: i for i, p in enumerate(expected)}
        lengths = [len(p) for p in expected]
        assert table.offsets.tolist() == [lengths.index(t) for t in range(1, r)] + [len(expected)]
        assert table.of_vertex.shape == (len(orderings), r - 1) and table.of_vertex.dtype == np.int64
        assert not any(a.flags.writeable for a in (table.offsets, table.of_vertex, *table.members))
        for t, members in enumerate(table.members, start=1):
            span = expected[table.offsets[t - 1] : table.offsets[t]]
            assert {len(p) for p in span} == {t}
            assert members.dtype == np.int32
            assert members.tolist() == [extending[p] for p in span]
            assert [expected[i] for i in table.of_vertex[:, t - 1]] == [o[:t] for o in orderings]

    def test_prefix_tables_partition_vertices(self):
        table = prefix_tables(4)
        for members in table.members:
            flat = np.sort(members.reshape(-1))
            assert np.array_equal(flat, np.arange(24))
        # member rows agree with compatible_set
        for prefix, i in table.index.items():
            t = len(prefix)
            expected = [index_of(p) for p in compatible_set(TopTRanking(prefix, 4))]
            assert list(table.members[t - 1][i - table.offsets[t - 1]]) == expected


# every per-r builder, cached by util.cache_per_r; S_r is enumerated only below them
CACHED_BUILDERS = [
    "missing._csv_text",
    "missing._shared_perms",
    "missing._shared_rankings",
    "perms.build_cayley_graph",
    "perms.perm_table",
    "perms.prefix_tables",
]


def cache_sizes() -> dict[str, int]:
    from partialrank import missing, perms

    return {
        f"{module.__name__.rsplit('.', 1)[1]}.{name}": value.cache_info().currsize
        for module in (missing, perms)
        for name, value in vars(module).items()
        if hasattr(value, "cache_info") and value.__module__ == module.__name__
    }


class TestEnumerationLimit:
    def test_r_above_the_limit_is_refused_at_every_entry_point(self, tmp_path):
        # r = 8 only: should a check be bypassed, S_8 is 40 320 rows, not gigabytes
        before = cache_sizes()
        assert sorted(before) == CACHED_BUILDERS
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("t,items\n2,8>1\n")
        theta = MixtureParams.single(Permutation.identity(8), 1.0)
        attempts = {
            "Dataset with truth": lambda: Dataset(8, [0], [0]),
            "Dataset without truth": lambda: Dataset(8, [0]),
            "Dataset.rankings": lambda: Dataset(8, [0]).rankings,
            "Dataset.from_rankings": lambda: Dataset.from_rankings(8, [TopTRanking((8, 1), 8)]),
            "Dataset.load_csv": lambda: Dataset.load_csv(csv_path, 8),
            "MissingTable.uniform": lambda: MissingTable.uniform(8),
            "build_cayley_graph": lambda: build_cayley_graph(8),
            "component_log_pmf": lambda: component_log_pmf(theta),
        }
        for name, attempt in attempts.items():
            with pytest.raises(CapacityError):
                attempt()
                pytest.fail(f"{name} accepted r = 8")
        config = tmp_path / "graph.json"
        config.write_text(json.dumps({"command": "graph", "r": 8, "out": str(tmp_path / "edges.csv")}))
        assert main(["run", "--config", str(config)]) == 6
        assert not (tmp_path / "edges.csv").exists()
        # a refused call caches nothing, so no builder gained an entry
        assert cache_sizes() == before

    def test_importing_the_package_builds_no_per_r_table(self):
        script = f"import json\nimport partialrank\n{inspect.getsource(cache_sizes)}print(json.dumps(cache_sizes()))\n"
        env = {**os.environ, "PYTHONPATH": str(Path(partialrank.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        sizes = json.loads(done.stdout)
        assert sorted(sizes) == CACHED_BUILDERS
        assert all(size == 0 for size in sizes.values()), sizes


def test_numpy_integer_r_shares_the_entry_of_the_equal_int():
    # functools.cache alone keys np.int64(4) apart from 4 and builds a second table
    script = "\n".join([
        "import json",
        "import numpy as np",
        "from partialrank import missing, perms",
        inspect.getsource(cache_sizes),
        "same = {}",
        f"for name in {CACHED_BUILDERS!r}:",
        "    builder = getattr({'missing': missing, 'perms': perms}[name.split('.')[0]], name.split('.')[1])",
        "    same[name] = all(builder(r) is builder(4) for r in (np.int64(4), np.int32(4), np.uint8(4)))",
        "print(json.dumps([same, cache_sizes()]))",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(partialrank.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    same, sizes = json.loads(done.stdout)
    assert same == dict.fromkeys(CACHED_BUILDERS, True)
    assert sizes == dict.fromkeys(CACHED_BUILDERS, 1)
    assert (prefix_tables.__name__, prefix_tables.__module__) == ("prefix_tables", "partialrank.perms")
