import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import bfs_distance, discordant_pairs, lex_orderings
from partialrank import (
    CapacityError,
    DimensionError,
    DomainError,
    Permutation,
    TopTRanking,
    build_cayley_graph,
    compatible_set,
    index_of,
    kendall_distance,
    unindex,
)
from partialrank.perms import distances_from, prefix_tables, vertex_prefix, write_edge_csv


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


class TestCayleyGraph:
    def test_r3_matches_enumerated_pairs(self):
        graph = build_cayley_graph(3)
        perms = [Permutation(p) for p in itertools.permutations((1, 2, 3))]
        expected = {
            (min(i, j), max(i, j))
            for i, a in enumerate(perms)
            for j, b in enumerate(perms)
            if i != j and kendall_distance(a, b) == 1
        }
        got = {(int(u), int(v)) for u, v in graph.edges}
        assert got == expected
        assert graph.n_vertices == 6 and graph.n_edges == 6

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    def test_counts_and_degrees(self, r):
        graph = build_cayley_graph(r)
        v = math.factorial(r)
        assert graph.n_vertices == v
        assert graph.n_edges == v * (r - 1) // 2
        degrees = np.zeros(v, dtype=int)
        for u, w in graph.edges:
            degrees[u] += 1
            degrees[w] += 1
        assert np.all(degrees == r - 1)

    def test_edges_are_adjacent_transpositions(self):
        graph = build_cayley_graph(4)
        for u, v in graph.edges:
            assert kendall_distance(unindex(int(u), 4), unindex(int(v), 4)) == 1

    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6, 7])
    def test_neighbor_slots_are_involutions(self, r):
        nbrs = build_cayley_graph(r).neighbors
        assert np.all(nbrs[nbrs, np.arange(r - 1)] == np.arange(len(nbrs))[:, None])

    def test_r2(self):
        graph = build_cayley_graph(2)
        assert graph.n_vertices == 2 and graph.n_edges == 1

    def test_cap(self):
        with pytest.raises(CapacityError):
            build_cayley_graph(8)
        # explicit override is allowed
        assert build_cayley_graph(8, cap=8).n_vertices == math.factorial(8)

    def test_edge_csv(self, tmp_path):
        graph = build_cayley_graph(3)
        path = tmp_path / "edges.csv"
        write_edge_csv(graph, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "src,dst"
        assert len(lines) == 1 + graph.n_edges
        assert all(len(line.split(",")) == 2 for line in lines[1:])


class TestVectorizedHelpers:
    def test_distances_from_matches_pairwise(self):
        row = distances_from(4, 7)
        base = unindex(7, 4)
        for v in range(24):
            assert row[v] == kendall_distance(base, unindex(v, 4))

    def test_distances_from_matches_oracle_for_every_pair(self):
        for i in range(24):
            row = distances_from(4, i)
            for j in range(24):
                assert row[j] == discordant_pairs(unindex(i, 4).ranks, unindex(j, 4).ranks)

    @pytest.mark.parametrize("r", range(2, 8))
    def test_prefix_tables_match_itertools(self, r):
        orderings = lex_orderings(r)
        extending = {}
        for v, o in enumerate(orderings):
            for t in range(1, r):
                extending.setdefault(o[:t], []).append(v)
        rows = vertex_prefix(r)
        assert rows.shape == (len(orderings), r - 1) and not rows.flags.writeable
        for table in prefix_tables(r):
            t = table.t
            expected = list(itertools.permutations(range(1, r + 1), t))
            assert table.prefixes == expected
            assert table.index == {p: g for g, p in enumerate(expected)}
            assert table.members.dtype == np.int32 and not table.members.flags.writeable
            assert table.members.tolist() == [extending[p] for p in expected]
            assert [expected[g] for g in rows[:, t - 1]] == [o[:t] for o in orderings]

    def test_prefix_tables_partition_vertices(self):
        tables = prefix_tables(4)
        for table in tables:
            flat = np.sort(table.members.reshape(-1))
            assert np.array_equal(flat, np.arange(24))
            # member rows agree with compatible_set
            for prefix, row in table.index.items():
                expected = [index_of(p) for p in compatible_set(TopTRanking(prefix, 4))]
                assert list(table.members[row]) == expected
