"""Permutations, top-t rankings, Kendall distance, and the adjacency graph.

A complete ranking of ``r`` items is a bijection item -> rank. The canonical
vertex index of a permutation is the lexicographic position of its rank
sequence among all permutations of ``(1, ..., r)``, so ``index_of(identity)``
is 0 and ``unindex(factorial(r) - 1, r)`` is the full reversal.

Two cached per-r tables hold the Kendall structure of S_r that the estimator
uses. ``PermTable.pair_order`` records, per vertex and item pair, which item
ranks ahead; Kendall distance counts the pairs where two rows disagree
(Fligner & Verducci 1986), so distances come from it without a V x V matrix.
``CayleyGraph.neighbors`` lists the distance-1 neighbors by swapped position.

Everything here is exponential in ``r`` by construction; enumeration-backed
helpers refuse ``r`` above a cap (default 7, override per call).
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CapacityError, DimensionError, DomainError
from .util import atomic_open

DEFAULT_CAP = 7


@dataclass(frozen=True)
class Permutation:
    """A complete ranking: ``ranks[i-1]`` is the rank given to item ``i``."""

    ranks: tuple[int, ...]

    def __post_init__(self):
        r = len(self.ranks)
        if r == 0 or sorted(self.ranks) != list(range(1, r + 1)):
            raise DomainError(f"ranks must be a bijection onto 1..{r}: {self.ranks}")

    @property
    def r(self) -> int:
        return len(self.ranks)

    @property
    def inverse(self) -> tuple[int, ...]:
        """Items listed by rank: ``inverse[j-1]`` is the item holding rank j."""
        out = [0] * self.r
        for item, rank in enumerate(self.ranks, start=1):
            out[rank - 1] = item
        return tuple(out)

    @classmethod
    def identity(cls, r: int) -> "Permutation":
        return cls(tuple(range(1, r + 1)))

    @classmethod
    def from_ordering(cls, items: tuple[int, ...] | list[int]) -> "Permutation":
        """Build from a full preference order (most preferred first)."""
        ranks = [0] * len(items)
        for rank, item in enumerate(items, start=1):
            if not 1 <= item <= len(items):
                raise DomainError(f"item {item} outside 1..{len(items)}")
            ranks[item - 1] = rank
        return cls(tuple(ranks))


@dataclass(frozen=True)
class TopTRanking:
    """An ordered prefix of ``t`` distinct items out of ``r``."""

    items: tuple[int, ...]
    r: int

    def __post_init__(self):
        t = len(self.items)
        if not 1 <= t <= self.r - 1:
            raise DomainError(f"length {t} outside 1..{self.r - 1}")
        if len(set(self.items)) != t:
            raise DomainError(f"duplicate items in {self.items}")
        for item in self.items:
            if not 1 <= item <= self.r:
                raise DomainError(f"item {item} outside 1..{self.r}")

    @property
    def t(self) -> int:
        return len(self.items)


def kendall_distance(a: Permutation, b: Permutation) -> int:
    """Inversion count between two rankings = minimal adjacent-transposition count."""
    if a.r != b.r:
        raise DimensionError(f"rankings over {a.r} and {b.r} items")
    # b-ranks of the items in a's preference order; its inversion count is d(a, b)
    seq = [b.ranks[item - 1] for item in a.inverse]
    return _count_inversions(seq)


def _count_inversions(seq: list[int]) -> int:
    """Merge-sort inversion counting, O(r log r)."""
    n = len(seq)
    if n < 2:
        return 0
    mid = n // 2
    left, right = seq[:mid], seq[mid:]
    count = _count_inversions(left) + _count_inversions(right)
    i = j = k = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            seq[k] = left[i]
            i += 1
        else:
            seq[k] = right[j]
            j += 1
            count += len(left) - i
        k += 1
    seq[k:] = left[i:] if i < len(left) else right[j:]
    return count


def index_of(p: Permutation) -> int:
    """Lexicographic rank of ``p.ranks`` (Lehmer code)."""
    r = p.r
    index = 0
    for i in range(r - 1):
        smaller_later = sum(1 for j in range(i + 1, r) if p.ranks[j] < p.ranks[i])
        index += smaller_later * math.factorial(r - 1 - i)
    return index


def unindex(i: int, r: int) -> Permutation:
    """Inverse of :func:`index_of`."""
    if not 0 <= i < math.factorial(r):
        raise DomainError(f"index {i} outside 0..{math.factorial(r) - 1}")
    available = list(range(1, r + 1))
    ranks = []
    rem = i
    for pos in range(r):
        f = math.factorial(r - 1 - pos)
        digit, rem = divmod(rem, f)
        ranks.append(available.pop(digit))
    return Permutation(tuple(ranks))


def compatible_set(tau: TopTRanking) -> list[Permutation]:
    """All complete rankings whose top-t preferences equal ``tau``.

    Returned sorted by vertex index; the size is ``(r - t)!``.
    """
    rest = sorted(set(range(1, tau.r + 1)) - set(tau.items))
    perms = [
        Permutation.from_ordering(tau.items + tail)
        for tail in itertools.permutations(rest)
    ]
    return sorted(perms, key=index_of)


# ---------------------------------------------------------------------------
# Enumeration tables, cached per r.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PermTable:
    """Enumerated S_r: row v of ``ranks`` / ``orderings`` / ``pair_order`` is vertex v."""

    r: int
    ranks: np.ndarray       # (V, r) int16, lexicographic order
    orderings: np.ndarray   # (V, r) int16, items by rank (the inverses)
    pair_order: np.ndarray  # (V, r(r-1)/2) bool, ranks[v, i] < ranks[v, j] for item pairs i < j

    @property
    def n_vertices(self) -> int:
        return self.ranks.shape[0]


@dataclass(frozen=True)
class PrefixTable:
    """All length-t prefixes and, per prefix, the compatible vertex indices."""

    t: int
    prefixes: list[tuple[int, ...]]   # lexicographic order over item tuples
    index: dict                        # prefix tuple -> row
    members: np.ndarray                # (G, (r-t)!) int32, each row ascending


_PERM_TABLES: dict[int, PermTable] = {}
_PREFIX_TABLES: dict[int, list[PrefixTable]] = {}
_VERTEX_PREFIX: dict[int, np.ndarray] = {}
_GRAPHS: dict[int, "CayleyGraph"] = {}


def check_cap(r: int, cap: int = DEFAULT_CAP) -> None:
    if r > cap:
        raise CapacityError(
            f"r={r} exceeds cap {cap} ({math.factorial(r)} vertices); "
            "pass a larger cap explicitly to override"
        )


def perm_table(r: int, cap: int = DEFAULT_CAP) -> PermTable:
    if r < 1:
        raise DomainError("need r >= 1")
    check_cap(r, cap)
    table = _PERM_TABLES.get(r)
    if table is None:
        ranks = np.array(list(itertools.permutations(range(1, r + 1))), dtype=np.int16)
        orderings = np.argsort(ranks, axis=1).astype(np.int16) + 1
        first, second = np.triu_indices(r, k=1)
        pair_order = ranks[:, first] < ranks[:, second]
        for arr in (ranks, orderings, pair_order):
            arr.flags.writeable = False
        table = PermTable(r, ranks, orderings, pair_order)
        _PERM_TABLES[r] = table
    return table


def vertex_prefix(r: int, cap: int = DEFAULT_CAP) -> np.ndarray:
    """(V, r-1) int32: entry [v, t-1] is the row of vertex v's top-t prefix in the length-t table.

    Each prefix is coded in mixed radix r (item - 1 per digit), so numeric
    order of the codes is lexicographic order of the item tuples.
    """
    if r < 2:
        raise DomainError("need r >= 2")
    check_cap(r, cap)
    table = _VERTEX_PREFIX.get(r)
    if table is None:
        digits = perm_table(r, cap).orderings.astype(np.int64) - 1
        table = np.empty((digits.shape[0], r - 1), dtype=np.int32)
        code = np.zeros(digits.shape[0], dtype=np.int64)
        for t in range(1, r):
            code = code * r + digits[:, t - 1]
            table[:, t - 1] = np.unique(code, return_inverse=True)[1]
        table.flags.writeable = False
        _VERTEX_PREFIX[r] = table
    return table


def prefix_tables(r: int, cap: int = DEFAULT_CAP) -> list[PrefixTable]:
    """Prefix enumerations for t = 1..r-1 (list position t-1)."""
    if r < 2:
        raise DomainError("need r >= 2")
    check_cap(r, cap)
    tables = _PREFIX_TABLES.get(r)
    if tables is None:
        orderings = perm_table(r, cap).orderings
        rows = vertex_prefix(r, cap)
        tables = []
        for t in range(1, r):
            # a stable sort keeps each prefix's vertices in ascending order
            members = np.argsort(rows[:, t - 1], kind="stable").astype(np.int32)
            members = members.reshape(-1, math.factorial(r - t))
            members.flags.writeable = False
            prefixes = [tuple(p) for p in orderings[members[:, 0], :t].tolist()]
            index = {p: g for g, p in enumerate(prefixes)}
            tables.append(PrefixTable(t, prefixes, index, members))
        _PREFIX_TABLES[r] = tables
    return tables


def distances_from(r: int, vertex: int, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Kendall distances from one vertex to every vertex, shape (V,)."""
    pair_order = perm_table(r, cap).pair_order
    return (pair_order != pair_order[vertex]).sum(axis=1)


# ---------------------------------------------------------------------------
# The Kendall-distance-1 adjacency graph on S_r.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CayleyGraph:
    """S_r with an edge wherever two permutations differ by one adjacent swap."""

    r: int
    edges: np.ndarray      # (E, 2) int32, u < v, lexicographically ordered rows
    neighbors: np.ndarray  # (V, r-1) int32, slot j swaps the items at positions j and j+1

    @property
    def n_vertices(self) -> int:
        return self.neighbors.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]


def build_cayley_graph(r: int, cap: int = DEFAULT_CAP) -> CayleyGraph:
    """Graph on all of S_r; vertices are canonical indices, degree is r-1."""
    if r < 2:
        raise DomainError("need r >= 2")
    check_cap(r, cap)
    graph = _GRAPHS.get(r)
    if graph is not None:
        return graph
    orderings = perm_table(r, cap).orderings.astype(np.int64) - 1
    v_count = orderings.shape[0]
    # each ordering coded in mixed radix r, as in vertex_prefix; a swap of
    # adjacent positions is a column swap, looked up among the sorted codes
    place = r ** np.arange(r - 1, -1, -1, dtype=np.int64)
    codes = orderings @ place
    by_code = np.argsort(codes)
    sorted_codes = codes[by_code]
    neighbors = np.empty((v_count, r - 1), dtype=np.int32)
    for j in range(r - 1):
        swapped = orderings.copy()
        swapped[:, [j, j + 1]] = orderings[:, [j + 1, j]]
        neighbors[:, j] = by_code[np.searchsorted(sorted_codes, swapped @ place)]
    us = np.repeat(np.arange(v_count, dtype=np.int32), r - 1)
    vs = neighbors.reshape(-1)
    keep = us < vs
    edges = np.stack([us[keep], vs[keep]], axis=1)
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    edges.flags.writeable = False
    neighbors.flags.writeable = False
    graph = CayleyGraph(r, edges, neighbors)
    _GRAPHS[r] = graph
    return graph


def write_edge_csv(graph: CayleyGraph, path: str | Path) -> None:
    """Edge list as CSV with header ``src,dst``, one edge per line."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["src", "dst"])
        for u, v in graph.edges:
            writer.writerow([int(u), int(v)])
