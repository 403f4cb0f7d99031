"""Permutations, top-t rankings, Kendall distance, and the adjacency graph.

A complete ranking of ``r`` items is a bijection item -> rank. The canonical
vertex index of a permutation is the lexicographic position of its rank
sequence among all permutations of ``(1, ..., r)``, so ``index_of(identity)``
is 0 and ``unindex(factorial(r) - 1, r)`` is the full reversal.

Two cached per-r tables hold the Kendall structure of S_r that the estimator
uses. ``PermTable.pair_order`` holds, per vertex and item pair, float 1 where
the first item ranks ahead, else 0. Kendall distance counts the pairs where two
rows a, b disagree (Fligner & Verducci 1986), sum_p b_p + sum_p a_p (1 - 2 b_p),
so distances and expected distances are products with it, without a V x V matrix.
``CayleyGraph.neighbors`` lists the distance-1 neighbors by swapped position;
it is the graph's one layout, and :func:`write_edge_csv` derives the edge list.
A third, :func:`prefix_tables`, owns the one numbering of the top-t rankings
(t ascending, then prefixes in lexicographic order) that datasets store, with
each vertex's prefixes and each prefix's compatible vertices.

Everything here is exponential in ``r`` by construction. Every r!-sized table
is built on :func:`perm_table`, which raises ``CapacityError`` for
``r > MAX_R`` before it enumerates, and each per-r table is built once and
cached by :func:`~partialrank.util.cache_per_r`, keyed on ``operator.index(r)``
so that a numpy integer r shares the table of the equal int.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CapacityError, DimensionError, DomainError
from .util import atomic_open, cache_per_r

MAX_R = 7  # the largest r whose S_r is enumerated (7! = 5040 vertices)


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
    """Item pairs the two rankings order differently = minimal adjacent-transposition count."""
    if a.r != b.r:
        raise DimensionError(f"rankings over {a.r} and {b.r} items")
    ra, rb = a.ranks, b.ranks
    return sum((ra[i] < ra[j]) != (rb[i] < rb[j]) for i in range(a.r) for j in range(i + 1, a.r))


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
    pair_order: np.ndarray  # (V, r(r-1)/2) float64 0/1 (sums of it are exact), ranks[v, i] < ranks[v, j], i < j

    @property
    def n_vertices(self) -> int:
        return self.ranks.shape[0]


@dataclass(frozen=True)
class PrefixTable:
    """Every top-t ranking of r items in one numbering: t ascending, then prefixes lexicographic.

    Index i is the top-t ranking ``prefixes[i]``, with t = ``len(prefixes[i])``;
    the length-t rankings hold indices ``offsets[t-1]`` to ``offsets[t] - 1``,
    and row ``i - offsets[t-1]`` of ``members[t-1]`` lists index i's compatible
    vertices in ascending order.
    """

    offsets: np.ndarray              # (r,) first index of each length; the last entry is the total
    prefixes: list[tuple[int, ...]]  # item tuple per index
    index: dict                      # item tuple -> index
    of_vertex: np.ndarray            # (V, r-1) int64, [v, t-1] is the index of vertex v's top-t prefix
    members: list[np.ndarray]        # per t, (P(r, t), (r-t)!) int32


@cache_per_r
def perm_table(r: int) -> PermTable:
    """S_r enumerated; the one place that refuses ``r > MAX_R``."""
    if r < 1:
        raise DomainError("need r >= 1")
    if r > MAX_R:
        raise CapacityError(f"r={r} exceeds the enumeration limit {MAX_R} ({math.factorial(r)} vertices)")
    ranks = np.array(list(itertools.permutations(range(1, r + 1))), dtype=np.int16)
    orderings = np.argsort(ranks, axis=1).astype(np.int16) + 1
    first, second = np.triu_indices(r, k=1)
    pair_order = (ranks[:, first] < ranks[:, second]).astype(np.float64)
    for arr in (ranks, orderings, pair_order):
        arr.flags.writeable = False
    return PermTable(r, ranks, orderings, pair_order)


@cache_per_r
def prefix_tables(r: int) -> PrefixTable:
    """The numbering of every top-t ranking of r items, t = 1..r-1.

    Each prefix is coded in mixed radix r (item - 1 per digit), so numeric
    order of the codes of one length is lexicographic order of the item tuples.
    """
    if r < 2:
        raise DomainError("need r >= 2")
    orderings = perm_table(r).orderings
    digits = orderings.astype(np.int64) - 1
    offsets = np.cumsum([0] + [math.perm(r, t) for t in range(1, r)])
    of_vertex = np.empty((digits.shape[0], r - 1), dtype=np.int64)
    code = np.zeros(digits.shape[0], dtype=np.int64)
    prefixes, members = [], []
    for t in range(1, r):
        code = code * r + digits[:, t - 1]
        of_vertex[:, t - 1] = offsets[t - 1] + np.unique(code, return_inverse=True)[1]
        # a stable sort keeps each prefix's vertices in ascending order
        rows = np.argsort(of_vertex[:, t - 1], kind="stable").astype(np.int32).reshape(-1, math.factorial(r - t))
        rows.flags.writeable = False
        members.append(rows)
        prefixes += [tuple(p) for p in orderings[rows[:, 0], :t].tolist()]
    for arr in (offsets, of_vertex):
        arr.flags.writeable = False
    return PrefixTable(offsets, prefixes, {p: i for i, p in enumerate(prefixes)}, of_vertex, members)


def distances_from(r: int, vertex: int) -> np.ndarray:
    """Kendall distances from one vertex to every vertex, shape (V,), int64."""
    pair_order = perm_table(r).pair_order
    if isinstance(vertex, bool) or not isinstance(vertex, (int, np.integer)) or not 0 <= vertex < len(pair_order):
        raise DomainError(f"vertex {vertex!r} is not an integer in 0..{len(pair_order) - 1}")
    row = pair_order[vertex]
    return (pair_order @ (1.0 - 2.0 * row) + row.sum()).astype(np.int64)


# ---------------------------------------------------------------------------
# The Kendall-distance-1 adjacency graph on S_r.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CayleyGraph:
    """S_r with an edge wherever two permutations differ by one adjacent swap."""

    r: int
    neighbors: np.ndarray  # (V, r-1) int32, slot j swaps the items at positions j and j+1; an edge fills two slots

    @property
    def n_vertices(self) -> int:
        return self.neighbors.shape[0]

    @property
    def n_edges(self) -> int:
        return self.neighbors.size // 2


@cache_per_r
def build_cayley_graph(r: int) -> CayleyGraph:
    """Graph on all of S_r; vertices are canonical indices, degree is r-1."""
    if r < 2:
        raise DomainError("need r >= 2")
    orderings = perm_table(r).orderings.astype(np.int64) - 1
    # each ordering coded in mixed radix r, as in prefix_tables; a swap of
    # adjacent positions is a column swap, looked up among the sorted codes
    place = r ** np.arange(r - 1, -1, -1, dtype=np.int64)
    codes = orderings @ place
    by_code = np.argsort(codes)
    sorted_codes = codes[by_code]
    neighbors = np.empty((len(orderings), r - 1), dtype=np.int32)
    for j in range(r - 1):
        swapped = orderings.copy()
        swapped[:, [j, j + 1]] = orderings[:, [j + 1, j]]
        neighbors[:, j] = by_code[np.searchsorted(sorted_codes, swapped @ place)]
    neighbors.flags.writeable = False
    return CayleyGraph(r, neighbors)


def write_edge_csv(graph: CayleyGraph, path: str | Path) -> None:
    """Edge list as CSV with header ``src,dst``: each edge once as u < v, in lexicographic order."""
    rows = np.sort(graph.neighbors, axis=1).tolist()
    with atomic_open(path) as fh:
        fh.write("src,dst\n")
        fh.writelines(f"{u},{v}\n" for u, row in enumerate(rows) for v in row if v > u)
