"""Missing mechanisms, the observable top-t distribution, and data generation.

The missing parameter is a table with one row per complete ranking: row ``pi``
is the conditional distribution of the observed prefix length t over
``{1, ..., r-1}``. A top-(r-1) ranking pins down the complete ranking, so
"nothing missing" is t = r-1 and "all but the first preference missing" is
t = 1.

Dataset CSV format (bit-exact; UTF-8, LF line endings; a record is one line)::

    t,items
    3,2>5>1

``items`` holds the top-t item ids joined by ``>`` in preference order.
Simulated data may carry two extra columns: ``true_perm`` (the latent
complete ranking, ``>``-joined) and ``true_cluster`` (0-based component id).

In memory a :class:`Dataset` is arrays, not per-observation objects: ``obs[i]``
is observation i's index in :func:`partialrank.perms.prefix_tables` (t
ascending, then prefixes in lexicographic order, the order of
:func:`enumerate_partial_rankings`), and ``true_vertices[i]`` is the vertex
index of its latent complete ranking. Generation, the CSV round trip and
grouping work on these arrays; ``Dataset.rankings`` and ``Dataset.true_perms``
are views built from per-r shared objects, and ``Dataset.from_rankings``
converts object lists.

Every per-r table here (the shared objects and the CSV fields) is cached by
:func:`~partialrank.util.cache_per_r` and built on the tables of
:mod:`partialrank.perms`, so ``r > perms.MAX_R`` raises
:class:`~partialrank.errors.CapacityError`. A non-empty dataset reads its
prefix table when it is made, so it cannot be made above the limit.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataFormatError, DimensionError, DomainError
from .mallows import MixtureParams, check_simplex, component_log_pmf, log_normalizer, mixture_pmf, sample_vertices
from .perms import (
    Permutation,
    TopTRanking,
    distances_from,
    index_of,
    perm_table,
    prefix_tables,
)
from .util import atomic_open, cache_per_r, check_integer, check_real

logger = logging.getLogger(__name__)

ROW_SUM_TOL = 1e-10


def _frozen_simplex_rows(rows, n_rows: int | None, r: int) -> np.ndarray:
    """A read-only float64 copy of ``rows`` (the caller's array stays as it was), once it holds
    ``n_rows`` rows (any number for None) of r - 1 entries and every row lies on the simplex."""
    rows = np.array(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != r - 1 or n_rows not in (None, len(rows)):
        raise DimensionError(f"expected ({n_rows or 'K'}, {r - 1}) rows, got shape {rows.shape}")
    check_simplex(rows, ROW_SUM_TOL, "rows must sum to 1", "entries must lie in [0, 1]")
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True)
class MissingTable:
    """Per-vertex length distributions: ``probs[v, t-1] = P(t | pi_v)``."""

    r: int
    probs: np.ndarray  # (r!, r-1) rows on the simplex, a read-only float64 copy

    def __post_init__(self):
        object.__setattr__(self, "probs", _frozen_simplex_rows(self.probs, math.factorial(self.r), self.r))

    @classmethod
    def uniform(cls, r: int) -> "MissingTable":
        v = perm_table(r).n_vertices
        return cls(r, np.full((v, r - 1), 1.0 / (r - 1)))

    @classmethod
    def homogeneous(cls, r: int, row) -> "MissingTable":
        """The same length distribution at every vertex (the MAR case)."""
        v = perm_table(r).n_vertices
        row = np.asarray(row, dtype=float)
        return cls(r, np.tile(row, (v, 1)))


@dataclass(frozen=True)
class ClusterMissingSpec:
    """Generator-side mechanism where t depends on the mixture component."""

    r: int
    rows: np.ndarray  # (K, r-1) rows on the simplex, a read-only float64 copy

    def __post_init__(self):
        object.__setattr__(self, "rows", _frozen_simplex_rows(self.rows, None, self.r))

    @property
    def n_clusters(self) -> int:
        return self.rows.shape[0]


# ---------------------------------------------------------------------------
# Datasets.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupBlock:
    """Observations of one length, grouped by identical prefix in index order."""

    t: int
    counts: np.ndarray    # (G,) multiplicities
    members: np.ndarray   # (G, (r-t)!) compatible vertex indices


@dataclass(frozen=True)
class ObservationGroups:
    """Groups numbered through the blocks in order: t ascending, then prefix index."""

    blocks: list[GroupBlock]
    obs_group: np.ndarray  # (n,) group number per observation


@dataclass(eq=False)
class Dataset:
    """Top-t observations over a common r, with optional simulation truth.

    ``obs[i]`` is observation i's index in :func:`partialrank.perms.prefix_tables`
    and ``true_vertices[i]`` the vertex index of its latent complete ranking;
    all three arrays are read-only. ``lengths``, ``rankings`` and
    ``true_perms`` are derived views: the two lists hold per-r shared objects.
    """

    r: int
    obs: np.ndarray                           # (n,) partial-ranking indices
    true_vertices: np.ndarray | None = None   # (n,) vertex indices
    true_clusters: np.ndarray | None = None   # (n,) 0-based component ids
    _groups: ObservationGroups | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        check_integer(self.r, "r")
        self.r = int(self.r)  # a Python int, whatever integer type r came as
        self.obs = _frozen_ids(self.obs)
        self.true_vertices = _frozen_ids(self.true_vertices)
        self.true_clusters = _frozen_ids(self.true_clusters)
        n = self.obs.shape[0]
        for truth in (self.true_vertices, self.true_clusters):
            if truth is not None and truth.shape != (n,):
                raise DimensionError("truth length does not match observations")
        if not n:
            return
        table = prefix_tables(self.r)
        if self.obs.min() < 0 or self.obs.max() >= len(table.prefixes):
            raise DomainError(f"observation index outside 0..{len(table.prefixes) - 1}")
        if self.true_vertices is not None:
            vertices = self.true_vertices
            if vertices.min() < 0 or vertices.max() >= len(table.of_vertex):
                raise DomainError(f"true vertex index outside 0..{len(table.of_vertex) - 1}")
            implied = table.of_vertex[vertices, self.lengths - 1]
            bad = np.flatnonzero(implied != self.obs)
            if bad.size:
                raise DomainError(f"true ranking of observation {bad[0]} does not start with its observed items")
        if self.true_clusters is not None and self.true_clusters.min() < 0:
            raise DomainError("true cluster ids must be non-negative")

    @classmethod
    def from_rankings(cls, r: int, rankings, true_perms=None, true_clusters=None) -> "Dataset":
        """Build from TopTRanking (and Permutation) objects."""
        rankings = list(rankings)
        for tau in rankings:
            if tau.r != r:
                raise DimensionError(f"observation over {tau.r} items in r={r} dataset")
        index = prefix_tables(r).index
        obs = [index[tau.items] for tau in rankings]
        vertices = None
        if true_perms is not None:
            true_perms = list(true_perms)
            if len(true_perms) != len(rankings):
                raise DimensionError("truth length does not match observations")
            for p in true_perms:
                if p.r != r:
                    raise DimensionError(f"true ranking over {p.r} items in r={r} dataset")
            vertices = [index_of(p) for p in true_perms]
        return cls(r, obs, vertices, true_clusters)

    def __len__(self) -> int:
        return self.obs.shape[0]

    @property
    def lengths(self) -> np.ndarray:
        return np.searchsorted(prefix_tables(self.r).offsets, self.obs, side="right")

    @property
    def rankings(self) -> list[TopTRanking]:
        shared = _shared_rankings(self.r)
        return [shared[i] for i in self.obs.tolist()]

    @property
    def true_perms(self) -> list[Permutation] | None:
        if self.true_vertices is None:
            return None
        shared = _shared_perms(self.r)
        return [shared[v] for v in self.true_vertices.tolist()]

    def subset(self, indices) -> "Dataset":
        """The observations at ``indices``, integers in 0..n-1 (repeats allowed), in that order."""
        indices = np.asarray(indices)
        if indices.size and not (indices.dtype.kind in "iu" and 0 <= indices.min() and indices.max() < len(self)):
            raise DomainError(f"subset indices must be integers in 0..{len(self) - 1}")
        indices = indices.astype(np.int64)
        truth = (None if a is None else a[indices] for a in (self.true_vertices, self.true_clusters))
        return Dataset(self.r, self.obs[indices], *truth)

    def groups(self) -> ObservationGroups:
        """Group observations sharing a prefix; cached after the first call."""
        if self._groups is None:
            table = prefix_tables(self.r)
            counts = np.bincount(self.obs, minlength=table.offsets[-1])
            present = np.flatnonzero(counts)  # ascending, so by t and then by prefix
            bounds = np.searchsorted(present, table.offsets)
            # index -> group number; entries of absent indices are never read
            group_of = np.empty(table.offsets[-1], dtype=np.int64)
            group_of[present] = np.arange(present.size)
            blocks: list[GroupBlock] = []
            for t in range(1, self.r):
                keys = present[bounds[t - 1] : bounds[t]]
                if keys.size:
                    blocks.append(GroupBlock(t, counts[keys], table.members[t - 1][keys - table.offsets[t - 1]]))
            self._groups = ObservationGroups(blocks, group_of[self.obs])
        return self._groups

    # -- CSV round trip ------------------------------------------------------

    def save_csv(self, path: str | Path) -> None:
        """Write the dataset CSV, formatting each distinct row once and gathering the rest."""
        text = _csv_text(self.r)
        columns = [("t,items", self.obs, text.partial)]  # (header, per-row index, spellings)
        if self.true_vertices is not None:
            columns.append(("true_perm", self.true_vertices, text.perm))
        if self.true_clusters is not None:
            codes, code_of = np.unique(self.true_clusters, return_inverse=True)
            columns.append(("true_cluster", code_of, list(map(str, codes.tolist()))))
        key = 0  # digits (prefix, vertex, cluster code): below 8659 * 5040 * n at r = 7, so no int64 overflow
        for _, index, spellings in columns:
            key = key * len(spellings) + index
        distinct, inverse = np.unique(key, return_inverse=True)
        some = np.empty(distinct.size, dtype=np.int64)
        some[inverse] = np.arange(len(self))  # some row of each distinct key
        fields = ([spellings[i] for i in index[some].tolist()] for _, index, spellings in columns)
        lines = np.array(list(map(",".join, zip(*fields))), dtype=object)[inverse].tolist()
        with atomic_open(path) as fh:
            fh.write("\n".join([",".join(name for name, _, _ in columns), *lines]) + "\n")

    @classmethod
    def load_csv(cls, path: str | Path, r: int) -> "Dataset":
        """Parse and validate a dataset file; errors carry line numbers.

        A record is one line. Each distinct line is tokenized by ``csv`` and checked
        once, in order of first appearance, so an error names the file's first bad
        line. Spellings :meth:`save_csv` writes are looked up, others parsed (``02>5``, `` 3``).
        """
        text = _csv_text(r)
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                content = fh.read()
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"file is not valid UTF-8: {exc}") from exc
        if not content:
            logger.warning("empty dataset file %s", path)
            return cls(r, [])
        if "\r" in content:  # the line ends file iteration knows; str.splitlines knows more
            content = content.replace("\r\n", "\n").replace("\r", "\n")
        head, *lines = content.split("\n")
        # 0 for a blank line, then in order of first appearance: line k first appears where max(ids) reaches k
        seen = {line: k for k, line in enumerate(dict.fromkeys(["", *lines]))}
        ids = np.fromiter(map(seen.__getitem__, lines), np.int64, len(lines))
        firsts = np.searchsorted(np.maximum.accumulate(ids), np.arange(1, len(seen))) + 2
        records = _records([head, *list(seen)[1:]], [1, *firsts.tolist()])
        _, header = next(records)
        if header[:2] != ["t", "items"]:
            raise DataFormatError(f"expected header starting with t,items; got {header}", line=1)
        perm_col = header.index("true_perm") if "true_perm" in header else None
        cluster_col = header.index("true_cluster") if "true_cluster" in header else None
        obs, vertices, clusters = [], [], []  # per distinct non-blank line
        for lineno, row in records:
            if len(row) != len(header):
                raise DataFormatError(f"expected {len(header)} fields, got {len(row)}", line=lineno)
            key = text.partial_index.get((row[0], row[1]))
            if key is None:
                key = _parse_partial(row[0], row[1], r, lineno)
            obs.append(key)
            if perm_col is not None:
                vertex = text.perm_index.get(row[perm_col])
                if vertex is None:
                    vertex = _parse_perm(row[perm_col], r, lineno)
                if key not in text.vertex_prefixes[vertex]:
                    message = f"true_perm field {row[perm_col]!r} does not start with items {row[1]!r}"
                    raise DataFormatError(message, line=lineno)
                vertices.append(vertex)
            if cluster_col is not None:
                clusters.append(_parse_cluster(row[cluster_col], lineno))
        rows = ids[ids > 0] - 1  # blank lines dropped
        if not rows.size:
            logger.warning("dataset file %s holds no observations", path)
        columns = ((0, obs), (perm_col, vertices), (cluster_col, clusters))
        return cls(r, *(None if col is None else np.array(v, dtype=np.int64)[rows] for col, v in columns))


def _records(lines: list[str], linenos: list[int]):
    """Each line's number and ``csv`` fields; a quoted field may not run past its line."""
    reader = csv.reader([*lines, ""])  # the "" lets a quote left open on the last line show
    try:
        for k, (lineno, row) in enumerate(zip(linenos, reader), start=1):
            if reader.line_num > k:  # the reader went on to the next line for a closing quote
                raise DataFormatError("quoted field runs past the end of the line", line=lineno)
            yield lineno, row
    except csv.Error as exc:
        raise DataFormatError(str(exc), line=linenos[reader.line_num - 1]) from exc


def _frozen_ids(values) -> np.ndarray | None:
    """A read-only int64 copy of a 1-d sequence of integers; None stays None."""
    if values is None:
        return None
    arr = np.array(values)
    if arr.ndim != 1:
        raise DimensionError(f"expected a 1-d index array, got shape {arr.shape}")
    if arr.size and arr.dtype.kind not in "iu":
        raise DomainError(f"indices must be integers, got {arr.dtype} values")
    arr = arr.astype(np.int64, copy=False)
    arr.flags.writeable = False
    return arr


def _parse_partial(t_field: str, items_field: str, r: int, lineno: int) -> int:
    """The prefix-table index that a ``t,items`` pair spells, else the pair's first error."""
    try:
        t = int(t_field)
    except ValueError as exc:
        raise DataFormatError(f"bad length field {t_field!r}", line=lineno) from exc
    try:
        items = tuple(int(x) for x in items_field.split(">"))
    except ValueError as exc:
        raise DataFormatError(f"bad items field {items_field!r}", line=lineno) from exc
    if t != len(items):
        raise DataFormatError(f"length {t} does not match {len(items)} items", line=lineno)
    try:
        TopTRanking(items, r)
    except DomainError as exc:
        raise DataFormatError(str(exc), line=lineno) from exc
    return prefix_tables(r).index[items]


def _parse_perm(spelling: str, r: int, lineno: int) -> int:
    """The vertex that a ``true_perm`` field spells, else its error."""
    try:
        perm = Permutation.from_ordering([int(x) for x in spelling.split(">")])
    except (ValueError, DomainError) as exc:
        raise DataFormatError(f"bad true_perm field {spelling!r}", line=lineno) from exc
    if perm.r != r:
        raise DataFormatError(f"true_perm field {spelling!r} ranks {perm.r} items, not {r}", line=lineno)
    return index_of(perm)


def _parse_cluster(spelling: str, lineno: int) -> int:
    """The component id that a ``true_cluster`` field spells, else its error."""
    try:
        cluster = int(spelling)
    except ValueError as exc:
        raise DataFormatError(f"bad true_cluster field {spelling!r}", line=lineno) from exc
    if not 0 <= cluster < 2**63:
        raise DataFormatError(f"true_cluster {cluster} is not a non-negative component id", line=lineno)
    return cluster


@dataclass(frozen=True)
class _CsvText:
    """The CSV fields :meth:`Dataset.save_csv` writes at one r, and their inverses."""

    partial: list[str]                         # "t,items" per prefix-table index
    partial_index: dict[tuple[str, str], int]  # (t, items) -> prefix-table index
    perm: list[str]                            # true_perm field per vertex
    perm_index: dict[str, int]                 # true_perm field -> vertex
    vertex_prefixes: list[list[int]]           # per vertex, the prefix-table indices of its prefixes


# Per-r objects and CSV fields shared by every Dataset view, built once per r.


@cache_per_r
def _shared_rankings(r: int) -> tuple[TopTRanking, ...]:
    """One TopTRanking per prefix-table index."""
    return tuple(TopTRanking(p, r) for p in prefix_tables(r).prefixes)


@cache_per_r
def _shared_perms(r: int) -> tuple[Permutation, ...]:
    """One Permutation per vertex, in vertex order."""
    return tuple(Permutation(tuple(ranks)) for ranks in perm_table(r).ranks.tolist())


@cache_per_r
def _csv_text(r: int) -> _CsvText:
    table = prefix_tables(r)
    pairs = [(str(len(prefix)), ">".join(map(str, prefix))) for prefix in table.prefixes]
    perm = [">".join(map(str, ordering)) for ordering in perm_table(r).orderings.tolist()]
    return _CsvText(
        [",".join(pair) for pair in pairs],
        {pair: i for i, pair in enumerate(pairs)},
        perm,
        {spelling: v for v, spelling in enumerate(perm)},
        table.of_vertex.tolist(),
    )


# ---------------------------------------------------------------------------
# Observable partial-ranking distribution.
# ---------------------------------------------------------------------------


def enumerate_partial_rankings(r: int) -> list[TopTRanking]:
    """Canonical enumeration of all top-t rankings: t ascending, prefixes lex."""
    return list(_shared_rankings(r))


def partial_prob_vector(theta: MixtureParams, phi: MissingTable) -> np.ndarray:
    """Probabilities of every partial ranking, in prefix-table order."""
    if theta.r != phi.r:
        raise DimensionError(f"model over {theta.r} items, mechanism over {phi.r}")
    pmf = mixture_pmf(theta)
    members = prefix_tables(theta.r).members
    return np.concatenate([(phi.probs[m, t - 1] * pmf[m]).sum(axis=1) for t, m in enumerate(members, start=1)])


def empirical_partial_counts(dataset: Dataset) -> np.ndarray:
    """Observation counts aligned with :func:`enumerate_partial_rankings`."""
    return np.bincount(dataset.obs, minlength=prefix_tables(dataset.r).offsets[-1])


def partial_pmf(tau: TopTRanking, theta: MixtureParams, phi: MissingTable) -> float:
    """P(tau) = sum over compatible complete rankings of P(t|pi) P(pi)."""
    if tau.r != theta.r or tau.r != phi.r:
        raise DimensionError("dimension mismatch between observation, model, and mechanism")
    table = prefix_tables(tau.r)
    members = table.members[tau.t - 1][table.index[tau.items] - table.offsets[tau.t - 1]]
    pmf = mixture_pmf(theta)
    return float((phi.probs[members, tau.t - 1] * pmf[members]).sum())


# ---------------------------------------------------------------------------
# Simulation-study mechanisms.
# ---------------------------------------------------------------------------


def tilt_concentration_mechanism(c: float, c_star: float, big_r: float, sigma0: Permutation) -> MissingTable:
    """Binary mechanism whose complete-observation rate tilts the concentration.

    Row pi is (1 - C_pi, 0, ..., 0, C_pi) with

        C_pi = min{1, (Z(c)/Z(c_star)) * R * exp(-(c_star - c) d(pi, sigma0))},

    so when the min never binds the t = r-1 marginal, renormalized, is the
    single-component model with concentration c_star.
    """
    for value, name in ((c, "concentration c"), (c_star, "concentration c_star"), (big_r, "R")):
        check_real(value, name)
    if not (c > 0 and c_star > 0):
        raise DomainError(f"concentrations c and c_star must be positive, got {c} and {c_star}")
    if not 0 <= big_r <= 1:
        raise DomainError(f"R must lie in [0, 1], got {big_r}")
    r = sigma0.r
    if r < 3:
        raise DomainError("binary mechanism needs r >= 3 so that t=1 and t=r-1 differ")
    dist = distances_from(r, index_of(sigma0))
    log_ratio = log_normalizer(c, r) - log_normalizer(c_star, r)
    rate = np.minimum(1.0, big_r * np.exp(log_ratio - (c_star - c) * dist))
    probs = np.zeros((dist.shape[0], r - 1))
    probs[:, 0] = 1.0 - rate
    probs[:, r - 2] = rate
    return MissingTable(r, probs)


def tilt_mixture_mechanism(w, w_star, big_r: float, r: int) -> ClusterMissingSpec:
    """Binary per-cluster mechanism with complete-observation rate (w*_k/w_k) R."""
    w = np.asarray(w, dtype=float)
    w_star = np.asarray(w_star, dtype=float)
    if w.shape != w_star.shape:
        raise DimensionError("w and w_star must have the same length")
    for name, vec in (("w", w), ("w_star", w_star)):
        check_simplex(vec, 1e-12, f"{name} must lie on the simplex")
    if not np.all(w > 0):
        raise DomainError("w entries must be positive")
    check_real(big_r, "R")
    if not 0 <= big_r <= 1:
        raise DomainError(f"R must lie in [0, 1], got {big_r}")
    if r < 3:
        raise DomainError("binary mechanism needs r >= 3 so that t=1 and t=r-1 differ")
    rate = (w_star / w) * big_r
    if np.any(rate > 1):
        raise DomainError(f"(w*_k/w_k) R exceeds 1: {rate}")
    rows = np.zeros((w.shape[0], r - 1))
    rows[:, 0] = 1.0 - rate
    rows[:, r - 2] = rate
    return ClusterMissingSpec(r, rows)


def induced_table(spec: ClusterMissingSpec, theta: MixtureParams) -> MissingTable:
    """Per-vertex table equivalent to a per-cluster mechanism.

    P(t | pi) = sum_k P(k | pi) phi_{k,t}; the induced (pi, t) joint law equals
    the generator's, which is what the losses need.
    """
    if spec.n_clusters != theta.n_clusters:
        raise DimensionError("cluster counts differ")
    if spec.r != theta.r:
        raise DimensionError("item counts differ")
    logits = component_log_pmf(theta) + np.log(theta.weights)[:, None]
    top = logits.max(axis=0)
    gamma = np.exp(logits - top)
    gamma /= gamma.sum(axis=0)
    return MissingTable(spec.r, gamma.T @ spec.rows)


def generate_dataset(theta: MixtureParams, mech: MissingTable | ClusterMissingSpec, n: int, rng_seed: int) -> Dataset:
    """Draw (pi, k), draw t given pi or k, truncate; truth rides along."""
    if mech.r != theta.r:
        raise DimensionError(f"mechanism over {mech.r} items, model over {theta.r}")
    if isinstance(mech, ClusterMissingSpec) and mech.n_clusters != theta.n_clusters:
        raise DimensionError("cluster counts differ")
    check_integer(n, "n")
    r = theta.r
    rng = np.random.default_rng(rng_seed)
    vertices, clusters = sample_vertices(theta, n, rng)
    if isinstance(mech, ClusterMissingSpec):
        rows = mech.rows[clusters]
    else:
        rows = mech.probs[vertices]
    cdf = np.cumsum(rows, axis=1)
    draws = rng.random(n)
    ts = (draws[:, None] > cdf).sum(axis=1) + 1
    ts = np.minimum(ts, r - 1)
    obs = prefix_tables(r).of_vertex[vertices, ts - 1]
    return Dataset(r, obs, vertices, clusters)
