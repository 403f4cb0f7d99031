"""Missing mechanisms, the observable top-t distribution, and data generation.

The missing parameter is a table with one row per complete ranking: row ``pi``
is the conditional distribution of the observed prefix length t over
``{1, ..., r-1}``. A top-(r-1) ranking pins down the complete ranking, so
"nothing missing" is t = r-1 and "all but the first preference missing" is
t = 1.

Dataset CSV format (bit-exact; UTF-8, LF line endings)::

    t,items
    3,2>5>1

``items`` holds the top-t item ids joined by ``>`` in preference order.
Simulated data may carry two extra columns: ``true_perm`` (the latent
complete ranking, ``>``-joined) and ``true_cluster`` (0-based component id).

In memory a :class:`Dataset` is arrays, not per-observation objects: ``obs[i]``
is observation i's position in :func:`enumerate_partial_rankings` order (the
length-t block's offset plus the prefix's row in the length-t
:class:`~partialrank.perms.PrefixTable`), and ``true_vertices[i]`` is the
vertex index of its latent complete ranking. Generation, the CSV round trip
and grouping work on these arrays; ``Dataset.rankings`` and
``Dataset.true_perms`` are views built from per-r shared objects, and
``Dataset.from_rankings`` converts object lists.
"""

from __future__ import annotations

import csv
import functools
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataFormatError, DimensionError, DomainError
from .mallows import MixtureParams, component_log_pmf, log_normalizer, mixture_pmf, sample_vertices
from .perms import (
    DEFAULT_CAP,
    Permutation,
    TopTRanking,
    check_cap,
    distances_from,
    index_of,
    perm_table,
    prefix_tables,
    vertex_prefix,
)
from .util import atomic_open, check_integer

logger = logging.getLogger(__name__)

ROW_SUM_TOL = 1e-10


def _freeze_simplex_rows(rows: np.ndarray) -> None:
    """Check that every row lies on the simplex, then make the array read-only."""
    if np.any(rows < 0) or np.any(rows > 1):
        raise DomainError("entries must lie in [0, 1]")
    if np.max(np.abs(rows.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
        raise DomainError("rows must sum to 1")
    rows.flags.writeable = False


@dataclass(frozen=True)
class MissingTable:
    """Per-vertex length distributions: ``probs[v, t-1] = P(t | pi_v)``."""

    r: int
    probs: np.ndarray  # (r!, r-1) rows on the simplex

    def __post_init__(self):
        expected = (math.factorial(self.r), self.r - 1)
        if self.probs.shape != expected:
            raise DimensionError(f"expected shape {expected}, got {self.probs.shape}")
        _freeze_simplex_rows(self.probs)

    @classmethod
    def uniform(cls, r: int, cap: int = DEFAULT_CAP) -> "MissingTable":
        v = perm_table(r, cap).n_vertices
        return cls(r, np.full((v, r - 1), 1.0 / (r - 1)))

    @classmethod
    def homogeneous(cls, r: int, row, cap: int = DEFAULT_CAP) -> "MissingTable":
        """The same length distribution at every vertex (the MAR case)."""
        v = perm_table(r, cap).n_vertices
        row = np.asarray(row, dtype=float)
        return cls(r, np.tile(row, (v, 1)))


@dataclass(frozen=True)
class ClusterMissingSpec:
    """Generator-side mechanism where t depends on the mixture component."""

    r: int
    rows: np.ndarray  # (K, r-1) rows on the simplex

    def __post_init__(self):
        if self.rows.ndim != 2 or self.rows.shape[1] != self.r - 1:
            raise DimensionError(f"expected (K, {self.r - 1}), got {self.rows.shape}")
        _freeze_simplex_rows(self.rows)

    @property
    def n_clusters(self) -> int:
        return self.rows.shape[0]


# ---------------------------------------------------------------------------
# Datasets.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupBlock:
    """Observations of one length, grouped by identical prefix."""

    t: int
    rows: np.ndarray      # (G,) rows into the length-t PrefixTable
    counts: np.ndarray    # (G,) multiplicities
    members: np.ndarray   # (G, (r-t)!) compatible vertex indices


@dataclass(frozen=True)
class ObservationGroups:
    r: int
    n: int
    blocks: list[GroupBlock]
    obs_block: np.ndarray  # (n,) block index per observation
    obs_pos: np.ndarray    # (n,) row within the block per observation


@dataclass(eq=False)
class Dataset:
    """Top-t observations over a common r, with optional simulation truth.

    ``obs[i]`` is observation i's position in :func:`enumerate_partial_rankings`
    order and ``true_vertices[i]`` the vertex index of its latent complete
    ranking; all three arrays are read-only. ``lengths``, ``rankings`` and
    ``true_perms`` are derived views: the two lists hold per-r shared objects.
    """

    r: int
    obs: np.ndarray                           # (n,) partial-ranking indices
    true_vertices: np.ndarray | None = None   # (n,) vertex indices
    true_clusters: np.ndarray | None = None   # (n,) 0-based component ids
    _groups: ObservationGroups | None = field(default=None, repr=False)

    def __post_init__(self):
        self.obs = _frozen_ids(self.obs)
        self.true_vertices = _frozen_ids(self.true_vertices)
        self.true_clusters = _frozen_ids(self.true_clusters)
        n = self.obs.shape[0]
        for truth in (self.true_vertices, self.true_clusters):
            if truth is not None and truth.shape != (n,):
                raise DimensionError("truth length does not match observations")
        if not n:
            return
        offsets = _offsets(self.r)
        if self.obs.min() < 0 or self.obs.max() >= offsets[-1]:
            raise DomainError(f"observation index outside 0..{offsets[-1] - 1}")
        if self.true_vertices is not None:
            vertices = self.true_vertices
            if vertices.min() < 0 or vertices.max() >= math.factorial(self.r):
                raise DomainError(f"true vertex index outside 0..{math.factorial(self.r) - 1}")
            t = self.lengths
            implied = offsets[t - 1] + vertex_prefix(self.r, self.r)[vertices, t - 1]
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
        tables = prefix_tables(r)
        offsets = _offsets(r)
        obs = [offsets[tau.t - 1] + tables[tau.t - 1].index[tau.items] for tau in rankings]
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
        return np.searchsorted(_offsets(self.r), self.obs, side="right")

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
        indices = np.asarray(indices, dtype=np.int64)
        truth = (None if a is None else a[indices] for a in (self.true_vertices, self.true_clusters))
        return Dataset(self.r, self.obs[indices], *truth)

    def groups(self, cap: int = DEFAULT_CAP) -> ObservationGroups:
        """Group observations sharing a prefix; cached after the first call."""
        if self._groups is None:
            tables = prefix_tables(self.r, cap)
            offsets = _offsets(self.r)
            counts = np.bincount(self.obs, minlength=offsets[-1])
            present = np.flatnonzero(counts)  # ascending, so by t and then by row
            bounds = np.searchsorted(present, offsets)
            # key -> (block, pos); entries of absent keys are never read
            block_of = np.empty(offsets[-1], dtype=np.int64)
            pos_of = np.empty(offsets[-1], dtype=np.int64)
            blocks: list[GroupBlock] = []
            for t in range(1, self.r):
                keys = present[bounds[t - 1] : bounds[t]]
                if keys.size == 0:
                    continue
                block_of[keys] = len(blocks)
                pos_of[keys] = np.arange(keys.size)
                rows = (keys - offsets[t - 1]).astype(np.int32)
                blocks.append(GroupBlock(t, rows, counts[keys], tables[t - 1].members[rows]))
            self._groups = ObservationGroups(self.r, len(self), blocks, block_of[self.obs], pos_of[self.obs])
        return self._groups

    # -- CSV round trip ------------------------------------------------------

    def save_csv(self, path: str | Path) -> None:
        text = _csv_text(self.r)
        header = ["t", "items"]
        columns = [[text.partial[i] for i in self.obs.tolist()]]
        if self.true_vertices is not None:
            header.append("true_perm")
            columns.append([text.perm[v] for v in self.true_vertices.tolist()])
        if self.true_clusters is not None:
            header.append("true_cluster")
            columns.append(list(map(str, self.true_clusters.tolist())))
        lines = [",".join(header), *map(",".join, zip(*columns))]
        with atomic_open(path) as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def load_csv(cls, path: str | Path, r: int, cap: int = DEFAULT_CAP) -> "Dataset":
        """Parse and validate a dataset file in one pass; errors carry line numbers.

        Each field is looked up by its spelling in a dict that starts with the
        spellings :meth:`save_csv` writes. A spelling met for the first time
        goes through that field's parser, which accepts other spellings of
        valid values (``02>5``, `` 3``) and raises the field's error, so a
        non-canonical spelling costs what a canonical one does from then on.
        """
        check_cap(r, cap)
        text = _csv_text(r)
        partials, perms, cluster_ids = dict(text.partial_index), dict(text.perm_index), {}
        obs, vertices, clusters = [], [], []
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                reader = csv.reader(fh)
                header = next(reader, None)
                if header is None:
                    logger.warning("empty dataset file %s", path)
                    return cls(r, [])
                if header[:2] != ["t", "items"]:
                    raise DataFormatError(f"expected header starting with t,items; got {header}", line=1)
                width = len(header)
                perm_col = header.index("true_perm") if "true_perm" in header else None
                cluster_col = header.index("true_cluster") if "true_cluster" in header else None
                for lineno, row in enumerate(reader, start=2):
                    if not row:  # csv.reader yields [] for a blank line
                        continue
                    if len(row) != width:
                        raise DataFormatError(f"expected {width} fields, got {len(row)}", line=lineno)
                    key = partials.get((row[0], row[1]))
                    if key is None:
                        key = partials[row[0], row[1]] = _parse_partial(row[0], row[1], r, lineno)
                    obs.append(key)
                    if perm_col is not None:
                        spelling = row[perm_col]
                        vertex = perms.get(spelling)
                        if vertex is None:
                            vertex = perms[spelling] = _parse_perm(spelling, r, lineno)
                        if key not in text.vertex_prefixes[vertex]:
                            message = f"true_perm field {spelling!r} does not start with items {row[1]!r}"
                            raise DataFormatError(message, line=lineno)
                        vertices.append(vertex)
                    if cluster_col is not None:
                        spelling = row[cluster_col]
                        cluster = cluster_ids.get(spelling)
                        if cluster is None:
                            cluster = cluster_ids[spelling] = _parse_cluster(spelling, lineno)
                        clusters.append(cluster)
        except csv.Error as exc:
            raise DataFormatError(str(exc), line=reader.line_num) from exc
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"file is not valid UTF-8: {exc}") from exc
        if not obs:
            logger.warning("dataset file %s holds no observations", path)
        return cls(r, obs, None if perm_col is None else vertices, None if cluster_col is None else clusters)


def _offsets(r: int) -> np.ndarray:
    """Start of each length's block in enumeration order, shape (r,); the last entry is the total."""
    return np.cumsum([0] + [math.perm(r, t) for t in range(1, r)])


def _frozen_ids(values) -> np.ndarray | None:
    """A read-only int64 copy of a 1-d index sequence; None stays None."""
    if values is None:
        return None
    arr = np.array(values, dtype=np.int64)
    if arr.ndim != 1:
        raise DimensionError(f"expected a 1-d index array, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _parse_partial(t_field: str, items_field: str, r: int, lineno: int) -> int:
    """The partial-ranking index that a ``t,items`` pair spells, else the pair's first error."""
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
    return int(_offsets(r)[t - 1]) + prefix_tables(r, r)[t - 1].index[items]


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

    partial: list[str]                         # "t,items" per partial-ranking index
    partial_index: dict[tuple[str, str], int]  # (t, items) -> partial-ranking index
    perm: list[str]                            # true_perm field per vertex
    perm_index: dict[str, int]                 # true_perm field -> vertex
    vertex_prefixes: list[list[int]]           # per vertex, the partial-ranking indices of its prefixes


# Per-r objects and CSV fields shared by every Dataset view, built once per r.
# Views build them with cap = r: the cap guards the calls that create data
# (generate_dataset, from_rankings, load_csv), and a view only reads tables
# at the dataset's r.


@functools.cache
def _shared_rankings(r: int) -> tuple[TopTRanking, ...]:
    """One TopTRanking per partial ranking, in enumeration order."""
    return tuple(TopTRanking(p, r) for table in prefix_tables(r, r) for p in table.prefixes)


@functools.cache
def _shared_perms(r: int) -> tuple[Permutation, ...]:
    """One Permutation per vertex, in vertex order."""
    return tuple(Permutation(tuple(ranks)) for ranks in perm_table(r, r).ranks.tolist())


@functools.cache
def _csv_text(r: int) -> _CsvText:
    pairs = [(str(table.t), ">".join(map(str, prefix))) for table in prefix_tables(r, r) for prefix in table.prefixes]
    perm = [">".join(map(str, ordering)) for ordering in perm_table(r, r).orderings.tolist()]
    return _CsvText(
        [",".join(pair) for pair in pairs],
        {pair: i for i, pair in enumerate(pairs)},
        perm,
        {spelling: v for v, spelling in enumerate(perm)},
        (_offsets(r)[:-1] + vertex_prefix(r, r)).tolist(),
    )


# ---------------------------------------------------------------------------
# Observable partial-ranking distribution.
# ---------------------------------------------------------------------------


def enumerate_partial_rankings(r: int, cap: int = DEFAULT_CAP) -> list[TopTRanking]:
    """Canonical enumeration of all top-t rankings: t ascending, prefixes lex."""
    check_cap(r, cap)
    return list(_shared_rankings(r))


def partial_prob_vector(theta: MixtureParams, phi: MissingTable, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Probabilities of every partial ranking, in enumeration order."""
    if theta.r != phi.r:
        raise DimensionError(f"model over {theta.r} items, mechanism over {phi.r}")
    pmf = mixture_pmf(theta, cap)
    chunks = []
    for table in prefix_tables(theta.r, cap):
        members = table.members
        chunks.append((phi.probs[members, table.t - 1] * pmf[members]).sum(axis=1))
    return np.concatenate(chunks)


def empirical_partial_counts(dataset: Dataset, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Observation counts aligned with :func:`enumerate_partial_rankings`."""
    check_cap(dataset.r, cap)
    return np.bincount(dataset.obs, minlength=_offsets(dataset.r)[-1])


def partial_pmf(tau: TopTRanking, theta: MixtureParams, phi: MissingTable) -> float:
    """P(tau) = sum over compatible complete rankings of P(t|pi) P(pi)."""
    if tau.r != theta.r or tau.r != phi.r:
        raise DimensionError("dimension mismatch between observation, model, and mechanism")
    table = prefix_tables(tau.r)[tau.t - 1]
    members = table.members[table.index[tau.items]]
    pmf = mixture_pmf(theta)
    return float((phi.probs[members, tau.t - 1] * pmf[members]).sum())


# ---------------------------------------------------------------------------
# Simulation-study mechanisms.
# ---------------------------------------------------------------------------


def tilt_concentration_mechanism(
    c: float, c_star: float, big_r: float, sigma0: Permutation, cap: int = DEFAULT_CAP
) -> MissingTable:
    """Binary mechanism whose complete-observation rate tilts the concentration.

    Row pi is (1 - C_pi, 0, ..., 0, C_pi) with

        C_pi = min{1, (Z(c)/Z(c_star)) * R * exp(-(c_star - c) d(pi, sigma0))},

    so when the min never binds the t = r-1 marginal, renormalized, is the
    single-component model with concentration c_star.
    """
    if c <= 0 or c_star <= 0:
        raise DomainError("concentrations must be positive")
    if not 0 <= big_r <= 1:
        raise DomainError(f"R must lie in [0, 1], got {big_r}")
    r = sigma0.r
    if r < 3:
        raise DomainError("binary mechanism needs r >= 3 so that t=1 and t=r-1 differ")
    dist = distances_from(r, index_of(sigma0), cap)
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
        if np.any(vec < 0) or abs(vec.sum() - 1.0) > 1e-12:
            raise DomainError(f"{name} must lie on the simplex")
    if np.any(w == 0):
        raise DomainError("w entries must be positive")
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


def induced_table(spec: ClusterMissingSpec, theta: MixtureParams, cap: int = DEFAULT_CAP) -> MissingTable:
    """Per-vertex table equivalent to a per-cluster mechanism.

    P(t | pi) = sum_k P(k | pi) phi_{k,t}; the induced (pi, t) joint law equals
    the generator's, which is what the losses need.
    """
    if spec.n_clusters != theta.n_clusters:
        raise DimensionError("cluster counts differ")
    if spec.r != theta.r:
        raise DimensionError("item counts differ")
    logits = component_log_pmf(theta, cap) + np.log(theta.weights)[:, None]
    top = logits.max(axis=0)
    gamma = np.exp(logits - top)
    gamma /= gamma.sum(axis=0)
    return MissingTable(spec.r, gamma.T @ spec.rows)


def generate_dataset(
    theta: MixtureParams,
    mech: MissingTable | ClusterMissingSpec,
    n: int,
    rng_seed: int,
    cap: int = DEFAULT_CAP,
) -> Dataset:
    """Draw (pi, k), draw t given pi or k, truncate; truth rides along."""
    if mech.r != theta.r:
        raise DimensionError(f"mechanism over {mech.r} items, model over {theta.r}")
    if isinstance(mech, ClusterMissingSpec) and mech.n_clusters != theta.n_clusters:
        raise DimensionError("cluster counts differ")
    check_integer(n, "n")
    r = theta.r
    rng = np.random.default_rng(rng_seed)
    vertices, clusters = sample_vertices(theta, n, rng, cap)
    if isinstance(mech, ClusterMissingSpec):
        rows = mech.rows[clusters]
    else:
        rows = mech.probs[vertices]
    cdf = np.cumsum(rows, axis=1)
    draws = rng.random(n)
    ts = (draws[:, None] > cdf).sum(axis=1) + 1
    ts = np.minimum(ts, r - 1)
    obs = _offsets(r)[ts - 1] + vertex_prefix(r, cap)[vertices, ts - 1]
    return Dataset(r, obs, vertices, clusters)
