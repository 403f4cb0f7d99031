"""Distance-based complete-ranking models: single component and mixtures.

A component with location ``sigma`` and concentration ``c`` puts probability
``exp(-c * d(pi, sigma)) / Z(c)`` on each complete ranking ``pi``, where ``d``
is the Kendall distance and ``Z(c)`` depends only on ``c``:

    Z(c) = prod_{j=1..r} (1 - exp(-j c)) / (1 - exp(-c)).

All probability arithmetic stays in log space until the API boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .perms import Permutation, distances_from, index_of, kendall_distance, perm_table, unindex

WEIGHT_SUM_TOL = 1e-12


def check_simplex(rows, tol: float, message: str, entries_message: str | None = None) -> None:
    """Raise :class:`DomainError` with ``entries_message`` (default ``message``) unless every entry lies in
    [0, 1], then with ``message`` unless each row (last axis) sums to 1 within ``tol``. NaN fails both."""
    rows = np.asarray(rows, dtype=float)
    if not np.all((rows >= 0) & (rows <= 1)):
        raise DomainError(entries_message or message)
    if not np.all(np.abs(rows.sum(axis=-1) - 1.0) <= tol):
        raise DomainError(message)


@dataclass(frozen=True)
class MallowsParams:
    """Location/concentration pair for one component."""

    sigma: Permutation
    c: float

    def __post_init__(self):
        if not self.c > 0:
            raise DomainError(f"concentration must be positive, got {self.c}")

    @property
    def r(self) -> int:
        return self.sigma.r


@dataclass(frozen=True)
class MixtureParams:
    """K components plus a weight vector on the simplex."""

    components: tuple[MallowsParams, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        k = len(self.components)
        if k < 1:
            raise DomainError("need at least one component")
        if len(self.weights) != k:
            raise DimensionError(f"{k} components but {len(self.weights)} weights")
        if not all(w > 0 for w in self.weights):
            raise DomainError(f"weights must be positive: {self.weights}")
        check_simplex(self.weights, WEIGHT_SUM_TOL, f"weights must sum to 1: {self.weights}")
        if len({comp.r for comp in self.components}) != 1:
            raise DimensionError("components disagree on item count")

    @property
    def r(self) -> int:
        return self.components[0].r

    @property
    def n_clusters(self) -> int:
        return len(self.components)

    @classmethod
    def single(cls, sigma: Permutation, c: float) -> "MixtureParams":
        return cls((MallowsParams(sigma, c),), (1.0,))


def log_normalizer(c: float, r: int) -> float:
    """log Z(c) by the closed product form; the uniform limit c=0 gives log r!."""
    if c < 0:
        raise DomainError(f"concentration must be nonnegative, got {c}")
    if c == 0:
        return math.log(math.factorial(r))
    # expm1 keeps 1 - exp(-jc) accurate when jc is tiny
    total = 0.0
    for j in range(1, r + 1):
        total += math.log(-math.expm1(-j * c))
    return total - r * math.log(-math.expm1(-c))


def component_log_pmf(theta: MixtureParams) -> np.ndarray:
    """Per-component log probabilities over all of S_r, shape (K, V)."""
    r = theta.r
    v = perm_table(r).n_vertices
    out = np.empty((theta.n_clusters, v))
    for k, comp in enumerate(theta.components):
        dist = distances_from(r, index_of(comp.sigma))
        out[k] = -comp.c * dist - log_normalizer(comp.c, r)
    return out


def log_mixture_pmf(theta: MixtureParams) -> np.ndarray:
    """Mixture log pmf over all of S_r, shape (V,)."""
    logits = component_log_pmf(theta) + np.log(theta.weights)[:, None]
    top = logits.max(axis=0)
    return top + np.log(np.exp(logits - top).sum(axis=0))


def mixture_pmf(theta: MixtureParams) -> np.ndarray:
    """Mixture pmf over all of S_r, shape (V,); strictly positive."""
    return np.exp(log_mixture_pmf(theta))


def complete_pmf(pi: Permutation, theta: MixtureParams) -> float:
    """Probability of a single complete ranking under the mixture."""
    if pi.r != theta.r:
        raise DimensionError(f"ranking over {pi.r} items, model over {theta.r}")
    total_log = -np.inf
    for comp, w in zip(theta.components, theta.weights):
        log_term = (
            math.log(w)
            - comp.c * kendall_distance(pi, comp.sigma)
            - log_normalizer(comp.c, pi.r)
        )
        total_log = np.logaddexp(total_log, log_term)
    return float(np.exp(total_log))


def sample_vertices(theta: MixtureParams, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Draw n (vertex index, cluster id) pairs by exact inverse-CDF sampling.

    Draw order is fixed (cluster uniforms first, then ranking uniforms) so
    results are reproducible bit for bit given the generator state.
    """
    weights_cdf = np.cumsum(theta.weights)
    clusters = np.searchsorted(weights_cdf, rng.random(n), side="right")
    clusters = np.minimum(clusters, theta.n_clusters - 1).astype(np.int64)
    pmf_cdf = np.cumsum(np.exp(component_log_pmf(theta)), axis=1)
    u = rng.random(n)
    vertices = np.empty(n, dtype=np.int64)
    for k in range(theta.n_clusters):
        mask = clusters == k
        vertices[mask] = np.searchsorted(pmf_cdf[k], u[mask], side="right")
    vertices = np.minimum(vertices, pmf_cdf.shape[1] - 1)
    return vertices, clusters


def sample_complete(theta: MixtureParams, n: int, rng_seed: int) -> list[tuple[Permutation, int]]:
    """n i.i.d. draws of (complete ranking, cluster id), deterministic per seed."""
    rng = np.random.default_rng(rng_seed)
    vertices, clusters = sample_vertices(theta, n, rng)
    return [(unindex(int(v), theta.r), int(k)) for v, k in zip(vertices, clusters)]
