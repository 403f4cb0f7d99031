"""EM estimation of the ranking mixture and the per-vertex missing table.

One EM iteration computes posterior responsibilities over the latent complete
rankings (and components) behind each observation, then minimizes the two
separable surrogate pieces: location/concentration/weights per component, and
the missing table, which goes through the graph-regularized solver when
``lam > 0`` and through the closed form ``q[v,t] / sum_t q[v,t]`` when
``lam = 0``.

Two devices from the experimental protocol are built in: several restarts
from distinct initial locations, and a location-transition proposal during
the first few iterations. A proposal is only accepted when it does not
increase the penalized objective, which keeps every recorded trace
non-increasing. The missing-table step keeps the previous table whenever an
inexact inner solve would increase its surrogate objective, for the same
reason.

The E-step also yields the observable likelihood, so each accepted
(theta, phi) pair is scored by the E-step that the next iteration uses.

Restarts run one after another, and each fold fit of a cross-validation is
one :func:`fit` call. Each graph-regularized missing-table step is one
:func:`admm.solve_phi` call, certified to its duality-gap bound.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import admm, util
from .admm import closed_form_phi
from .errors import (
    DataFormatError,
    DegenerateClusterError,
    DegenerateLikelihoodError,
    DimensionError,
    DomainError,
)
from .mallows import MallowsParams, MixtureParams, component_log_pmf
from .missing import Dataset, MissingTable, ObservationGroups
from .perms import Permutation, build_cayley_graph, index_of, perm_table, unindex
from .util import check_integer, write_json

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FitConfig:
    """Knobs for :func:`fit` and :func:`fit_me`."""

    n_clusters: int = 1
    lam: float = 10.0
    em_tol: float = 1.0
    em_max_iter: int = 200
    admm_max_iter: int = 100  # Newton steps per phi-step
    restarts: int = 10
    transition_iters: int = 5
    c_min: float = 1e-4
    c_max: float = 20.0
    seed: int = 0

    def __post_init__(self):
        counts = {"n_clusters": 1, "em_max_iter": 1, "admm_max_iter": 1, "restarts": 1, "transition_iters": 0, "seed": 0}
        for name, low in counts.items():
            check_integer(getattr(self, name), name, low)
            # a Python int, so the config echo in the fit JSON can be written
            object.__setattr__(self, name, int(getattr(self, name)))
        if not all(math.isfinite(x) for x in (self.lam, self.em_tol, self.c_min, self.c_max)):
            raise DomainError("lam, em_tol and concentration bounds must be finite")
        if self.lam < 0:
            raise DomainError("need lam >= 0")
        if self.em_tol <= 0:
            raise DomainError("em_tol must be positive")
        if not 0 < self.c_min < self.c_max:
            raise DomainError("need 0 < c_min < c_max")


@dataclass
class Responsibilities:
    """Posterior weights per observation plus the aggregates the M-steps use."""

    r: int
    n_clusters: int
    q_table: np.ndarray        # (V, r-1): sum over observations of length t
    cluster_vertex: np.ndarray  # (K, V): sum over observations per component
    cluster_mass: np.ndarray   # (K,)
    nll: float                 # observable NLL of the data at the (theta, phi) behind the weights
    groups: ObservationGroups = field(repr=False)
    block_weights: list[np.ndarray] = field(repr=False)  # per block, (K, G, m)

    def posteriors(self) -> np.ndarray:
        """Per-observation component posteriors, shape (n, K)."""
        # one (groups, K) table of group posteriors, read by each observation's group
        table = np.concatenate([np.empty((0, self.n_clusters))] + [w.sum(axis=2).T for w in self.block_weights])
        return table[self.groups.obs_group]


def e_step(theta: MixtureParams, phi: MissingTable, dataset: Dataset) -> Responsibilities:
    """Posterior weights over compatible rankings, in log space throughout.

    The normalizers of the weights also give the observable negative
    log-likelihood, carried as ``nll``.
    """
    if theta.r != dataset.r or phi.r != dataset.r:
        raise DimensionError("model, mechanism, and data disagree on item count")
    groups = dataset.groups()
    n_vertices = perm_table(dataset.r).n_vertices
    k = theta.n_clusters
    log_comp = component_log_pmf(theta) + np.log(theta.weights)[:, None]
    with np.errstate(divide="ignore"):  # only the entries of phi that a block reads
        log_phis = [np.log(phi.probs[block.members, block.t - 1]) for block in groups.blocks]

    q_table = np.zeros((n_vertices, dataset.r - 1))
    cluster_vertex = np.zeros((k, n_vertices))
    block_weights: list[np.ndarray] = []
    nll = 0.0
    first = 0  # group number of the block's first group
    for block, log_phi in zip(groups.blocks, log_phis):
        logits = log_comp[:, block.members] + log_phi[None, :, :]
        top = logits.max(axis=(0, 2))
        if np.any(np.isneginf(top)):
            bad = int(np.argmax(groups.obs_group == first + np.argmax(np.isneginf(top))))
            raise DegenerateLikelihoodError(
                f"observation {bad} has zero likelihood: the mechanism vanishes on its compatible set"
            )
        weights = np.exp(logits - top[None, :, None])
        sums = weights.sum(axis=(0, 2))
        nll -= float((block.counts * (top + np.log(sums))).sum())
        weights /= sums[None, :, None]
        block_weights.append(weights)
        # each vertex has one top-t prefix, so a block's member rows never overlap
        scaled = weights * block.counts[None, :, None]
        q_table[block.members, block.t - 1] = scaled.sum(axis=0)
        cluster_vertex[:, block.members] += scaled
        first += block.counts.size
    return Responsibilities(
        r=dataset.r,
        n_clusters=k,
        q_table=q_table,
        cluster_vertex=cluster_vertex,
        cluster_mass=cluster_vertex.sum(axis=1),
        nll=nll,
        groups=groups,
        block_weights=block_weights,
    )


def _concentration(distance: float, mass: float, r: int, c_min: float, c_max: float) -> float:
    """The c in [c_min, c_max] that minimizes F(c) = c * distance + mass * log Z(c).

    F'(c) = distance - mass * E_c[d] and F''(c) = mass * Var_c[d] > 0 in
    closed form (Fligner & Verducci 1986), with E_c[d] = sum over j = 2..r of
    e^-c / (1 - e^-c) - j e^-jc / (1 - e^-jc). A bound where F' does not
    change sign is the answer; otherwise safeguarded Newton steps on F' = 0,
    bisecting where a step leaves the bracket, pin the root to rounding.
    """

    def slopes(c: float) -> tuple[float, float]:
        base = math.exp(-c) / -math.expm1(-c)
        base_var = base / -math.expm1(-c)
        mean = var = 0.0
        for j in range(2, r + 1):
            e, a = math.exp(-j * c), -math.expm1(-j * c)
            mean += base - j * e / a
            var += base_var - j * j * e / (a * a)
        return distance - mass * mean, mass * var

    lo, hi = c_min, c_max
    if slopes(lo)[0] >= 0:
        return lo
    if slopes(hi)[0] <= 0:
        return hi
    c = lo
    for _ in range(100):
        first, second = slopes(c)
        if first == 0:
            return c
        if first < 0:
            lo = c
        else:
            hi = c
        step = c - first / second if second > 0 else lo
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
            if not lo < step < hi:  # the bracket holds no float between its ends
                return c
        if step == c:
            return c
        c = step
    return c


def m_step_theta(
    q: Responsibilities,
    dataset: Dataset,
    n_clusters: int | None = None,
    c_min: float = 1e-4,
    c_max: float = 20.0,
) -> MixtureParams:
    """Exact per-component minimizers given the aggregated responsibilities.

    The location is the exhaustive minimizer of the expected distance
    (lexicographically smallest on ties); the concentration solves the 1-D
    convex problem on [c_min, c_max] by its closed-form moment equation.

    Expected distances come from per-pair masses: with ``m[p]`` the mass on
    rankings that put pair p in ascending order, a candidate that does too
    disagrees with mass ``total - m[p]`` on that pair, otherwise with ``m[p]``:
    all scores are ``pair_order @ (total - 2 m) + sum(m)``.
    """
    if n_clusters is not None and n_clusters != q.n_clusters:
        raise DimensionError(f"responsibilities carry K={q.n_clusters}, requested {n_clusters}")
    if dataset.r != q.r:
        raise DimensionError("responsibilities and data disagree on item count")
    pair_order = perm_table(q.r).pair_order
    components = []
    total = q.cluster_mass.sum()
    for k in range(q.n_clusters):
        mass = float(q.cluster_mass[k])
        if mass <= 0:
            raise DegenerateClusterError(f"component {k} received no posterior mass")
        pair_mass = q.cluster_vertex[k] @ pair_order
        scores = pair_order @ (mass - 2.0 * pair_mass) + pair_mass.sum()
        sigma_idx = int(np.argmin(scores))
        expected_dist = float(scores[sigma_idx])
        c_hat = _concentration(expected_dist, mass, q.r, c_min, c_max)
        components.append(MallowsParams(unindex(sigma_idx, q.r), c_hat))
    raw = [float(m) / float(total) for m in q.cluster_mass]
    # renormalize away float drift so the simplex check stays happy
    weights = tuple(w / sum(raw) for w in raw)
    return MixtureParams(tuple(components), weights)


# ---------------------------------------------------------------------------
# Objectives.
# ---------------------------------------------------------------------------


def _scored(
    theta: MixtureParams, phi: MissingTable, dataset: Dataset, lam: float
) -> tuple[Responsibilities | None, float]:
    """The E-step at (theta, phi) and the penalized NLL it gives.

    ``(None, inf)`` when some observation has zero likelihood.
    """
    try:
        resp = e_step(theta, phi, dataset)
    except DegenerateLikelihoodError:
        return None, np.inf
    value = resp.nll
    if lam > 0:
        value += lam * admm.edge_penalty(phi.probs, build_cayley_graph(dataset.r))
    return resp, value


# ---------------------------------------------------------------------------
# Fit results.
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    theta: MixtureParams
    phi: MissingTable
    nll: float
    trace: list[float]
    restart: int
    posteriors: np.ndarray
    converged: bool
    method: str
    config: FitConfig

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "r": self.theta.r,
            "theta": {
                "components": [
                    {
                        "sigma": ">".join(str(x) for x in comp.sigma.inverse),
                        "c": comp.c,
                        "w": w,
                    }
                    for comp, w in zip(self.theta.components, self.theta.weights)
                ]
            },
            "phi": [[float(x) for x in row] for row in self.phi.probs],
            "nll": self.nll,
            "trace": list(self.trace),
            "restart": self.restart,
            "converged": self.converged,
            "config": asdict(self.config),
        }

    def save_json(self, path: str | Path) -> None:
        write_json(path, self.to_json_dict())


def load_fit_json(path: str | Path) -> tuple[MixtureParams, MissingTable, str]:
    """Reload the fitted parameters (and method label) from a saved result.

    A file that is not JSON, or that lacks a field or holds one of the wrong
    type, raises :class:`DataFormatError`. The weights are checked as the file
    writes them: weights that are not positive or do not sum to 1 raise
    :class:`DomainError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise ValueError("expected a JSON object")
        entries = util.field(util.field(payload, "theta", dict), "components", [dict])
        orderings = [[int(x) for x in util.field(entry, "sigma", str).split(">")] for entry in entries]
        cs = [util.field(entry, "c", float) for entry in entries]
        weights = [util.field(entry, "w", float) for entry in entries]
        r, rows = util.field(payload, "r", int), util.field(payload, "phi", [[float]])
        method = util.field(payload, "method", str, "?")
    except ValueError as exc:  # bad JSON, bad UTF-8 and bad fields alike
        raise DataFormatError(f"fit file {path}: {exc}") from exc
    components = tuple(MallowsParams(Permutation.from_ordering(o), c) for o, c in zip(orderings, cs))
    theta = MixtureParams(components, tuple(weights))
    return theta, MissingTable(r, np.array(rows, dtype=float)), method


# ---------------------------------------------------------------------------
# EM drivers.
# ---------------------------------------------------------------------------


def _initial_locations(rng: np.random.Generator, n_vertices: int, k: int, restarts: int) -> list[tuple[int, ...]]:
    """Per-restart location tuples, kept distinct across restarts when possible."""
    if k > n_vertices:
        raise DomainError(f"cannot place {k} distinct locations among {n_vertices} rankings")
    seen: set[tuple[int, ...]] = set()
    inits = []
    for _ in range(restarts):
        pick = tuple(int(v) for v in rng.choice(n_vertices, size=k, replace=False))
        for _ in range(100):
            if pick not in seen:
                break
            pick = tuple(int(v) for v in rng.choice(n_vertices, size=k, replace=False))
        seen.add(pick)
        inits.append(pick)
    return inits


def _propose_transition(theta: MixtureParams, rng: np.random.Generator, graph) -> MixtureParams | None:
    """Move each location to a random distance-1 neighbor with probability 1/2."""
    new_components = []
    moved = False
    for comp in theta.components:
        if rng.random() < 0.5:
            nbrs = graph.neighbors[index_of(comp.sigma)]
            target = int(nbrs[rng.integers(len(nbrs))])
            new_components.append(MallowsParams(unindex(target, theta.r), comp.c))
            moved = True
        else:
            new_components.append(comp)
    if not moved:
        return None
    return MixtureParams(tuple(new_components), theta.weights)


def _run_em(
    dataset: Dataset,
    config: FitConfig,
    init_vertices: tuple[int, ...],
    rng: np.random.Generator,
    fixed_phi: MissingTable | None,
    restart: int,
) -> tuple:
    """One EM run from one set of initial locations, named in the log by ``restart``.

    A run with a ``fixed_phi`` (the ME baseline) keeps that missing table and
    scores the plain NLL, so its lam is 0; any other run starts from the
    uniform table at ``config.lam``. Each graph-regularized phi-step is one
    :func:`admm.solve_phi` call. Returns ``(theta, phi, trace, converged)``.
    """
    r = dataset.r
    graph = build_cayley_graph(r)
    lam = config.lam if fixed_phi is None else 0.0
    theta = MixtureParams(
        tuple(MallowsParams(unindex(v, r), 1.0) for v in init_vertices),
        tuple(1.0 / config.n_clusters for _ in range(config.n_clusters)),
    )
    phi = MissingTable.uniform(r) if fixed_phi is None else fixed_phi
    # each accepted pair's E-step scores it and serves the next iteration
    resp, current = _scored(theta, phi, dataset, lam)
    trace = [current]
    converged = False
    for m in range(1, config.em_max_iter + 1):
        if resp is None:
            resp = e_step(theta, phi, dataset)  # raises DegenerateLikelihoodError
        if fixed_phi is not None:
            phi_new = phi
        elif lam > 0:
            solved = admm.solve_phi(resp.q_table, graph, lam, phi0=phi.probs, max_iter=config.admm_max_iter)
            if not solved.converged:
                logger.debug("restart %d, EM iteration %d: phi-step uncertified after %d Newton steps",
                             restart, m, solved.iterations)
            # the solve starts from phi's observed columns, renormalized, which can
            # score above phi itself; the surrogate must never go uphill
            previous = admm.phi_objective(phi.probs, resp.q_table, graph, lam)
            if solved.objective <= previous:
                phi_new = solved.phi
            else:
                logger.debug("restart %d, EM iteration %d: kept the previous phi, the solve would raise "
                             "the surrogate from %.10g to %.10g", restart, m, previous, solved.objective)
                phi_new = phi
        else:
            phi_new = MissingTable(r, closed_form_phi(resp.q_table))
        theta_new = m_step_theta(resp, dataset, config.n_clusters, config.c_min, config.c_max)
        resp_new, value = _scored(theta_new, phi_new, dataset, lam)
        if m <= config.transition_iters:
            proposal = _propose_transition(theta_new, rng, graph)
            if proposal is not None:
                alt_resp, alt = _scored(proposal, phi_new, dataset, lam)
                if alt <= value:
                    theta_new, resp_new, value = proposal, alt_resp, alt
        theta, phi, resp = theta_new, phi_new, resp_new
        trace.append(value)
        if abs(current - value) < config.em_tol:
            current = value
            converged = True
            break
        current = value
    return theta, phi, trace, converged


def _fit(dataset: Dataset, config: FitConfig, fixed_phi: MissingTable | None = None) -> FitResult:
    """Fit ``dataset`` under ``config``, one restart after another, keeping the best.

    A ``fixed_phi`` holds the missing table there (the ME baseline). The
    first restart wins ties.
    """
    n_vertices = build_cayley_graph(dataset.r).n_vertices
    children = np.random.SeedSequence(config.seed).spawn(config.restarts + 1)
    inits = _initial_locations(np.random.default_rng(children[0]), n_vertices, config.n_clusters, config.restarts)
    best = None  # (restart, theta, phi, trace, converged)
    for j in range(config.restarts):
        run = _run_em(dataset, config, inits[j], np.random.default_rng(children[j + 1]), fixed_phi, j)
        if best is None or run[2][-1] < best[3][-1]:
            best = (j, *run)
    restart, theta, phi, trace, converged = best
    return FitResult(
        theta=theta,
        phi=phi,
        nll=trace[-1],
        trace=trace,
        restart=restart,
        posteriors=e_step(theta, phi, dataset).posteriors(),  # raises DegenerateLikelihoodError
        converged=converged,
        method="ME" if fixed_phi is not None else f"R{config.lam:g}" if config.lam > 0 else "NR",
        config=config,
    )


def _check_nonempty(dataset: Dataset) -> None:
    if len(dataset) == 0:
        raise DomainError("cannot fit an empty dataset")


def fit(dataset: Dataset, config: FitConfig) -> FitResult:
    """The proposed estimator: graph-regularized when lam > 0, plain (NR) at lam = 0."""
    _check_nonempty(dataset)
    return _fit(dataset, config)


def fit_me(dataset: Dataset, config: FitConfig) -> FitResult:
    """Homogeneous-missingness baseline.

    The likelihood splits into a missing part and a ranking part, so the
    missing table is the empirical length histogram copied to every vertex
    and EM only runs on the ranking mixture.
    """
    _check_nonempty(dataset)
    counts = np.bincount(dataset.lengths, minlength=dataset.r)[1:]
    return _fit(dataset, config, MissingTable.homogeneous(dataset.r, counts / counts.sum()))
