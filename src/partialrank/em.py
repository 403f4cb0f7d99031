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

Restarts run in lockstep. Each EM run is a generator that yields its
graph-regularized missing-table steps as requests; one loop advances all
runs of all jobs (the restarts of a fit, or every fold fit of a
cross-validation) and pushes each request onto one ADMM stack, which steps
every pending solve at once. A run whose solve leaves the stack takes its E-
and M-steps at once, and its next request joins at the next step. Every run
keeps its own rng and stopping rule, so the fits are bitwise those of runs
made one after another.
"""

from __future__ import annotations

import json
import logging
import math
from collections.abc import Generator
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import admm, util
from .errors import (
    DataFormatError,
    DegenerateClusterError,
    DegenerateLikelihoodError,
    DimensionError,
    DomainError,
)
from .mallows import MallowsParams, MixtureParams, component_log_pmf, log_normalizer
from .missing import Dataset, MissingTable, ObservationGroups
from .perms import Permutation, build_cayley_graph, index_of, perm_table, unindex
from .util import check_integer, write_json

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class FitConfig:
    """Knobs for :func:`fit` and :func:`fit_me`."""

    n_clusters: int = 1
    lam: float = 10.0
    rho: float = 1.0
    em_tol: float = 1.0
    em_max_iter: int = 200
    admm_eps_primal: float = 1.0
    admm_eps_dual: float = 1.0
    admm_max_iter: int = 100
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
        reals = (self.lam, self.rho, self.em_tol, self.admm_eps_primal, self.admm_eps_dual, self.c_min, self.c_max)
        if not all(math.isfinite(x) for x in reals):
            raise DomainError("lam, rho, tolerances and concentration bounds must be finite")
        if self.lam < 0 or self.rho <= 0:
            raise DomainError("need lam >= 0 and rho > 0")
        if min(self.em_tol, self.admm_eps_primal, self.admm_eps_dual) <= 0:
            raise DomainError("tolerances must be positive")
        if not 0 < self.c_min < self.c_max:
            raise DomainError("need 0 < c_min < c_max")


@dataclass
class Responsibilities:
    """Posterior weights per observation plus the aggregates the M-steps use."""

    r: int
    n: int
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
    with np.errstate(divide="ignore"):
        log_phi = np.log(phi.probs)

    q_table = np.zeros((n_vertices, dataset.r - 1))
    cluster_vertex = np.zeros((k, n_vertices))
    block_weights: list[np.ndarray] = []
    nll = 0.0
    first = 0  # group number of the block's first group
    for block in groups.blocks:
        logits = log_comp[:, block.members] + log_phi[block.members, block.t - 1][None, :, :]
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
        n=len(dataset),
        n_clusters=k,
        q_table=q_table,
        cluster_vertex=cluster_vertex,
        cluster_mass=cluster_vertex.sum(axis=1),
        nll=nll,
        groups=groups,
        block_weights=block_weights,
    )


def _golden_section(f, lo: float, hi: float, tol: float = 1e-8) -> float:
    """Minimize a unimodal scalar function on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


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
    convex problem on [c_min, c_max] by golden section.

    Expected distances come from per-pair masses: with ``m[p]`` the mass on
    rankings that put pair p in ascending order, a candidate that does too
    disagrees with mass ``total - m[p]`` on that pair, otherwise with ``m[p]``.
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
        scores = np.where(pair_order, mass - pair_mass, pair_mass).sum(axis=1)
        sigma_idx = int(np.argmin(scores))
        expected_dist = float(scores[sigma_idx])
        c_hat = _golden_section(
            lambda c: c * expected_dist + mass * log_normalizer(c, q.r), c_min, c_max
        )
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


def penalized_nll(theta: MixtureParams, phi: MissingTable, dataset: Dataset, lam: float) -> float:
    """The estimation objective: observable NLL plus lam times the penalty."""
    return _scored(theta, phi, dataset, lam)[1]


def closed_form_phi(q_table: np.ndarray) -> np.ndarray:
    """Unregularized missing-table step: normalized rows, uniform where empty."""
    totals = q_table.sum(axis=1, keepdims=True)
    uniform = np.full_like(q_table, 1.0 / q_table.shape[1])
    with np.errstate(invalid="ignore", divide="ignore"):
        rows = q_table / totals
    return np.where(totals > 0, rows, uniform)


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
    type, raises :class:`DataFormatError`.
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
    theta = MixtureParams(components, tuple(w / sum(weights) for w in weights))
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
    job: int,
    restart: int,
) -> Generator[tuple[np.ndarray, np.ndarray, float], admm.AdmmResult, tuple]:
    """One EM run from one set of initial locations, named in the log by ``job`` and ``restart``.

    A run with a ``fixed_phi`` (the ME baseline) keeps that missing table and
    scores the plain NLL, so its lam is 0; any other run starts from the
    uniform table at ``config.lam``. A generator: every graph-regularized
    phi-step yields the request ``(q_table, phi0, lam)`` and receives its
    :class:`admm.AdmmResult`, so a caller can solve the requests of many runs
    on one :class:`admm.PhiStack`. Returns ``(theta, phi, trace, converged)``.
    Runs at ``lam = 0`` and ME runs never yield.
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
            solved = yield resp.q_table, phi.probs, lam
            if not solved.converged:
                logger.debug("job %d restart %d, EM iteration %d: phi-step unconverged after %d ADMM iterations, "
                             "res_primal %.3g, res_dual %.3g", job, restart, m, solved.iterations,
                             solved.res_primal, solved.res_dual)
            # an inexact inner solve must never push the surrogate uphill
            previous = admm.phi_objective(phi.probs, resp.q_table, graph, lam)
            if solved.objective <= previous:
                phi_new = solved.phi
            else:
                logger.debug("job %d restart %d, EM iteration %d: kept the previous phi, the solve would raise "
                             "the surrogate from %.10g to %.10g", job, restart, m, previous, solved.objective)
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


def _fit_batch(jobs: list[tuple[Dataset, float]], config: FitConfig, me: bool = False) -> list[FitResult]:
    """Fit every ``(dataset, lam)`` job under ``config`` at its lam, all restarts of all jobs in lockstep.

    The jobs share r and every config field but lam. With ``me`` each job's
    missing table is held at its empirical length histogram (the ME
    baseline). Each run keeps its own rng and stopping. Its phi-step requests
    join one :class:`admm.PhiStack`; each step hands every result that left
    the stack to its run, and that run's next request joins at once. At most
    :func:`admm.members_per_call` runs are live at once, since each holds its
    own tables and stacking more pays nothing: at r = 7 the runs go one after
    another. Each job then keeps its best restart, the first one on ties,
    exactly as runs made one after another would.
    """
    if any(len(dataset) == 0 for dataset, _ in jobs):
        raise DomainError("cannot fit an empty dataset")
    graph = build_cayley_graph(jobs[0][0].r)
    children = np.random.SeedSequence(config.seed).spawn(config.restarts + 1)
    inits = _initial_locations(np.random.default_rng(children[0]), graph.n_vertices, config.n_clusters, config.restarts)
    runs = []  # (job, restart, generator)
    for job, (dataset, lam) in enumerate(jobs):
        fixed_phi = None
        if me:
            counts = np.bincount(dataset.lengths, minlength=dataset.r)[1:]
            fixed_phi = MissingTable.homogeneous(dataset.r, counts / counts.sum())
        for j in range(config.restarts):
            run = _run_em(dataset, replace(config, lam=lam), inits[j], np.random.default_rng(children[j + 1]),
                          fixed_phi, job, j)
            runs.append((job, j, run))
    best: list[tuple | None] = [None] * len(jobs)  # per job, its best finished (restart, theta, phi, trace, converged)
    # the lengths any job observes; each E-step's q is zero at the others
    support = {block.t for dataset, _ in jobs for block in dataset.groups().blocks}
    stack = admm.PhiStack(graph, config.rho, config.admm_eps_primal, config.admm_eps_dual, config.admm_max_iter,
                          support)
    width = admm.members_per_call(graph)
    waiting = iter(range(len(runs)))

    def advance(i: int, solved: admm.AdmmResult | None) -> None:
        job, j, run = runs[i]
        try:
            stack.push(i, *run.send(solved))
        except StopIteration as stop:
            # runs finish out of order; the lower restart wins ties
            held, trace = best[job], stop.value[2]
            if held is None or (trace[-1], j) < (held[3][-1], held[0]):
                best[job] = (j, *stop.value)

    while True:
        # a run that never yields (lam = 0, ME) finishes inside its first advance
        while len(stack) < width and (i := next(waiting, None)) is not None:
            advance(i, None)
        if not len(stack):
            break
        for i, result in stack.step():
            advance(i, result)

    return [
        FitResult(
            theta=theta,
            phi=phi,
            nll=trace[-1],
            trace=trace,
            restart=restart,
            posteriors=e_step(theta, phi, dataset).posteriors(),  # raises DegenerateLikelihoodError
            converged=converged,
            method="ME" if me else f"R{lam:g}" if lam > 0 else "NR",
            config=replace(config, lam=lam),
        )
        for (dataset, lam), (restart, theta, phi, trace, converged) in zip(jobs, best)
    ]


def fit(dataset: Dataset, config: FitConfig) -> FitResult:
    """The proposed estimator: graph-regularized when lam > 0, plain (NR) at lam = 0."""
    return _fit_batch([(dataset, config.lam)], config)[0]


def fit_me(dataset: Dataset, config: FitConfig) -> FitResult:
    """Homogeneous-missingness baseline.

    The likelihood splits into a missing part and a ranking part, so the
    missing table is the empirical length histogram copied to every vertex
    and EM only runs on the ranking mixture.
    """
    return _fit_batch([(dataset, config.lam)], config, me=True)[0]
