"""Independent reference implementations the tests check the package against.

Everything here is deliberately brute force and shares no code with the
implementations under test.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
from collections import deque

import numpy as np


def random_mixture(r: int, k: int, rng: np.random.Generator):
    """A valid random mixture over S_r (test-data helper, not an oracle)."""
    from partialrank import MallowsParams, MixtureParams, unindex

    components = tuple(
        MallowsParams(unindex(int(v), r), float(c))
        for v, c in zip(
            rng.choice(math.factorial(r), size=k, replace=False),
            rng.uniform(0.3, 3.0, size=k),
        )
    )
    raw = rng.uniform(0.2, 1.0, size=k)
    weights = tuple(float(w) for w in raw / raw.sum())
    weights = tuple(w / sum(weights) for w in weights)
    return MixtureParams(components, weights)


def bfs_distance(start: tuple[int, ...], goal: tuple[int, ...]) -> int:
    """Shortest adjacent-transposition path between two rank tuples."""
    if start == goal:
        return 0
    n = len(start)
    seen = {start}
    frontier = deque([(start, 0)])
    while frontier:
        state, depth = frontier.popleft()
        order = sorted(range(n), key=lambda i: state[i])  # items by rank (0-based)
        for j in range(n - 1):
            a, b = order[j], order[j + 1]
            nxt = list(state)
            nxt[a], nxt[b] = nxt[b], nxt[a]
            nxt = tuple(nxt)
            if nxt == goal:
                return depth + 1
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, depth + 1))
    raise AssertionError("unreachable: the graph is connected")


def discordant_pairs(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Kendall distance by direct pair counting over rank tuples."""
    n = len(a)
    return sum(
        1
        for i in range(n)
        for j in range(i + 1, n)
        if (a[i] < a[j]) != (b[i] < b[j])
    )


def brute_force_scores(r: int, weights) -> np.ndarray:
    """Expected Kendall distance to every candidate location: entry s is
    sum_v weights[v] d(v, s), with vertices numbered by the lexicographic
    order of their rank tuples."""
    ranks = list(itertools.permutations(range(1, r + 1)))
    support = [(w, a) for w, a in zip(weights, ranks) if w != 0]
    return np.array([sum(w * discordant_pairs(a, b) for w, a in support) for b in ranks], dtype=float)


def brute_log_normalizer(c: float, r: int) -> float:
    """log of the exhaustive sum of exp(-c d(pi, identity)) over S_r."""
    identity = tuple(range(1, r + 1))
    total = 0.0
    for ranks in itertools.permutations(range(1, r + 1)):
        total += math.exp(-c * discordant_pairs(ranks, identity))
    return math.log(total)


def project_simplex_rows(p: np.ndarray) -> np.ndarray:
    """Row-wise simplex projection, vectorized over rows."""
    p = np.asarray(p, dtype=float)
    n, t = p.shape
    u = -np.sort(-p, axis=1)
    cumulative = np.cumsum(u, axis=1)
    ks = np.arange(1, t + 1)
    valid = u + (1.0 - cumulative) / ks > 0
    rho = valid.sum(axis=1)  # the condition holds on a prefix
    shift = (1.0 - cumulative[np.arange(n), rho - 1]) / rho
    return np.maximum(p + shift[:, None], 0.0)


def solve_phi_projected_gradient(
    q: np.ndarray,
    edges: np.ndarray,
    lam: float,
    tol: float = 1e-10,
    max_iter: int = 200_000,
) -> tuple[np.ndarray, float]:
    """Projected gradient (spectral steps, nonmonotone backtracking) on the
    row-simplex-constrained objective.

    Every iterate stays feasible; runs until the projected-gradient residual
    at a fixed reference step drops below ``tol``.
    """
    q = np.asarray(q, dtype=float)
    n_vertices, n_lengths = q.shape
    eu, ev = edges[:, 0], edges[:, 1]
    mask = q > 0

    def objective(p: np.ndarray) -> float:
        vals = p[mask]
        if np.any(vals <= 0):
            return np.inf
        return -float((q[mask] * np.log(vals)).sum()) + lam * float(((p[eu] - p[ev]) ** 2).sum())

    def gradient(p: np.ndarray) -> np.ndarray:
        g = np.zeros_like(p)
        g[mask] = -q[mask] / p[mask]
        diff = p[eu] - p[ev]
        np.add.at(g, eu, 2.0 * lam * diff)
        np.add.at(g, ev, -2.0 * lam * diff)
        return g

    phi = np.full((n_vertices, n_lengths), 1.0 / n_lengths)
    f = objective(phi)
    g = gradient(phi)
    step = 1.0
    ref_step = 1e-2  # fixed step for the criticality measure
    history = [f]
    for it in range(max_iter):
        direction = project_simplex_rows(phi - step * g) - phi
        slope = float((g * direction).sum())
        scale = 1.0
        f_max = max(history[-10:])
        while True:
            cand = phi + scale * direction
            fc = objective(cand)
            if fc <= f_max + 1e-4 * scale * slope + 1e-15:
                break
            scale *= 0.5
            if scale < 1e-20:
                cand, fc = phi, f
                break
        g_new = gradient(cand)
        dx = cand - phi
        dg = g_new - g
        denom = float((dx * dg).sum())
        step = min(max(float((dx * dx).sum()) / denom, 1e-10), 1e10) if denom > 0 else 1.0
        phi, f, g = cand, fc, g_new
        history.append(f)
        if it % 5 == 0:
            ref = project_simplex_rows(phi - ref_step * g)
            residual = np.sqrt(((phi - ref) ** 2).sum()) / ref_step
            if residual <= tol:
                break
    return phi, objective(phi)


def edge_penalty_loop(phi: np.ndarray, edges: np.ndarray) -> float:
    """Sum over the edges {u, v} of ||phi_u - phi_v||^2, one edge at a time."""
    return sum(float(((phi[u] - phi[v]) ** 2).sum()) for u, v in edges)


def edge_penalty_slots(phi: np.ndarray, neighbors: np.ndarray) -> float:
    """The same sum in the order the package's phi-step adds it, so that an EM run can match it
    bitwise: over the nonzero length columns, length-major, each vertex's differences to its
    neighbors slot by slot (``neighbors`` is ``(V, r-1)``), every edge seen from both ends, halved."""
    x = phi.T[phi.any(axis=0)]
    diff = x[:, None, :] - x[:, neighbors.T]
    return 0.5 * float(np.vdot(diff, diff))


def phi_objective(phi: np.ndarray, q: np.ndarray, edges: np.ndarray, lam: float, penalty=edge_penalty_loop) -> float:
    """-sum q log phi (0 log 0 = 0, inf where q > 0 meets phi = 0) plus lam times ``penalty(phi, edges)``."""
    mass = q > 0
    vals = phi[mass]
    if np.any(vals <= 0):
        return np.inf
    return -float((q[mass] * np.log(vals)).sum()) + lam * penalty(phi, edges)


def phi_step_bounds(phi: np.ndarray, q: np.ndarray, edges: np.ndarray, lam: float) -> tuple[float, float]:
    """The phi-step objective at a feasible ``phi`` and a lower bound on its minimum.

    P(phi) = -sum q log phi + lam sum_edges ||phi_u - phi_v||^2 over rows on
    the simplex. The penalty is convex, so it lies above its tangent at phi:
    with g = 2 lam L phi (L the Laplacian of ``edges``), lam pen(x) >=
    g . x - lam pen(phi). Hence min P >= sum_v min_{x in simplex}
    (-q_v . log x + g_v . x) - lam pen(phi) =: D. Each row minimum is its
    Lagrange dual at the best multiplier nu,

        max_nu  sum_{q_t > 0} q_t (1 + log((g_t + nu) / q_t)) - nu,

    over g_t + nu > 0 where q_t > 0 and g_t + nu >= 0 where q_t = 0. The
    derivative sum q_t / (g_t + nu) - 1 falls in nu, so the best nu is its
    root, found by bisection to adjacent floats, or the least feasible nu
    where the root lies below it. Any feasible nu gives a lower bound, and
    an error in nu lowers D only to second order. Returns ``(P, D)``; P - D
    bounds the gap of phi to the optimum from above.
    """
    phi = np.asarray(phi, dtype=float)
    q = np.asarray(q, dtype=float)
    u, v = np.asarray(edges)[:, 0], np.asarray(edges)[:, 1]
    diff = phi[u] - phi[v]
    penalty = float((diff**2).sum())
    g = np.zeros_like(phi)
    np.add.at(g, u, 2.0 * lam * diff)
    np.add.at(g, v, -2.0 * lam * diff)
    mass = q > 0
    primal = -float((q[mass] * np.log(phi[mass])).sum()) + lam * penalty
    inf = np.inf
    floor_mass = np.where(mass, g, inf).min(axis=1)   # s(nu) -> +inf as nu falls to -floor_mass
    floor_zero = np.where(mass, inf, g).min(axis=1)   # g_t + nu >= 0 on the zero-mass entries
    lo, hi = -floor_mass, -floor_mass + q.sum(axis=1)  # s(hi) <= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            mid = 0.5 * (lo + hi)
            moving = (lo < mid) & (mid < hi)
            if not moving.any():
                break
            s = np.where(mass, q / (g + mid[:, None]), 0.0).sum(axis=1) - 1.0
            above = moving & (s >= 0)
            lo, hi = np.where(above, mid, lo), np.where(moving & ~above, mid, hi)
        nu = np.where(np.abs(np.where(mass, q / (g + lo[:, None]), 0.0).sum(axis=1) - 1.0)
                      <= np.abs(np.where(mass, q / (g + hi[:, None]), 0.0).sum(axis=1) - 1.0), lo, hi)
        nu = np.where(np.isfinite(floor_zero), np.maximum(nu, -floor_zero), nu)
        nu = np.where(mass.any(axis=1), nu, -floor_zero)  # no mass: the row minimum is min g
        rows = np.where(mass, q * (1.0 + np.log((g + nu[:, None]) / np.where(mass, q, 1.0))), 0.0)
    dual = float((rows.sum(axis=1) - nu).sum()) - lam * penalty
    return primal, dual


# ---------------------------------------------------------------------------
# Per-object data path: one TopTRanking and one Permutation per observation.
# ---------------------------------------------------------------------------


def lex_orderings(r: int) -> list[tuple[int, ...]]:
    """Items by rank for every vertex; vertices in lexicographic order of rank tuples."""
    out = []
    for ranks in itertools.permutations(range(1, r + 1)):
        ordering = [0] * r
        for item, rank in enumerate(ranks, start=1):
            ordering[rank - 1] = item
        out.append(tuple(ordering))
    return out


def generate_dataset_loop(theta, mech, n: int, rng_seed: int):
    """Per-observation generator: (rankings, true_perms, true_clusters).

    The draws come from the package's sampler in the order ``generate_dataset``
    makes them; the length draw and the truncation are a plain loop.
    """
    from partialrank import Permutation, TopTRanking
    from partialrank.mallows import sample_vertices
    from partialrank.missing import ClusterMissingSpec

    r = theta.r
    rng = np.random.default_rng(rng_seed)
    vertices, clusters = sample_vertices(theta, n, rng)
    rows = mech.rows[clusters] if isinstance(mech, ClusterMissingSpec) else mech.probs[vertices]
    cdf = np.cumsum(rows, axis=1)
    draws = rng.random(n)
    orderings = lex_orderings(r)
    rankings, perms = [], []
    for i in range(n):
        t = min(sum(1 for c in cdf[i] if draws[i] > c) + 1, r - 1)
        ordering = orderings[int(vertices[i])]
        rankings.append(TopTRanking(ordering[:t], r))
        perms.append(Permutation.from_ordering(ordering))
    return rankings, perms, [int(c) for c in clusters]


def group_observations(r: int, rankings):
    """Dict-based grouping: (blocks, obs_group).

    Each block is (t, counts, members) for one length, its groups ascending in
    lexicographic prefix order, members the ascending vertices extending the
    prefix. Groups are numbered through the blocks in order.
    """
    prefixes = {t: list(itertools.permutations(range(1, r + 1), t)) for t in range(1, r)}
    row_of = {t: {p: g for g, p in enumerate(prefixes[t])} for t in prefixes}
    extending: dict[tuple[int, ...], list[int]] = {}
    for v, ordering in enumerate(lex_orderings(r)):
        for t in range(1, r):
            extending.setdefault(ordering[:t], []).append(v)
    slots: dict[tuple[int, int], int] = {}
    counts: list[int] = []
    obs_slot = []
    for tau in rankings:
        key = (tau.t, row_of[tau.t][tau.items])
        if key not in slots:
            slots[key] = len(slots)
            counts.append(0)
        counts[slots[key]] += 1
        obs_slot.append(slots[key])
    blocks = []
    group = {}
    for t in sorted({t for t, _ in slots}):
        entries = sorted((row, slot) for (tt, row), slot in slots.items() if tt == t)
        for _, slot in entries:
            group[slot] = len(group)
        blocks.append((
            t,
            [counts[slot] for _, slot in entries],
            [extending[prefixes[t][row]] for row, _ in entries],
        ))
    return blocks, [group[s] for s in obs_slot]


def write_csv_writer(path, rankings, true_perms=None, true_clusters=None) -> None:
    """The dataset CSV written row by row through ``csv.writer``."""
    header = ["t", "items"]
    if true_perms is not None:
        header.append("true_perm")
    if true_clusters is not None:
        header.append("true_cluster")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i, tau in enumerate(rankings):
            row = [str(tau.t), ">".join(str(x) for x in tau.items)]
            if true_perms is not None:
                row.append(">".join(str(x) for x in true_perms[i].inverse))
            if true_clusters is not None:
                row.append(str(int(true_clusters[i])))
            writer.writerow(row)


def read_csv_rows(path, r: int):
    """Row-by-row dataset reader: (rankings, true_perms or None, true_clusters or None).

    Raises ``DataFormatError`` with the line number for the format errors of
    the documented CSV; it does not check the truth columns against ``items``.
    """
    from partialrank import DataFormatError, DomainError, Permutation, TopTRanking

    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], None, None
    header = rows[0]
    if header[:2] != ["t", "items"]:
        raise DataFormatError(f"expected header starting with t,items; got {header}", line=1)
    perm_col = header.index("true_perm") if "true_perm" in header else None
    cluster_col = header.index("true_cluster") if "true_cluster" in header else None
    rankings, perms, clusters = [], [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise DataFormatError(f"expected {len(header)} fields, got {len(row)}", line=lineno)
        try:
            t = int(row[0])
        except ValueError as exc:
            raise DataFormatError(f"bad length field {row[0]!r}", line=lineno) from exc
        try:
            items = tuple(int(x) for x in row[1].split(">"))
        except ValueError as exc:
            raise DataFormatError(f"bad items field {row[1]!r}", line=lineno) from exc
        if t != len(items):
            raise DataFormatError(f"length {t} does not match {len(items)} items", line=lineno)
        try:
            rankings.append(TopTRanking(items, r))
        except DomainError as exc:
            raise DataFormatError(str(exc), line=lineno) from exc
        if perm_col is not None:
            try:
                perms.append(Permutation.from_ordering([int(x) for x in row[perm_col].split(">")]))
            except (ValueError, DomainError) as exc:
                raise DataFormatError(f"bad true_perm field {row[perm_col]!r}", line=lineno) from exc
        if cluster_col is not None:
            try:
                clusters.append(int(row[cluster_col]))
            except ValueError as exc:
                raise DataFormatError(f"bad true_cluster field {row[cluster_col]!r}", line=lineno) from exc
    return (
        rankings,
        perms if perm_col is not None else None,
        clusters if cluster_col is not None else None,
    )


def cayley_graph_loop(r: int):
    """Neighbors and edge list of S_r's adjacent-swap graph, one swap at a time.

    ``neighbors[v, j]`` is the vertex whose preference order swaps positions
    j and j+1 of vertex v's; vertices are lexicographic positions of rank
    tuples. Edges are the pairs u < v, sorted.
    """
    rank_tuples = list(itertools.permutations(range(1, r + 1)))
    vertex_of = {}
    for v, ranks in enumerate(rank_tuples):
        vertex_of[tuple(sorted(range(1, r + 1), key=lambda item: ranks[item - 1]))] = v
    neighbors = np.empty((len(rank_tuples), r - 1), dtype=np.int64)
    for ordering, v in vertex_of.items():
        for j in range(r - 1):
            swapped = list(ordering)
            swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
            neighbors[v, j] = vertex_of[tuple(swapped)]
    edges = sorted({(min(v, int(u)), max(v, int(u))) for v in range(len(rank_tuples)) for u in neighbors[v]})
    return neighbors, np.array(edges, dtype=np.int64).reshape(-1, 2)


@functools.cache
def cayley_edges(r: int) -> np.ndarray:
    """:func:`cayley_graph_loop`'s edge list, built once per r and read-only."""
    edges = cayley_graph_loop(r)[1]
    edges.flags.writeable = False
    return edges


def observable_nll(theta, phi, dataset) -> float:
    """Negative log-likelihood of the observed top-t rankings, block by block.

    Written apart from ``partialrank.em.e_step``, which folds the same value
    into its normalizers; the two must agree bitwise.
    """
    from partialrank.mallows import component_log_pmf

    log_comp = component_log_pmf(theta) + np.log(theta.weights)[:, None]
    with np.errstate(divide="ignore"):
        log_phi = np.log(phi.probs)
    total = 0.0
    for block in dataset.groups().blocks:
        logits = log_comp[:, block.members] + log_phi[block.members, block.t - 1][None, :, :]
        top = logits.max(axis=(0, 2))
        if np.any(np.isneginf(top)):
            return np.inf
        ll = top + np.log(np.exp(logits - top[None, :, None]).sum(axis=(0, 2)))
        total -= float((block.counts * ll).sum())
    return total


def em_run_reference(dataset, config, init_vertices, rng, mode: str, me_phi):
    """One EM run written out as a plain loop.

    A fresh E-step at the start of every iteration, each phi-step solved by
    its own ``solve_phi`` call, and every candidate pair scored by
    :func:`observable_nll` plus lam times :func:`edge_penalty_slots` at its
    phi. ``partialrank.em._run_em`` carries the E-step of each accepted pair
    into the next iteration and scores with it, and takes the penalty from the
    phi-step; both must give the same run. Returns ``(theta, phi, trace, converged)``.
    """
    from partialrank import admm, em
    from partialrank.mallows import MallowsParams, MixtureParams
    from partialrank.missing import MissingTable
    from partialrank.perms import build_cayley_graph, unindex

    r = dataset.r
    graph = build_cayley_graph(r)
    lam = config.lam if mode == "regularized" else 0.0

    def score(theta, phi):
        value = observable_nll(theta, phi, dataset)
        return value + lam * edge_penalty_slots(phi.probs, graph.neighbors) if lam > 0 else value

    theta = MixtureParams(
        tuple(MallowsParams(unindex(v, r), 1.0) for v in init_vertices),
        tuple(1.0 / config.n_clusters for _ in range(config.n_clusters)),
    )
    phi = me_phi if mode == "me" else MissingTable.uniform(r)
    current = score(theta, phi)
    trace = [current]
    converged = False
    for m in range(1, config.em_max_iter + 1):
        resp = em.e_step(theta, phi, dataset)
        if mode == "me":
            phi_new = phi
        elif lam > 0:
            solved = admm.solve_phi(resp.q_table, graph, lam, phi0=phi.probs, max_iter=config.admm_max_iter)
            start = phi_objective(phi.probs, resp.q_table, graph.neighbors, lam, edge_penalty_slots)
            better = solved.objective <= start
            phi_new = solved.phi if better else phi
        else:
            phi_new = MissingTable(r, em.closed_form_phi(resp.q_table))
        theta_new = em.m_step_theta(resp, c_min=config.c_min, c_max=config.c_max)
        value = score(theta_new, phi_new)
        if m <= config.transition_iters:
            proposal = em._propose_transition(theta_new, rng, graph)
            if proposal is not None:
                alt = score(proposal, phi_new)
                if alt <= value:
                    theta_new, value = proposal, alt
        theta, phi = theta_new, phi_new
        trace.append(value)
        if abs(current - value) < config.em_tol:
            converged = True
            break
        current = value
    return theta, phi, trace, converged


def fit_sequential(dataset, config, mode: str) -> dict:
    """One fit's restarts run one after another by :func:`em_run_reference`.

    The best restart (the first on ties) is kept. ``mode`` is
    "regularized", "nr" or "me". The posteriors come from a fresh E-step at
    the chosen pair.
    """
    from partialrank import em
    from partialrank.missing import MissingTable
    from partialrank.perms import perm_table

    children = np.random.SeedSequence(config.seed).spawn(config.restarts + 1)
    inits = em._initial_locations(
        np.random.default_rng(children[0]), perm_table(dataset.r).n_vertices, config.n_clusters, config.restarts
    )
    me_phi = None
    if mode == "me":
        counts = np.bincount(dataset.lengths, minlength=dataset.r)[1:]
        me_phi = MissingTable.homogeneous(dataset.r, counts / counts.sum())
    best = None
    for j in range(config.restarts):
        rng = np.random.default_rng(children[j + 1])
        theta, phi, trace, converged = em_run_reference(dataset, config, inits[j], rng, mode, me_phi)
        if best is None or trace[-1] < best["nll"]:
            best = {"restart": j, "theta": theta, "phi": phi, "nll": trace[-1], "trace": trace,
                    "converged": converged}
    best["posteriors"] = em.e_step(best["theta"], best["phi"], dataset).posteriors()
    return best


def per_observation(resp, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Compatible vertex indices and the (K, m) posterior weights of observation
    ``i`` in an ``em.Responsibilities`` (test helper, not an oracle)."""
    g = int(resp.groups.obs_group[i])
    for block, weights in zip(resp.groups.blocks, resp.block_weights):
        if g < block.counts.size:
            return block.members[g], weights[:, g, :]
        g -= block.counts.size
    raise IndexError(f"observation {i} has no group")
