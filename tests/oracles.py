"""Independent reference implementations the tests check the package against.

Everything here is deliberately brute force and shares no code with the
implementations under test.
"""

from __future__ import annotations

import csv
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


def brute_log_normalizer(c: float, r: int) -> float:
    """log of the exhaustive sum of exp(-c d(pi, identity)) over S_r."""
    identity = tuple(range(1, r + 1))
    total = 0.0
    for ranks in itertools.permutations(range(1, r + 1)):
        total += math.exp(-c * discordant_pairs(ranks, identity))
    return math.log(total)


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort + waterfill)."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    cumulative = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    valid = u + (1.0 - cumulative) / ks > 0
    rho = ks[valid][-1]
    shift = (1.0 - cumulative[rho - 1]) / rho
    return np.maximum(v + shift, 0.0)


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


def vertex_update_bisection(q_row, y_row, rho: float, degree: int) -> tuple[list[float], float]:
    """One vertex subproblem by scalar bisection on the simplex multiplier.

    Minimizes -sum q_t log phi_t + (rho degree / 2) ||phi||^2 + y . phi over
    the simplex. Stationarity gives, for each entry, the nonnegative root of
    rho degree phi^2 + (y_t + nu) phi - q_t = 0; the row sum falls as nu
    rises, and bisection runs until the bracket is two adjacent floats.
    Returns the row and the multiplier.
    """
    q = [float(v) for v in q_row]
    y = [float(v) for v in y_row]
    a = rho * degree

    def row(nu: float) -> list[float]:
        out = []
        for qt, yt in zip(q, y):
            z = yt + nu
            root = math.sqrt(z * z + 4.0 * a * qt)
            # the two forms of one root, each free of cancellation on its side
            out.append(2.0 * qt / (z + root) if z > 0 else (root - z) / (2.0 * a))
        return out

    lo = -max(y) - a - 1.0     # every entry >= 1: the sum is >= 1
    hi = -min(y) + sum(q) + 1.0  # every entry <= q_t / (sum q + 1): the sum is < 1
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if sum(row(mid)) >= 1.0:
            lo = mid
        else:
            hi = mid
    nu = lo if abs(sum(row(lo)) - 1.0) <= abs(sum(row(hi)) - 1.0) else hi
    return row(nu), nu


def vertex_update_bracketed(q, y, rho: float, degree: int, nu0=None):
    """The safeguarded Newton search on the simplex multiplier, row-batched.

    Rows of ``q`` and ``y`` are vertices. Each pass takes a Newton step on
    every active row and falls back to the midpoint of the row's bracket
    where the step is not finite or leaves the open bracket (rtsafe,
    Numerical Recipes section 9.4); a row is frozen once |s| <= 1e-12 or its
    bracket has collapsed. ``nu0`` is a warm start, taken where it lies
    inside the initial bracket. Returns ``(phi, nu, fired)``: ``fired`` marks
    the rows where the safeguard acted, by a midpoint step or by a collapsed
    bracket. It was the package's search before a clamped monotone Newton
    step replaced it, and every row it solves without the safeguard must
    come out of the new search bitwise the same.
    """
    scale = 2.0 * rho * degree
    q = np.asarray(q, dtype=float).T.copy()
    y = np.asarray(y, dtype=float).T.copy()
    lo = -y.max(axis=0) - rho * degree
    hi = -y.min(axis=0) + np.maximum(q.sum(axis=0), 1.0)
    nu = 0.5 * (lo + hi)
    if nu0 is not None:
        nu = np.where((lo < nu0) & (nu0 < hi), nu0, nu)
    phi_out, nu_out = np.empty_like(q), np.empty_like(nu)
    fired = np.zeros(q.shape[1], dtype=bool)
    rows = np.arange(q.shape[1])
    for _ in range(300):
        with np.errstate(divide="ignore", invalid="ignore"):
            z = y + nu
            root = np.sqrt(z * z + 2.0 * scale * q)
            phi = np.where(z > 0, 2.0 * q / (root + z), (root - z) / scale)
            s = phi.sum(axis=0) - 1.0
            step = nu + s / (phi / root).sum(axis=0)
        above = s >= 0
        lo, hi = np.where(above, nu, lo), np.where(above, hi, nu)
        close = np.abs(s) <= 1e-12
        collapsed = hi - lo <= 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(nu))
        fired[rows[collapsed & ~close]] = True
        frozen = close | collapsed
        phi_out[:, rows[frozen]], nu_out[rows[frozen]] = phi[:, frozen], nu[frozen]
        active = ~frozen
        if not active.any():
            break
        rows, lo, hi, step, y, q = rows[active], lo[active], hi[active], step[active], y[:, active], q[:, active]
        inside = (lo < step) & (step < hi)
        fired[rows[~inside]] = True
        nu = np.where(inside, step, 0.5 * (lo + hi))
    else:
        raise AssertionError("bracketed search ran out of passes")
    return np.clip(phi_out, 0.0, 1.0).T, nu_out, fired


def augmented_lagrangian(state, q: np.ndarray, graph, lam: float, rho: float) -> float:
    """The penalty-split objective driving the vertex and edge sweeps.

    For an ``admm.PhiStack`` of one member in the slot-major layout:
    ``copies[0, j, v]`` is vertex v's copy on the edge to ``N[v, j]``
    (``N = graph.neighbors``), so the other endpoint's copy on that edge is
    ``copies[0, j, N[v, j]]``. ``q`` is the member's ``(V, r-1)`` table.
    """
    phi, copies, duals = state.phi[0], state.copies[0], state.duals[0]
    mask = q > 0
    vals = phi[mask]
    if np.any(vals <= 0):
        return np.inf
    partner = copies[np.arange(graph.r - 1)[:, None], graph.neighbors.T]
    total = -float((q[mask] * np.log(vals)).sum())
    total += 0.5 * lam * float(((copies - partner) ** 2).sum())
    total -= 0.5 * rho * float((duals**2).sum())
    total += 0.5 * rho * float(((phi[None] - copies + duals) ** 2).sum())
    return total


def edge_update(a: np.ndarray, b: np.ndarray, lam: float, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Minimize lam ||x - y||^2 + (rho / 2)(||a - x||^2 + ||b - y||^2) over (x, y).

    Stationarity gives x + y = a + b and (4 lam + rho)(x - y) = rho (a - b),
    so each copy is a convex combination of the two inputs.
    """
    weight = 0.5 * (1.0 + rho / (4.0 * lam + rho))
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return weight * a + (1.0 - weight) * b, weight * b + (1.0 - weight) * a


def admm_reference(
    q: np.ndarray,
    graph,
    lam: float,
    rho: float,
    phi0: np.ndarray,
    eps_primal: float,
    eps_dual: float,
    max_iter: int,
) -> tuple[np.ndarray, int, bool, float, float]:
    """The edge-splitting ADMM loop written out over the edge list.

    Each edge {u, v} of ``graph.edges`` holds a copy of both endpoints' rows
    and a dual for each. An iteration solves every vertex by
    :func:`vertex_update_bisection`, every edge by :func:`edge_update`, and
    takes a dual ascent step. The primal residual is the norm of all
    (row - copy) differences, the dual residual that of the change in the
    copies; the run stops once both are below their thresholds, or at
    ``max_iter`` with its last iterate. Returns ``(phi, iterations,
    converged, res_primal, res_dual)``.
    """
    q = np.asarray(q, dtype=float)
    edges = [(int(u), int(v)) for u, v in graph.edges]
    degree = graph.r - 1
    incident: dict[int, list[tuple[int, int]]] = {v: [] for v in range(len(q))}
    for e, (u, v) in enumerate(edges):
        incident[u].append((e, 0))
        incident[v].append((e, 1))
    phi = np.array(phi0, dtype=float)
    copies = np.stack([np.stack([phi[u], phi[v]]) for u, v in edges])  # (E, 2, r-1)
    duals = np.zeros_like(copies)
    res_p = res_d = np.inf
    for it in range(1, max_iter + 1):
        new_phi = np.empty_like(phi)
        for v in range(len(q)):
            y = rho * sum(duals[e, side] - copies[e, side] for e, side in incident[v])
            new_phi[v] = vertex_update_bisection(q[v], y, rho, degree)[0]
        phi = new_phi
        old = copies.copy()
        for e, (u, v) in enumerate(edges):
            copies[e, 0], copies[e, 1] = edge_update(phi[u] + duals[e, 0], phi[v] + duals[e, 1], lam, rho)
        gap = np.stack([phi[[u, v]] for u, v in edges]) - copies
        duals += gap
        res_p = math.sqrt(float((gap**2).sum()))
        res_d = math.sqrt(float(((copies - old) ** 2).sum()))
        if res_p < eps_primal and res_d < eps_dual:
            return phi, it, True, res_p, res_d
    return phi, max_iter, False, res_p, res_d


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
    :func:`observable_nll` plus the edge penalty. ``partialrank.em._run_em``
    carries the E-step of each accepted pair into the next iteration and
    scores with it; both must give the same run. Returns
    ``(theta, phi, trace, converged)``.
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
        return value + lam * admm.edge_penalty(phi.probs, graph) if lam > 0 else value

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
            solved = admm.solve_phi(
                resp.q_table, graph, lam, config.rho, phi0=phi.probs, eps_primal=config.admm_eps_primal,
                eps_dual=config.admm_eps_dual, max_iter=config.admm_max_iter,
            )
            better = solved.objective <= admm.phi_objective(phi.probs, resp.q_table, graph, lam)
            phi_new = solved.phi if better else phi
        else:
            phi_new = MissingTable(r, em.closed_form_phi(resp.q_table))
        theta_new = em.m_step_theta(resp, dataset, config.n_clusters, config.c_min, config.c_max)
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
