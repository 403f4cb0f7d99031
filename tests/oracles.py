"""Independent reference implementations the tests check the package against.

Everything here is deliberately brute force and shares no code with the
implementations under test.
"""

from __future__ import annotations

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
