"""Graph-regularized estimation of the missing table by ADMM edge splitting.

Solves, for a fixed table of aggregated responsibilities ``q``:

    minimize  -sum_{v,t} q[v,t] log phi[v,t]
              + lam * sum_{{u,v} in E} ||phi_u - phi_v||^2
    over rows of phi on the probability simplex,

by keeping one copy of each endpoint per edge, so every iteration is a sweep
of independent per-vertex updates, independent per-edge updates, and a dual
ascent step. The per-vertex subproblem has a closed form up to the simplex
multiplier nu, which a bracketed Newton search pins down (warm-started from the
previous sweep's nu); the per-edge subproblem is an exact convex combination
with a constant mixing weight

    alpha = (1 + rho / (4 lam + rho)) / 2  in (1/2, 1].

Copies and duals live on neighbor slots: entry ``[v, j]`` belongs to vertex v
on the edge to ``N[v, j]``, where ``N = graph.neighbors`` and slot j swaps the
items at positions j and j+1. That swap undoes itself, so ``N[N[v, j], j] == v``
and the other endpoint's copy on the same edge sits at ``[N[v, j], j]``. Every
sweep is then a broadcast over ``(V, r-1, r-1)`` arrays plus one gather,
written into buffers the state owns.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionError, DomainError, NumericError
from .missing import MissingTable
from .perms import CayleyGraph

NU_TOL = 1e-12          # target on the simplex residual |sum(phi) - 1|
NU_HARD_TOL = 1e-10     # failure threshold (would violate the row-sum contract)
_MAX_NU_PASSES = 300    # passes of the multiplier search over the rows still active


@dataclass
class AdmmState:
    """Primal rows and their multipliers, per-neighbor-slot copies and duals,
    the buffers the sweeps write into, and residuals."""

    phi: np.ndarray          # (V, r-1)
    nu: np.ndarray           # (V,): simplex multipliers of the last vertex sweep, nan before it
    copies: np.ndarray       # (V, r-1, r-1): [v, j] is v's copy on the edge to N[v, j]
    duals: np.ndarray        # (V, r-1, r-1): dual of the constraint phi[v] == copies[v, j]
    prev_copies: np.ndarray  # (V, r-1, r-1): the copies before the last edge sweep
    work: np.ndarray         # (V, r-1, r-1): scratch for the sweeps and residuals
    iteration: int = 0
    res_primal: float = np.inf
    res_dual: float = np.inf


@dataclass(frozen=True)
class AdmmResult:
    phi: MissingTable
    converged: bool
    iterations: int
    res_primal: float
    res_dual: float
    objective: float


def mixing_weight(lam: float, rho: float) -> float:
    """Exact minimizer weight for the per-edge subproblem."""
    if lam < 0 or rho <= 0:
        raise DomainError("need lam >= 0 and rho > 0")
    return 0.5 * (1.0 + rho / (4.0 * lam + rho))


def edge_update(a: np.ndarray, b: np.ndarray, lam: float, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Minimize lam||x-y||^2 + (rho/2)(||a-x||^2 + ||b-y||^2) over (x, y)."""
    alpha = mixing_weight(lam, rho)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return alpha * a + (1.0 - alpha) * b, alpha * b + (1.0 - alpha) * a


def _phi_of_nu(nu: np.ndarray, y: np.ndarray, q: np.ndarray, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Row minimizers at multiplier nu and their slopes -d phi / d nu.

    Stable on both signs of z = y + nu. The slope phi / sqrt(z^2 + 2 scale q)
    is 0/0 = nan where q and z are both zero.
    """
    z = y + nu[:, None]
    root = np.sqrt(z * z + 2.0 * scale * q)
    with np.errstate(divide="ignore", invalid="ignore"):
        pos = 2.0 * q / (root + z)
        phi = np.where(z > 0, pos, (root - z) / scale)
        return phi, phi / root


def _vertex_update_batch(
    q: np.ndarray, y: np.ndarray, rho: float, degree: int, nu0: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Solve every per-vertex subproblem at once; rows land on the simplex.

    Returns the rows and their multipliers. The row residual
    s(nu) = sum(phi(nu)) - 1 is decreasing and convex in nu. Each pass takes
    a Newton step on every row still active and falls back to the midpoint of
    the row's bracket where the step is not finite or leaves the open bracket
    (rtsafe, Numerical Recipes section 9.4). A row is frozen for good once
    |s| <= NU_TOL or its bracket has collapsed; left active, converged rows
    drift back out of the tolerance band through float noise. ``nu0`` is a
    warm start, taken on the rows where it lies inside the bracket.
    """
    scale = 2.0 * rho * degree
    q = np.asarray(q, dtype=float)
    y = np.asarray(y, dtype=float)
    lo = -y.max(axis=1) - rho * degree                    # s(lo) >= 0
    hi = -y.min(axis=1) + np.maximum(q.sum(axis=1), 1.0)  # s(hi) <= 0
    nu = 0.5 * (lo + hi)
    if nu0 is not None:
        nu = np.where((lo < nu0) & (nu0 < hi), nu0, nu)
    phi_out = np.empty_like(q)
    nu_out = np.empty_like(nu)
    rows = np.arange(q.shape[0])
    for _ in range(_MAX_NU_PASSES):
        phi, slope = _phi_of_nu(nu, y, q, scale)
        s = phi.sum(axis=1) - 1.0
        above = s >= 0
        lo = np.where(above, nu, lo)
        hi = np.where(above, hi, nu)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = nu + s / slope.sum(axis=1)
        frozen = (np.abs(s) <= NU_TOL) | (hi - lo <= 4 * np.finfo(float).eps * np.maximum(1.0, np.abs(nu)))
        if frozen.any():
            phi_out[rows[frozen]] = phi[frozen]
            nu_out[rows[frozen]] = nu[frozen]
            active = ~frozen
            if not active.any():
                break
            rows, y, q, lo, hi, step = (a[active] for a in (rows, y, q, lo, hi, step))
        nu = np.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
    else:
        phi_out[rows] = _phi_of_nu(nu, y, q, scale)[0]
        nu_out[rows] = nu
    worst = np.max(np.abs(phi_out.sum(axis=1) - 1.0))
    if not worst <= NU_HARD_TOL:  # also catches a nan residual
        raise NumericError(f"simplex multiplier search stalled at residual {worst:.3e}")
    # trim float fuzz just past the box; the multiplier residual bounds the change
    return np.clip(phi_out, 0.0, 1.0), nu_out


def vertex_update(q_row: np.ndarray, y: np.ndarray, rho: float, degree: int) -> np.ndarray:
    """Closed-form simplex minimizer for one vertex.

    ``q_row`` holds the aggregated responsibilities of the vertex, ``y`` is
    rho * sum over neighbors of (dual - copy). Entries come out zero exactly
    where ``q_row`` is zero and the multiplier pushes them to the boundary.
    """
    if rho <= 0 or degree < 1:
        raise DomainError("need rho > 0 and degree >= 1")
    q_row = np.asarray(q_row, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(q_row)) and np.all(np.isfinite(y))):
        raise DomainError("responsibilities and y must be finite")
    if np.any(q_row < 0):
        raise DomainError("responsibilities must be nonnegative")
    return _vertex_update_batch(q_row[None, :], y[None, :], rho, degree)[0][0]


# ---------------------------------------------------------------------------
# Objective and diagnostics.
# ---------------------------------------------------------------------------


def _partner(slots: np.ndarray, graph: CayleyGraph, out: np.ndarray | None = None) -> np.ndarray:
    """The other endpoint's entry on each slot's edge: ``slots[N[v, j], j]``."""
    # one take over flattened (vertex, slot) rows; indexing with the pair of
    # arrays (N, slot) gathers the same rows about 3x slower at r = 7. The
    # rows are in range by construction of the graph, and mode "clip" lets
    # take write straight into ``out`` where "raise" buffers a copy.
    rows = graph.neighbors * (graph.r - 1) + np.arange(graph.r - 1)
    return np.take(slots.reshape(-1, slots.shape[-1]), rows, axis=0, out=out, mode="clip")


def edge_penalty(phi: np.ndarray, graph: CayleyGraph) -> float:
    """Sum over graph edges of the squared row difference.

    Each edge appears once from each endpoint's slot, hence the half.
    """
    # in place: at r = 7 each (V, r-1, r-1) temporary is a fresh 1.4 MB allocation
    diff = np.take(phi, graph.neighbors, axis=0)
    diff -= phi[:, None, :]
    return 0.5 * float(np.square(diff, out=diff).sum())


def phi_objective(phi: np.ndarray, q: np.ndarray, graph: CayleyGraph, lam: float) -> float:
    """-sum q log phi (0 log 0 = 0) plus the edge penalty."""
    mask = q > 0
    vals = phi[mask]
    if np.any(vals <= 0):
        return np.inf
    nll = -float((q[mask] * np.log(vals)).sum())
    return nll + lam * edge_penalty(phi, graph)


def augmented_lagrangian(state: AdmmState, q: np.ndarray, graph: CayleyGraph, lam: float, rho: float) -> float:
    """The penalty-split objective driving the vertex and edge sweeps."""
    mask = q > 0
    vals = state.phi[mask]
    if np.any(vals <= 0):
        return np.inf
    total = -float((q[mask] * np.log(vals)).sum())
    total += 0.5 * lam * float(((state.copies - _partner(state.copies, graph)) ** 2).sum())
    total -= 0.5 * rho * float((state.duals**2).sum())
    total += 0.5 * rho * float(((state.phi[:, None, :] - state.copies + state.duals) ** 2).sum())
    return total


# ---------------------------------------------------------------------------
# Full solver.
# ---------------------------------------------------------------------------


def init_state(graph: CayleyGraph, phi0: np.ndarray) -> AdmmState:
    phi = np.array(phi0, dtype=float)
    copies = np.repeat(phi[:, None, :], graph.r - 1, axis=1)
    return AdmmState(
        phi=phi,
        nu=np.full(graph.n_vertices, np.nan),
        copies=copies,
        duals=np.zeros_like(copies),
        prev_copies=copies.copy(),
        work=np.empty_like(copies),
    )


# The sweeps write into the state's (V, r-1, r-1) buffers: at r = 7 each
# fresh temporary would be a 1.4 MB allocation on every ADMM iteration.


def vertex_sweep(state: AdmmState, q: np.ndarray, graph: CayleyGraph, rho: float) -> None:
    y = np.subtract(state.duals, state.copies, out=state.work).sum(axis=1)
    y *= rho
    state.phi, state.nu = _vertex_update_batch(q, y, rho, graph.r - 1, state.nu)


def edge_sweep(state: AdmmState, graph: CayleyGraph, lam: float, rho: float) -> None:
    """New copies into the stale buffer; the copies they replace become ``prev_copies``."""
    alpha = mixing_weight(lam, rho)
    a = np.add(state.phi[:, None, :], state.duals, out=state.prev_copies)
    b = _partner(a, graph, out=state.work)
    b *= 1.0 - alpha
    a *= alpha
    a += b
    state.copies, state.prev_copies = a, state.copies


def dual_sweep(state: AdmmState, graph: CayleyGraph) -> None:
    state.duals += np.subtract(state.phi[:, None, :], state.copies, out=state.work)


def solve_phi(
    q_table: np.ndarray,
    graph: CayleyGraph,
    lam: float,
    rho: float = 1.0,
    phi0: MissingTable | np.ndarray | None = None,
    eps_primal: float = 1.0,
    eps_dual: float = 1.0,
    max_iter: int = 100,
    trace_path: str | Path | None = None,
) -> AdmmResult:
    """Run the splitting iteration on the aggregated responsibilities.

    Stops once both residuals drop below their thresholds, else at
    ``max_iter``; a non-converged run returns the best iterate seen (by
    objective) with ``converged=False`` rather than raising.
    """
    if lam < 0 or rho <= 0:
        raise DomainError("need lam >= 0 and rho > 0")
    q = np.asarray(q_table, dtype=float)
    if q.shape != (graph.n_vertices, graph.r - 1):
        raise DimensionError(f"q_table shape {q.shape} does not match graph over r={graph.r}")
    if not np.all(np.isfinite(q)):
        raise DomainError("responsibilities must be finite")
    if np.any(q < 0):
        raise DomainError("responsibilities must be nonnegative")
    if phi0 is None:
        phi0 = np.full((graph.n_vertices, graph.r - 1), 1.0 / (graph.r - 1))
    elif isinstance(phi0, MissingTable):
        phi0 = phi0.probs
    phi0 = np.asarray(phi0, dtype=float)
    if phi0.shape != q.shape:
        raise DimensionError(f"phi0 shape {phi0.shape} does not match q_table shape {q.shape}")
    if not np.all(np.isfinite(phi0)):
        raise DomainError("phi0 must be finite")
    state = init_state(graph, phi0)

    trace_rows = [] if trace_path is not None else None
    best_phi = state.phi
    best_obj = np.inf
    while (state.res_primal >= eps_primal or state.res_dual >= eps_dual) and state.iteration < max_iter:
        vertex_sweep(state, q, graph, rho)
        edge_sweep(state, graph, lam, rho)
        dual_sweep(state, graph)
        diff = np.subtract(state.phi[:, None, :], state.copies, out=state.work)
        state.res_primal = float(np.sqrt(np.square(diff, out=diff).sum()))
        diff = np.subtract(state.copies, state.prev_copies, out=state.work)
        state.res_dual = float(np.sqrt(np.square(diff, out=diff).sum()))
        state.iteration += 1
        obj = phi_objective(state.phi, q, graph, lam)
        if obj < best_obj:
            best_obj = obj
            best_phi = state.phi
        if trace_rows is not None:
            trace_rows.append((state.iteration, obj, state.res_primal, state.res_dual))

    converged = state.res_primal < eps_primal and state.res_dual < eps_dual
    phi = state.phi if converged else best_phi
    if trace_rows is not None:
        with open(trace_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["iter", "objective", "res_p", "res_d"])
            writer.writerows(trace_rows)
    return AdmmResult(
        phi=MissingTable(graph.r, phi),
        converged=converged,
        iterations=state.iteration,
        res_primal=state.res_primal,
        res_dual=state.res_dual,
        objective=phi_objective(phi, q, graph, lam),
    )
