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
sweep is then a broadcast over ``(B, V, r-1, r-1)`` arrays (B members, see
below) plus one gather, written into buffers the state owns.

The state has a leading member axis: :func:`solve_phi_batch` runs several
problems on the same graph, each with its own ``q``, ``lam`` and start, in
lockstep, and a member leaves the stack once it converges. Every operation
is row-local, so each member's iterates are bitwise those of its own
:func:`solve_phi`. At r = 5 the arrays are so small that stacking members
mostly saves numpy's per-call overhead; at r = 7 it saves nothing, and
:func:`members_per_call` says how many members to stack. The objective is
evaluated only at the end, for a trace, or to pick the best iterate of a
member that stops unconverged.
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
_STATE_BYTES = 1 << 22  # cap on the slot buffers of one batched solve (4 MiB); see members_per_call


@dataclass
class AdmmState:
    """Primal rows and their multipliers, per-neighbor-slot copies and duals,
    and the buffers the sweeps write into, for a stack of B members."""

    phi: np.ndarray          # (B, V, r-1)
    nu: np.ndarray           # (B, V): simplex multipliers of the last vertex sweep, nan before it
    copies: np.ndarray       # (B, V, r-1, r-1): [b, v, j] is v's copy on the edge to N[v, j]
    duals: np.ndarray        # (B, V, r-1, r-1): dual of the constraint phi[b, v] == copies[b, v, j]
    prev_copies: np.ndarray  # (B, V, r-1, r-1): the copies before the last edge sweep
    work: np.ndarray         # (B, V, r-1, r-1): scratch for the sweeps and residuals
    iteration: int = 0


@dataclass(frozen=True)
class AdmmResult:
    phi: MissingTable
    converged: bool
    iterations: int
    res_primal: float
    res_dual: float
    objective: float


def mixing_weight(lam: float | np.ndarray, rho: float) -> float | np.ndarray:
    """Exact minimizer weight for the per-edge subproblem, elementwise in ``lam``."""
    if np.any(np.asarray(lam) < 0) or rho <= 0:
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
    """The other endpoint's entry on each slot's edge: ``slots[..., N[v, j], j]``."""
    # one take over flattened (vertex, slot) rows; indexing with the pair of
    # arrays (N, slot) gathers the same rows about 3x slower at r = 7. The
    # rows are in range by construction of the graph, and mode "clip" lets
    # take write straight into ``out`` where "raise" buffers a copy.
    rows = graph.neighbors * (graph.r - 1) + np.arange(graph.r - 1)
    # members follow one another in the flattened rows
    rows = np.arange(slots.shape[0])[:, None, None] * rows.size + rows
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
    """The penalty-split objective driving the vertex and edge sweeps, for a
    state of one member; ``q`` is that member's ``(V, r-1)`` table."""
    phi, copies, duals = state.phi[0], state.copies[0], state.duals[0]
    mask = q > 0
    vals = phi[mask]
    if np.any(vals <= 0):
        return np.inf
    total = -float((q[mask] * np.log(vals)).sum())
    total += 0.5 * lam * float(((copies - _partner(state.copies, graph)[0]) ** 2).sum())
    total -= 0.5 * rho * float((duals**2).sum())
    total += 0.5 * rho * float(((phi[:, None, :] - copies + duals) ** 2).sum())
    return total


# ---------------------------------------------------------------------------
# Full solver.
# ---------------------------------------------------------------------------


def init_state(graph: CayleyGraph, phi0: np.ndarray) -> AdmmState:
    """Copies equal to the rows and zero duals, for a ``(B, V, r-1)`` stack of starts."""
    phi = np.array(phi0, dtype=float)
    copies = np.repeat(phi[..., None, :], graph.r - 1, axis=-2)
    return AdmmState(
        phi=phi,
        nu=np.full(phi.shape[:-1], np.nan),
        copies=copies,
        duals=np.zeros_like(copies),
        prev_copies=copies.copy(),
        work=np.empty_like(copies),
    )


# The sweeps write into the state's (B, V, r-1, r-1) buffers: at r = 7 each
# fresh temporary would be a 1.4 MB allocation per member on every ADMM
# iteration. Every operation is row-local, so a member's iterates do not
# depend on the others.


def vertex_sweep(state: AdmmState, q: np.ndarray, graph: CayleyGraph, rho: float) -> None:
    y = np.subtract(state.duals, state.copies, out=state.work).sum(axis=-2)
    y *= rho
    width = graph.r - 1
    phi, nu = _vertex_update_batch(q.reshape(-1, width), y.reshape(-1, width), rho, width, state.nu.reshape(-1))
    state.phi, state.nu = phi.reshape(y.shape), nu.reshape(state.nu.shape)


def edge_sweep(state: AdmmState, graph: CayleyGraph, lam: np.ndarray, rho: float) -> None:
    """New copies into the stale buffer; the copies they replace become ``prev_copies``.

    ``lam`` holds one strength per member.
    """
    alpha = mixing_weight(np.asarray(lam, dtype=float), rho)[:, None, None, None]
    a = np.add(state.phi[..., None, :], state.duals, out=state.prev_copies)
    b = _partner(a, graph, out=state.work)
    b *= 1.0 - alpha
    a *= alpha
    a += b
    state.copies, state.prev_copies = a, state.copies


def dual_sweep(state: AdmmState, graph: CayleyGraph) -> None:
    state.duals += np.subtract(state.phi[..., None, :], state.copies, out=state.work)


def _norms(diff: np.ndarray) -> np.ndarray:
    """Per-member Frobenius norms of a ``(B, V, r-1, r-1)`` array, squared in place.

    Each member's slice is contiguous, so its reduction is the same pairwise
    sum as that of the member's array on its own.
    """
    return np.sqrt(np.square(diff, out=diff).sum(axis=(-3, -2, -1)))


def _select(state: AdmmState, keep: np.ndarray) -> None:
    """Keep the members of a batched state where ``keep`` is true.

    The arrays are compacted into the front of their own buffers, so a
    member leaving allocates no new state. ``phi`` is left as it is: the
    next vertex sweep replaces it with a new array, and the rows of the
    members that left stay valid.
    """
    count = int(keep.sum())
    for name in ("nu", "copies", "duals"):
        kept = getattr(state, name)
        kept[:count] = kept[keep]
        setattr(state, name, kept[:count])
    # the contents of these two are dead between iterations
    state.prev_copies, state.work = state.prev_copies[:count], state.work[:count]


def _iterate(
    q: np.ndarray,
    phi0: np.ndarray,
    lam: np.ndarray,
    graph: CayleyGraph,
    rho: float,
    eps_primal: float,
    eps_dual: float,
    max_iter: int,
    trace: list | None = None,
) -> list[tuple]:
    """Run the splitting iteration on a stack of members in lockstep.

    Returns ``(phi, iterations, res_primal, res_dual, converged)`` per member.
    A member leaves the stack once both its residuals are below their
    thresholds or it has run ``max_iter`` iterations. With ``trace`` (a list;
    one member only) each iteration appends its objective and residuals, and
    an unconverged member returns its best iterate by objective.
    """
    state = init_state(graph, phi0)
    out = [(state.phi[b], 0, np.inf, np.inf, False) for b in range(len(q))]
    members = np.arange(len(q))
    best_phi, best_obj = state.phi[0], np.inf
    while members.size and state.iteration < max_iter:
        vertex_sweep(state, q, graph, rho)
        edge_sweep(state, graph, lam, rho)
        dual_sweep(state, graph)
        res_p = _norms(np.subtract(state.phi[..., None, :], state.copies, out=state.work))
        res_d = _norms(np.subtract(state.copies, state.prev_copies, out=state.work))
        state.iteration += 1
        if trace is not None:
            obj = phi_objective(state.phi[0], q[0], graph, float(lam[0]))
            if obj < best_obj:
                best_obj, best_phi = obj, state.phi[0]
            trace.append((state.iteration, obj, float(res_p[0]), float(res_d[0])))
        converged = (res_p < eps_primal) & (res_d < eps_dual)
        done = converged | (state.iteration >= max_iter)
        if done.any():
            for b in np.flatnonzero(done):
                phi = state.phi[b] if converged[b] or trace is None else best_phi
                out[members[b]] = (phi, state.iteration, float(res_p[b]), float(res_d[b]), bool(converged[b]))
            keep = ~done
            members, q, lam = members[keep], q[keep], lam[keep]
            _select(state, keep)
    return out


def members_per_call(graph: CayleyGraph) -> int:
    """How many members one batched solve on ``graph`` should stack.

    Stacking pays while the stack's four slot buffers stay within
    ``_STATE_BYTES``: at r = 5 (61 KB per member) it cuts the cost of a
    member's iteration about 2x, at r = 6 (576 KB) by up to a quarter, and
    at r = 7 (5.8 MB) not at all, while each member adds its buffers and
    temporaries to the peak memory. So r = 5 stacks 68 members, r = 6
    stacks 7, and r = 7 solves one member at a time.
    """
    member = 4 * graph.n_vertices * (graph.r - 1) ** 2 * np.dtype(float).itemsize
    return max(1, _STATE_BYTES // member)


def solve_phi_batch(
    q_tables: np.ndarray,
    graph: CayleyGraph,
    lams: np.ndarray,
    rho: float,
    phi0s: np.ndarray,
    eps_primal: float = 1.0,
    eps_dual: float = 1.0,
    max_iter: int = 100,
    trace: list | None = None,
) -> list[AdmmResult]:
    """:func:`solve_phi` for a stack of members that share the graph, rho, the
    tolerances and ``max_iter``; member b has its own ``q_tables[b]``,
    ``lams[b]`` and start ``phi0s[b]``.

    The members iterate in lockstep, and each one's result is bitwise what it
    would get on its own. Only a member that stops unconverged needs the
    objective of every iterate, for its best one; the iterates are
    deterministic, so that member is rerun alone with the objective tracked.
    ``trace`` (one member only) collects ``(iter, objective, res_p, res_d)``
    rows. All members are stacked at once; a caller keeps the stack within
    :func:`members_per_call`, as the EM fits do.
    """
    q = np.asarray(q_tables, dtype=float)
    lam = np.asarray(lams, dtype=float)
    phi0 = np.asarray(phi0s, dtype=float)
    if np.any(lam < 0) or rho <= 0:
        raise DomainError("need lam >= 0 and rho > 0")
    if q.ndim != 3 or q.shape[1:] != (graph.n_vertices, graph.r - 1):
        raise DimensionError(f"q_table shape {q.shape[1:]} does not match graph over r={graph.r}")
    if lam.shape != q.shape[:1]:
        raise DimensionError(f"{lam.size} lam values for {len(q)} members")
    if not np.all(np.isfinite(q)):
        raise DomainError("responsibilities must be finite")
    if np.any(q < 0):
        raise DomainError("responsibilities must be nonnegative")
    if phi0.shape != q.shape:
        raise DimensionError(f"phi0 shape {phi0.shape[1:]} does not match q_table shape {q.shape[1:]}")
    if not np.all(np.isfinite(phi0)):
        raise DomainError("phi0 must be finite")
    if trace is not None and len(q) != 1:
        raise DimensionError("a trace follows one member")
    results = []
    runs = _iterate(q, phi0, lam, graph, rho, eps_primal, eps_dual, max_iter, trace)
    for b, (phi, iterations, res_p, res_d, converged) in enumerate(runs):
        if not (converged or trace is not None):
            rerun = _iterate(q[b : b + 1], phi0[b : b + 1], lam[b : b + 1], graph, rho,
                             eps_primal, eps_dual, max_iter, [])
            phi = rerun[0][0]
        results.append(AdmmResult(
            phi=MissingTable(graph.r, phi),
            converged=converged,
            iterations=iterations,
            res_primal=res_p,
            res_dual=res_d,
            objective=phi_objective(phi, q[b], graph, float(lam[b])),
        ))
    return results


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
    q = np.asarray(q_table, dtype=float)
    if phi0 is None:
        phi0 = np.full((graph.n_vertices, graph.r - 1), 1.0 / (graph.r - 1))
    elif isinstance(phi0, MissingTable):
        phi0 = phi0.probs
    phi0 = np.asarray(phi0, dtype=float)
    trace_rows = [] if trace_path is not None else None
    result = solve_phi_batch(q[None], graph, [lam], rho, phi0[None], eps_primal, eps_dual, max_iter, trace_rows)[0]
    if trace_rows is not None:
        with open(trace_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["iter", "objective", "res_p", "res_d"])
            writer.writerows(trace_rows)
    return result
