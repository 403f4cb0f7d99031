"""Graph-regularized estimation of the missing table by ADMM edge splitting.

Solves, for a fixed table of aggregated responsibilities ``q``:

    minimize  -sum_{v,t} q[v,t] log phi[v,t]
              + lam * sum_{{u,v} in E} ||phi_u - phi_v||^2
    over rows of phi on the probability simplex,

by keeping one copy of each endpoint per edge, so every iteration is a sweep
of independent per-vertex updates, independent per-edge updates, and a dual
ascent step. The per-vertex subproblem has a closed form up to the simplex
multiplier nu, which a monotone Newton search pins down (warm-started from the
previous sweep's nu); the per-edge subproblem is an exact convex combination
with a constant mixing weight

    alpha = (1 + rho / (4 lam + rho)) / 2  in (1/2, 1].

Copies and duals live on neighbor slots: entry ``[j, v]`` belongs to vertex v
on the edge to ``N[v, j]``, where ``N = graph.neighbors`` and slot j swaps the
items at positions j and j+1. That swap undoes itself, so ``N[N[v, j], j] == v``
and the other endpoint's copy on the same edge sits at ``[j, N[v, j]]``. Every
sweep is then a broadcast over ``(B, r-1, V, k)`` arrays (B members and k
length columns, see below) plus one gather, written into buffers the stack
owns. The slot axis comes before the vertex axis, and the multiplier search
holds its rows length-major, so every sum over slots or lengths adds whole
contiguous planes: numpy reduces an innermost axis only r-1 wide about ten
times slower.

The arrays have a leading member axis: a :class:`PhiStack` runs several
problems on the same graph, each with its own ``q``, ``lam`` and start, in
lockstep. A member joins at the step after it is pushed, and leaves once it
converges or has run ``max_iter`` iterations of its own; an unconverged member
returns its last iterate. Every operation is row-local, so each member's
iterates are bitwise those of its own :func:`solve_phi`. At r = 5 the arrays
are so small that stacking members mostly saves numpy's per-call overhead; at
r = 7 it saves nothing, and :func:`members_per_call` says how many members to
stack. The objective is evaluated once per member, when it leaves the stack.

Lengths with no mass share one column. Every stack maps each length to a
column: one per observed length plus one for all the others where two or
more are unobserved (k is the number observed plus one), else the identity
(k = r-1). The unobserved columns have q = 0 and equal starts, and every
sweep treats them alike, so they would stay bitwise equal at full width.
The one sum across lengths, the row sum of the multiplier search, adds the
lengths' planes in length order, as numpy's reduce does at full width, so a
member's rows, iterations, flags and objective are bitwise those of its
full-width solve; only its residual norms, taken on the narrow arrays, can
differ in the last bits. Both of the paper's generators are binary, so at
r = 7 the rows are 3 wide instead of 6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, NumericError
from .missing import MissingTable
from .perms import CayleyGraph

NU_TOL = 1e-12          # target on the simplex residual |sum(phi) - 1|
NU_HARD_TOL = 1e-10     # failure threshold (would violate the row-sum contract) ...
_HARD_ULPS = 4          # ... or this many ulp(max |y|) / rho, where larger; see _vertex_update_batch
_MAX_NU_PASSES = 300    # passes of the multiplier search over the rows still active
_DROP_ROWS = 1024       # frozen rows that pay for dropping them from the search's arrays
_STATE_BYTES = 1 << 22  # cap on the slot buffers of one stack (4 MiB); see members_per_call


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


def _phi_of_nu(nu: np.ndarray, y: np.ndarray, two_q: np.ndarray, scaled_q: np.ndarray, scale: float) -> tuple:
    """Row minimizers at multiplier nu and their slopes -d phi / d nu.

    Rows are columns here: ``y``, ``two_q = 2 q`` and ``scaled_q = 2 scale q``
    are ``(r-1, rows)``. Stable on both signs of z = y + nu. The slope
    phi / sqrt(z^2 + 2 scale q) is 0/0 = nan where q and z are both zero, so
    callers ignore divide and invalid warnings.
    """
    z = y + nu
    root = np.sqrt(z * z + scaled_q)
    phi = np.where(z > 0, two_q / (root + z), (root - z) / scale)
    return phi, phi / root


def _row_mass(q: np.ndarray, rho: float, degree: int, expand: tuple = ()) -> tuple:
    """What the multiplier search needs of ``q`` (rows over its last axis, one entry per
    length), fixed through a solve: ``2 q`` and ``2 scale q`` as ``(k, rows)``, a column
    holding the q of the first length that reads it, the q term of ``hi`` from every length,
    and ``expand``, the column each length reads (by default its own); see :class:`PhiStack`."""
    q = np.asarray(q, dtype=float)
    q = q.reshape(-1, q.shape[-1]).T.copy()
    expand = expand or tuple(range(len(q)))
    scale = 2.0 * rho * degree
    q_term = np.maximum(np.add.reduce(q, axis=0), 1.0)
    q = q[[expand.index(column) for column in range(max(expand) + 1)]]
    return 2.0 * q, 2.0 * scale * q, q_term, expand


def _row_sums(a: np.ndarray, expand: tuple) -> np.ndarray:
    """Sums over every length of a ``(k, rows)`` array whose length t is column ``expand[t-1]``:
    the planes are added in length order, as numpy's reduce over axis 0 adds them at full
    width, so a row adds the same numbers in the same order whatever columns its lengths share."""
    total = a[expand[0]] + a[expand[1]] if len(expand) > 1 else a[expand[0]].copy()
    for column in expand[2:]:
        total += a[column]
    return total


def _vertex_update_batch(
    mass: tuple, y: np.ndarray, rho: float, degree: int, nu0: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Solve every per-vertex subproblem at once; rows land on the simplex.

    ``mass`` is the rows' :func:`_row_mass` at the same rho and degree, and
    ``degree`` is the graph's, whatever the number of columns.
    Returns the rows and their multipliers. The row residual
    s(nu) = sum(phi(nu)) - 1 is decreasing and convex in nu, so Newton's
    method is monotone on it: from a start left of the root (s >= 0) each
    step climbs to the root without passing it, and from a start right of
    the root one step lands left of it, clamped at ``lo`` where s(lo) >= 0.
    The clamp also sends the nan step of a row whose slope is 0/0 to ``lo``.
    A row is frozen once |s| <= NU_TOL or its step no longer moves nu, and
    keeps that nu. ``nu0`` is a warm start, taken on the rows where it lies
    strictly between ``lo`` and ``hi``, where s(hi) <= 0; the other rows
    start from the midpoint.

    The search works on the transposes, ``(k, rows)``: a row's sums then
    run over axis 0, which adds its entries in the same order as a sum
    along the row does, and several times faster.

    A row fails with :class:`NumericError` when its final residual is above
    ``NU_HARD_TOL``, or above ``_HARD_ULPS`` ulp(max |y|) / rho where that is
    larger: near the root adjacent floats of nu are ulp(|y|) apart, and s
    changes by up to ulp(|y|) / rho between them.
    """
    scale = 2.0 * rho * degree
    two_q, scaled_q, q_term, expand = mass
    y = y_all = np.asarray(y, dtype=float).T.copy()
    lo = -y.max(axis=0) - rho * degree  # s(lo) >= 0
    hi = -y.min(axis=0) + q_term        # s(hi) <= 0
    nu = 0.5 * (lo + hi)
    if nu0 is not None:
        nu = np.where((lo < nu0) & (nu0 < hi), nu0, nu)
    rows = None  # the rows still searched, once frozen ones have been dropped
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_NU_PASSES):
            phi, slope = _phi_of_nu(nu, y, two_q, scaled_q, scale)
            s = _row_sums(phi, expand) - 1.0
            slope = _row_sums(slope, expand)
            # where z^2 underflows to 0 the slope is inf and the step stalls: send it to lo too
            slope[slope == np.inf] = np.nan
            step = np.fmax(nu + s / slope, lo)
            frozen = (np.abs(s) <= NU_TOL) | (step == nu)
            # a frozen row recomputes the same phi at the nu it keeps
            nu = np.where(frozen, nu, step)
            count = np.count_nonzero(frozen)
            if count == frozen.size:
                break
            if count >= _DROP_ROWS:
                # take gathers columns about 3x faster than boolean or fancy indexing
                if rows is None:
                    phi_out, nu_out, rows = np.empty_like(y), np.empty_like(nu), np.arange(y.shape[1])
                done, active = frozen.nonzero()[0], (~frozen).nonzero()[0]
                phi_out[:, rows[done]] = phi.take(done, axis=1)
                nu_out[rows[done]] = nu[done]
                rows, lo, nu = rows[active], lo[active], nu[active]
                y, two_q, scaled_q = (a.take(active, axis=1) for a in (y, two_q, scaled_q))
        else:
            phi = _phi_of_nu(nu, y, two_q, scaled_q, scale)[0]
    if rows is None:
        phi_out, nu_out = phi, nu
    else:
        phi_out[:, rows], nu_out[rows] = phi, nu
    residual = np.abs(_row_sums(phi_out, expand) - 1.0)
    worst = np.max(residual)
    if not worst <= NU_HARD_TOL:
        bound = np.maximum(NU_HARD_TOL, _HARD_ULPS * np.spacing(np.abs(y_all).max(axis=0)) / rho)
        if not np.all(residual <= bound):  # also catches a nan residual
            raise NumericError(f"simplex multiplier search stalled at residual {worst:.3e}")
    # trim float fuzz just past the box; the multiplier residual bounds the change
    return np.clip(phi_out, 0.0, 1.0, out=phi_out).T.copy(), nu_out


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
    return _vertex_update_batch(_row_mass(q_row[None, :], rho, degree), y[None, :], rho, degree)[0][0]


# ---------------------------------------------------------------------------
# Objective and diagnostics.
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Full solver.
# ---------------------------------------------------------------------------


class PhiStack:
    """Solves on one graph, at one rho, tolerance and ``max_iter``, that run
    in lockstep as members of one stack and join and leave it one by one.

    A member is one :func:`solve_phi` problem with its own ``q``, ``lam`` and
    start. It carries its mixing weight, its iteration count, its rows and
    their multipliers, and its copies and duals, each a slice along the
    arrays' leading member axis. Every operation is row-local, so a member's
    iterates are bitwise those of its own :func:`solve_phi`, whatever else is
    stacked with it. A caller keeps the stack within :func:`members_per_call`,
    as the EM fits do.

    ``support`` names the lengths t that may carry mass (default: all). Where
    two or more lie outside it, they share one column, at the first of them;
    every other length keeps its own (see the module docstring). A member is
    expanded to every length as it leaves, and :meth:`push` refuses one with
    mass on a shared column, or whose start differs among the lengths sharing it.
    """

    def __init__(self, graph: CayleyGraph, rho: float = 1.0, eps_primal: float = 1.0, eps_dual: float = 1.0,
                 max_iter: int = 100, support=None):
        if not rho > 0:
            raise DomainError("need rho > 0")
        if max_iter < 1:
            raise DomainError("max_iter must be at least 1")
        self.graph, self.rho, self.eps_primal, self.eps_dual, self.max_iter = graph, rho, eps_primal, eps_dual, max_iter
        width, n = graph.r - 1, graph.n_vertices
        observed = np.zeros(width, dtype=bool)
        for t in range(1, graph.r) if support is None else support:
            if not 1 <= t <= width:
                raise DomainError(f"length {t} outside 1..{width}")
            observed[t - 1] = True
        first = int(np.argmax(~observed))  # the first length outside the support, else length 1
        # the first length in each column, the column each length reads, and (shared column, lengths it holds)
        self.columns, expand = np.unique(np.where(observed, np.arange(width), first), return_inverse=True)
        self.expand = tuple(expand.tolist())  # Python ints index planes fastest
        self.merged = self.expand[first], float(self.expand.count(self.expand[first]))
        self.shared = np.bincount(expand)[expand] > 1  # the lengths that share a column
        k = self.columns.size
        # the empty stack; _regroup derives the buffers, the partner rows and the row mass
        self.tags: list = []
        self.q = np.empty((0, n, width))  # (B, V, r-1): the row mass and the objective read every length
        self.phi = np.empty((0, n, k))    # (B, V, k)
        self.lam, self.alpha, self.iterations = np.empty(0), np.empty(0), np.empty(0, dtype=int)
        self.nu = np.empty((0, n))  # multipliers of the last vertex sweep, nan before it
        # (B, r-1, V, k): [b, j, v] is v's copy on the edge to N[v, j], and the dual of phi[b, v] == copies[b, j, v]
        self.copies = self.duals = np.empty((0, width, n, k))
        self._left = np.empty(0, dtype=bool)  # the members that left at the last step
        self._joining: list[tuple] = []       # (tag, q, phi0, lam, alpha) pushed since the last step
        self._capacity, self._buffers = 0, {}
        self._regroup()

    def __len__(self) -> int:
        return len(self.tags) - int(np.count_nonzero(self._left)) + len(self._joining)

    def push(self, tag, q_table: np.ndarray, phi0: np.ndarray, lam: float) -> None:
        """Add a member, named ``tag`` in what :meth:`step` returns; it joins at the next step."""
        q = np.asarray(q_table, dtype=float)
        phi0 = np.asarray(phi0, dtype=float)
        alpha = mixing_weight(lam, self.rho)
        if q.shape != self.q.shape[1:]:
            raise DimensionError(f"q_table shape {q.shape} does not match graph over r={self.graph.r}")
        if not np.all(np.isfinite(q)):
            raise DomainError("responsibilities must be finite")
        if np.any(q < 0):
            raise DomainError("responsibilities must be nonnegative")
        if phi0.shape != q.shape:
            raise DimensionError(f"phi0 shape {phi0.shape} does not match q_table shape {q.shape}")
        if not np.all(np.isfinite(phi0)):
            raise DomainError("phi0 must be finite")
        if np.any(q[:, self.shared]):
            raise DomainError("responsibilities outside the stack's length support")
        # the lengths that share a column must start bitwise equal, -0.0 and 0.0 included
        back = phi0[:, self.columns][:, self.expand]
        if not np.all((back == phi0) & (np.signbit(back) == np.signbit(phi0))):
            raise DomainError("phi0 differs among the lengths outside the stack's support")
        phi0 = phi0[:, self.columns]
        self._joining.append((tag, q, phi0, lam, alpha))

    def _regroup(self) -> None:
        """Drop the members that left and append the ones that joined, in one pass.

        Members are packed into the front of buffers kept from one regroup to
        the next, so a regroup allocates only when the stack outgrows them,
        and an emptied stack frees them all. A joining member starts with
        copies equal to its rows, zero duals and no multipliers. The row mass
        is built here, never per iteration.
        """
        keep = ~self._left
        tags, q, phi, lam, alpha = zip(*self._joining) if self._joining else ((),) * 5
        count = int(np.count_nonzero(keep))
        size = count + len(tags)
        resize = not 0 < size <= self._capacity
        width, n = self.graph.r - 1, self.graph.n_vertices
        for name in ("q", "lam", "alpha", "iterations", "phi", "nu", "copies", "duals"):
            kept = getattr(self, name)[keep]
            if resize:
                self._buffers[name] = np.empty((size, *kept.shape[1:]), kept.dtype)
            buffer = self._buffers[name][:size]
            buffer[:count] = kept
            setattr(self, name, buffer)
        if tags:
            new = slice(count, size)
            self.q[new], self.lam[new], self.alpha[new], self.phi[new] = q, lam, alpha, phi
            self.iterations[new], self.nu[new], self.duals[new] = 0, np.nan, 0.0
            self.copies[new] = self.phi[new, None]
        self.tags = [tag for tag, kept in zip(self.tags, keep) if kept] + list(tags)
        if resize:
            self._capacity = size
            # prev_copies (the copies before the last edge sweep) and work (scratch) hold nothing between steps
            self._scratch = np.empty((2, *self.copies.shape))
            # row of [b, j, N[v, j]] among the flattened (b, j, v) rows; member
            # b's rows follow those of the members before it
            partner = self.graph.neighbors.T + np.arange(width)[:, None] * n
            self._partners = np.arange(size)[:, None, None] * partner.size + partner
        self.prev_copies, self.work, self.partner = self._scratch[0, :size], self._scratch[1, :size], self._partners[:size]
        self.mass = _row_mass(self.q, self.rho, width, self.expand)
        self._left, self._joining = np.zeros(len(self.tags), dtype=bool), []

    def step(self) -> list[tuple]:
        """One lockstep iteration; returns ``(tag, AdmmResult)`` for each member that left.

        A member leaves once both its residuals are below their thresholds,
        or after ``max_iter`` iterations with its last iterate and
        ``converged=False``. Its objective is evaluated once, as it leaves.
        """
        if self._joining or self._left.any():
            self._regroup()
        if not self.tags:
            return []
        vertex_sweep(self)
        edge_sweep(self)
        dual_sweep(self)
        res_p = _norms(self.work, self.merged)
        res_d = _norms(np.subtract(self.copies, self.prev_copies, out=self.work), self.merged)
        self.iterations += 1
        converged = (res_p < self.eps_primal) & (res_d < self.eps_dual)
        self._left = converged | (self.iterations >= self.max_iter)
        left = []
        for b in np.flatnonzero(self._left):
            phi = self.phi[b][:, self.expand]
            left.append((self.tags[b], AdmmResult(
                phi=MissingTable(self.graph.r, phi),
                converged=bool(converged[b]),
                iterations=int(self.iterations[b]),
                res_primal=float(res_p[b]),
                res_dual=float(res_d[b]),
                objective=phi_objective(phi, self.q[b], self.graph, float(self.lam[b])),
            )))
        if self._left.all():
            self._regroup()  # an empty stack holds no buffers while its runs take their E- and M-steps
        return left


# The sweeps write into the stack's (B, r-1, V, k) buffers: at r = 7 and full
# width each fresh temporary would be a 1.4 MB allocation per member on every
# ADMM iteration. Every operation is row-local, so a member's iterates do not
# depend on the others.


def vertex_sweep(stack: PhiStack) -> None:
    """New rows from the copies and duals, against the stack's row mass."""
    y = np.subtract(stack.duals, stack.copies, out=stack.work).sum(axis=1)
    y *= stack.rho
    phi, nu = _vertex_update_batch(stack.mass, y.reshape(-1, y.shape[-1]), stack.rho, stack.graph.r - 1,
                                   stack.nu.reshape(-1))
    stack.phi, stack.nu = phi.reshape(y.shape), nu.reshape(stack.nu.shape)


def edge_sweep(stack: PhiStack) -> None:
    """New copies into the stale buffer, at each member's mixing weight; the
    copies they replace become ``prev_copies``."""
    alpha = stack.alpha[:, None, None, None]
    a = np.add(stack.phi[:, None], stack.duals, out=stack.prev_copies)
    # the other endpoint's entries, a[b, j, N[v, j]], by one take over the
    # flattened rows: indexing with the pair of arrays (slot, N) is about 3x
    # slower at r = 7. The rows are in range by construction, and mode "clip"
    # lets take write straight into ``out`` where "raise" buffers a copy.
    b = np.take(a.reshape(-1, a.shape[-1]), stack.partner, axis=0, out=stack.work, mode="clip")
    b *= 1.0 - alpha
    a *= alpha
    a += b
    stack.copies, stack.prev_copies = a, stack.copies


def dual_sweep(stack: PhiStack) -> None:
    """Dual ascent; leaves the primal residual ``phi - copies`` in ``work``."""
    stack.duals += np.subtract(stack.phi[:, None], stack.copies, out=stack.work)


def _norms(diff: np.ndarray, merged: tuple) -> np.ndarray:
    """Per-member Frobenius norms of a ``(B, r-1, V, k)`` array, squared in place;
    ``merged = (column, count)`` counts that column ``count`` times (a count of 1 is exact).

    Each member's slice is contiguous, so its reduction is the same pairwise
    sum as that of the member's array on its own.
    """
    np.square(diff, out=diff)
    column, count = merged
    diff[..., column] *= count
    return np.sqrt(diff.sum(axis=(-3, -2, -1)))


def members_per_call(graph: CayleyGraph) -> int:
    """How many members a :class:`PhiStack` on ``graph`` should hold.

    Stacking pays while the stack's four slot buffers stay within
    ``_STATE_BYTES``: at r = 5 (61 KB per member) it cuts the cost of a
    member's iteration about 2x, at r = 6 (576 KB) by up to a quarter, and
    at r = 7 (5.8 MB) not at all, while each member adds its buffers and
    temporaries to the peak memory. So r = 5 stacks 68 members, r = 6
    stacks 7, and r = 7 solves one member at a time.
    """
    member = 4 * graph.n_vertices * (graph.r - 1) ** 2 * np.dtype(float).itemsize
    return max(1, _STATE_BYTES // member)


def solve_phi(
    q_table: np.ndarray,
    graph: CayleyGraph,
    lam: float,
    rho: float = 1.0,
    phi0: MissingTable | np.ndarray | None = None,
    eps_primal: float = 1.0,
    eps_dual: float = 1.0,
    max_iter: int = 100,
) -> AdmmResult:
    """Run the splitting iteration on the aggregated responsibilities.

    Stops once both residuals drop below their thresholds, else at
    ``max_iter``; a non-converged run returns its last iterate with
    ``converged=False`` rather than raising.
    """
    if phi0 is None:
        phi0 = np.full((graph.n_vertices, graph.r - 1), 1.0 / (graph.r - 1))
    elif isinstance(phi0, MissingTable):
        phi0 = phi0.probs
    stack = PhiStack(graph, rho, eps_primal, eps_dual, max_iter)
    stack.push(None, q_table, phi0, lam)
    while not (left := stack.step()):
        pass
    return left[0][1]
