"""The graph-regularized missing-table step, solved by projected Newton.

Solves, for a fixed table of aggregated responsibilities ``q``:

    minimize  P(phi) = -sum_{v,t} q[v,t] log phi[v,t]
                       + lam * sum_{{u,v} in E} ||phi_u - phi_v||^2
    over rows of phi on the probability simplex.

(The module keeps its historical name; no ADMM is left in it.)

Only the observed lengths carry variables. A length column with no q at any
vertex is set to 0, which is exact for every lam > 0. At the optimum over the
observed columns each row's simplex multiplier nu_v is >= 0. Suppose some
nu_v < 0, and write g = 2 lam L phi (L the Laplacian of the Cayley graph,
whose vertices all have degree r-1). Stationarity gives
g_vs = q_vs / phi_vs - nu_v > 0 on the row's positive entries, and the bound
condition gives g_vs >= -nu_v > 0 on its zero entries; yet
sum_s (L phi)_vs = (r-1) - sum_{u~v} 1 = 0, because every row sums to 1. So
nu_v >= 0, and with L phi = 0 on an all-zero column, phi = 0 there meets the
full problem's KKT conditions (g + nu >= 0 with phi = 0, q = 0).

On the k observed columns the arrays are length-major, ``(k, V)``. Each
Newton step eliminates every row's largest entry (its pivot is 1 minus the
others), which leaves only the bounds phi >= 0 on the other entries. Entries
with q = 0 that sit within eps of 0 with a positive reduced gradient are held
(Bertsekas's eps-active set, SIAM J. Control Optim. 20(2), 1982): they take a
diagonally scaled gradient step, which the projection clips at 0. The other
entries take a Jacobi-preconditioned conjugate-gradient step on the reduced
Hessian E^T (diag(q / phi^2) + 2 lam L) E, stopped by an inexact-Newton
forcing term. Its product gathers neighbors for k - 1 lengths only, exactly:
E p puts minus the row's other entries at its pivot, so each vertex's entries
of E p, and so of its neighbor sum, add to 0, and the last length's neighbor
sum is minus the others'. A projected Armijo search along the arc picks the
step length: it rejects a negative pivot, and it keeps every entry with mass
above a tenth of its value, as interior-point methods keep a fraction of the
distance to the boundary, so that one row near its bound does not shorten
the step of every other row. Every iterate is feasible and no step raises P:
P falls until it is flat at float resolution.

A solve stops on a duality-gap certificate. The penalty is convex, so it lies
above its tangent at phi: lam pen(x) >= g . x - lam pen(phi). Hence

    min P >= D = sum_v min_{x in simplex} (-q_v . log x + g_v . x) - lam pen(phi),

over every length column, the unobserved ones included (there g = 0 and
q = 0, so they only add the constraint nu_v >= 0). Each row minimum is its
Lagrange dual, max over nu of sum_{q_t > 0} q_t (1 + log((g_t + nu) / q_t)) - nu,
found by safeguarded Newton steps on its derivative from the multiplier
sum_t q_vt - phi_v . g_v, which is exact at the optimum. The solve stops once
(P - D) / |P| <= GAP_TOL, or after ``max_iter`` Newton steps with
``converged=False`` and its last iterate. D is computed only once the Newton
decrement predicts that the bound can hold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .missing import MissingTable
from .perms import CayleyGraph
from .util import check_integer

GAP_TOL = 1e-6       # relative duality gap at which a solve stops
_EPS_ACTIVE = 1e-9   # an entry without mass this close to 0 is held when pushed outward
_ETA_FLOOR = 1e-2    # least forcing term of the conjugate-gradient stop
_ARMIJO = 1e-4       # sufficient-decrease fraction of the arc search
_KEEP = 0.1          # least fraction of its value an entry with mass keeps in one step
_MAX_HALVINGS = 60   # step halvings before the arc search gives up
_ROW_PASSES = 50     # Newton passes of the certificate's multiplier search


@dataclass(frozen=True)
class AdmmResult:
    phi: MissingTable
    converged: bool
    iterations: int  # Newton steps taken
    objective: float


def _laplacian_and_penalty(x: np.ndarray, neighbors: np.ndarray) -> tuple[np.ndarray, float]:
    """L x and the sum over edges of the squared row differences, for the length-major x and the
    slot-major ``neighbors`` (entry j*V + v is N[v, j]). Both come from the differences themselves:
    (r-1) x minus the neighbor sum, and x^T L x, cancel where rows nearly agree, as at large lam.
    Each edge is seen from both of its ends, hence the half."""
    k, n = x.shape
    diff = x.take(neighbors, axis=1).reshape(k, neighbors.size // n, n)
    np.subtract(x[:, None, :], diff, out=diff)
    return diff.sum(axis=1), 0.5 * float(np.vdot(diff, diff))


def edge_penalty(phi: np.ndarray, graph: CayleyGraph) -> float:
    """Sum over graph edges of the squared row difference; an all-zero length column adds 0."""
    return _laplacian_and_penalty(phi.T[phi.any(axis=0)], graph.neighbors.T.ravel())[1]


def phi_objective(phi: np.ndarray, q: np.ndarray, graph: CayleyGraph, lam: float) -> float:
    """-sum q log phi (0 log 0 = 0) plus the edge penalty."""
    mask = q > 0
    vals = phi[mask]
    if np.any(vals <= 0):
        return np.inf
    nll = -float((q[mask] * np.log(vals)).sum())
    return nll + lam * edge_penalty(phi, graph)


def closed_form_phi(q_table: np.ndarray) -> np.ndarray:
    """Unregularized missing-table step: normalized rows, uniform where empty."""
    totals = q_table.sum(axis=1, keepdims=True)
    uniform = np.full_like(q_table, 1.0 / q_table.shape[1])
    with np.errstate(invalid="ignore", divide="ignore"):
        rows = q_table / totals
    return np.where(totals > 0, rows, uniform)


class _Problem:
    """The phi-step on the observed columns, length-major: ``q`` is ``(k, V)``."""

    def __init__(self, q: np.ndarray, graph: CayleyGraph, lam: float, empty_columns: bool):
        self.q, self.lam, self.empty_columns = q, lam, empty_columns
        self.k, self.n = q.shape
        self.degree = graph.r - 1
        # slot-major neighbors: entry j*V + v is N[v, j]
        self.neighbors = graph.neighbors.T.ravel()
        self.mass = q > 0
        self.positive = np.flatnonzero(self.mass)
        self.q_positive = q.ravel()[self.positive]
        self.q_rows = q.sum(axis=0)
        self.vertices = np.arange(self.n)
        # row s * (r-1) + j of near is s * V + N[:, j], for the first k - 1 lengths s; where each vertex's
        # entries of x add to 0, spread @ x.take(near) is -2 lam times the neighbor sums of all k lengths
        self.near = (self.neighbors + self.n * np.arange(self.k - 1)[:, None]).reshape(-1, self.n)
        to_all = np.vstack([np.eye(self.k - 1), -np.ones(self.k - 1)])
        self.spread = np.kron(to_all, np.full(self.degree, -2.0 * lam))

    def hessian_product(self, p, at, on_pivot, coef, free) -> np.ndarray:
        """E^T (C + 2 lam L) E p on the free entries, else 0, for p = 0 at the pivots; coef = C + 2 lam (r-1)."""
        full = p - on_pivot * np.add.reduce(p, axis=0)  # np.add.reduce skips .sum's Python wrapper
        h = coef * full
        h += self.spread @ full.take(self.near)
        h -= h.take(at)
        h *= free
        return h

    def value(self, x: np.ndarray) -> tuple[float, np.ndarray, float]:
        """P(x), L x and the penalty at x; P is inf where an entry with mass is not positive."""
        lx, pen = _laplacian_and_penalty(x, self.neighbors)
        vals = x.ravel().take(self.positive)
        if not vals.min(initial=np.inf) > 0:
            return np.inf, lx, pen
        return self.lam * pen - float(np.vdot(self.q_positive, np.log(vals))), lx, pen

    def lower_bound(self, x: np.ndarray, lx: np.ndarray, pen: float) -> float:
        """The duality-gap certificate's D at the feasible x, whose L x and penalty are ``lx`` and ``pen``."""
        q, mass = self.q, self.mass
        g = 2.0 * self.lam * lx
        inf = np.inf
        # nu >= floor keeps g + nu >= 0 on the entries without mass (and the unobserved columns, g = 0)
        floor = -np.where(mass, inf, g).min(axis=0)
        if self.empty_columns:
            floor = np.maximum(floor, 0.0)
        has_mass = mass.any(axis=0)
        lo = np.where(mass, q - g, -inf).max(axis=0)  # s(lo) >= 0 where the row has mass
        nu = np.maximum(self.q_rows - np.einsum("kv,kv->v", x, g), lo)
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_ROW_PASSES):
                inverse = np.where(mass, 1.0 / (g + nu), 0.0)
                ratio = q * inverse
                s = ratio.sum(axis=0) - 1.0
                if not np.abs(s[has_mass]).max(initial=0.0) > 1e-12:
                    break
                step = np.fmax(nu + s / np.einsum("kv,kv->v", ratio, inverse), lo)
                nu = np.where(has_mass, step, nu)
            nu = np.where(has_mass, np.fmax(nu, floor), floor)
            logs = np.log(np.where(mass, (g + nu) / q, 1.0))
        rows = float(np.vdot(q, logs)) + float(self.q_rows.sum()) - float(nu.sum())
        return rows - self.lam * pen

    def step(self, x: np.ndarray, lx: np.ndarray, f: float):
        """One projected-Newton step from x: ``(x, lx, pen, f, decrement)``, or None when the arc search fails."""
        lam, mass = self.lam, self.mass
        pivot = x.argmax(axis=0)
        at = pivot * self.n + self.vertices  # each row's pivot in the flattened array
        is_pivot = pivot == np.arange(self.k)[:, None]
        ratio = np.divide(self.q, x, out=np.zeros_like(x), where=mass)
        curvature = np.divide(ratio, x, out=np.zeros_like(x), where=mass)  # q / x^2
        grad = 2.0 * lam * lx - ratio
        reduced = grad - grad.take(at)
        held = ~mass & (x <= _EPS_ACTIVE) & (reduced > 0) & ~is_pivot
        free = ~(is_pivot | held)
        diag = curvature + curvature.take(at) + 4.0 * lam * self.degree
        coef = curvature + 2.0 * lam * self.degree
        on_pivot = is_pivot.astype(float)
        # Jacobi-preconditioned conjugate gradients on the free entries, stopped by a forcing term
        res = np.where(free, -reduced, 0.0)
        norm = float(np.sqrt(np.vdot(res, res)))
        target = max(_ETA_FLOOR, min(0.5, np.sqrt(norm / max(1.0, f)))) * norm
        inv_diag = np.where(free, 1.0 / diag, 0.0)
        d = np.zeros_like(x)
        z = res * inv_diag
        p = z.copy()
        rz = float(np.vdot(res, z))
        for _ in range(free.size):
            if not rz > 0:
                break
            hp = self.hessian_product(p, at, on_pivot, coef, free)
            scale = rz / float(np.vdot(p, hp))
            d += scale * p
            res -= scale * hp
            if np.sqrt(np.vdot(res, res)) <= target:
                break
            z = res * inv_diag
            rz, rz_old = float(np.vdot(res, z)), rz
            p *= rz / rz_old
            p += z
        decrement = -float(np.vdot(reduced, d))
        d -= np.where(held, reduced / diag, 0.0)  # held entries take a scaled gradient step
        # projected Armijo search along the arc x(a) = max(x + a d, floor), the pivots taking up the rest
        others = np.where(is_pivot, 0.0, x)
        floor = np.where(mass & ~is_pivot, _KEEP * x, 0.0)
        alpha = 1.0
        for _ in range(_MAX_HALVINGS):
            y = np.maximum(others + alpha * d, floor)
            top = 1.0 - y.sum(axis=0)
            if top.min() >= 0.0:
                y.ravel()[at] = top
                f_new, ly, pen = self.value(y)
                slope = float(np.vdot(reduced, y - x))  # the move's first-order change of P
                if slope < 0 and f_new <= f + _ARMIJO * slope:
                    return y, ly, pen, f_new, decrement
            alpha *= 0.5
        return None


def _checked(q_table, graph: CayleyGraph, lam, phi0, max_iter) -> tuple[np.ndarray, np.ndarray | None, float]:
    """The solve's inputs as float arrays, or a typed error before any work."""
    try:
        lam = float(lam)
    except (TypeError, ValueError):
        raise DomainError(f"lam must be a real number, got {lam!r}") from None
    if not (np.isfinite(lam) and lam >= 0):
        raise DomainError(f"need a finite lam >= 0, got {lam!r}")
    check_integer(max_iter, "max_iter", 1)
    q = np.asarray(q_table, dtype=float)
    shape = (graph.n_vertices, graph.r - 1)
    if q.shape != shape:
        raise DimensionError(f"q_table shape {q.shape} does not match graph over r={graph.r}")
    if not np.all(np.isfinite(q)):
        raise DomainError("responsibilities must be finite")
    if np.any(q < 0):
        raise DomainError("responsibilities must be nonnegative")
    if isinstance(phi0, MissingTable):
        phi0 = phi0.probs
    if phi0 is not None:
        phi0 = np.asarray(phi0, dtype=float)
        if phi0.shape != shape:
            raise DimensionError(f"phi0 shape {phi0.shape} does not match q_table shape {q.shape}")
        if not np.all(np.isfinite(phi0)) or np.any(phi0 < 0):
            raise DomainError("phi0 must be finite and nonnegative")
    return q, phi0, lam


def _start(phi0: np.ndarray | None, columns: np.ndarray, mass: np.ndarray) -> np.ndarray:
    """The start on the observed columns, ``(k, V)``: phi0's rows there, renormalized,
    and mixed halfway with the uniform row where an entry with mass would be 0."""
    k = columns.size
    if phi0 is None:
        return np.full(mass.shape, 1.0 / k)
    x = phi0[:, columns].T.copy()
    totals = x.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(totals > 0, x / totals, 1.0 / k)
    bad = (mass & (x <= 0)).any(axis=0)
    return np.where(bad, 0.5 * x + 0.5 / k, x)


def solve_phi(
    q_table: np.ndarray,
    graph: CayleyGraph,
    lam: float,
    phi0: MissingTable | np.ndarray | None = None,
    max_iter: int = 100,
) -> AdmmResult:
    """Minimize the phi-step objective from ``phi0`` (default: the uniform table).

    Stops once the relative duality gap is at most ``GAP_TOL``, else after
    ``max_iter`` Newton steps with ``converged=False`` and its last iterate.
    At lam = 0 the rows are :func:`closed_form_phi`'s, and with at most one
    observed length they are that length's indicator; both are exact.
    """
    q, phi0, lam = _checked(q_table, graph, lam, phi0, max_iter)
    r = graph.r
    columns = np.flatnonzero(q.any(axis=0))
    if lam == 0 or columns.size <= 1:
        phi = closed_form_phi(q) if lam == 0 or columns.size == 0 else np.tile(q.any(axis=0), (len(q), 1)) * 1.0
        return AdmmResult(MissingTable(r, phi), True, 0, phi_objective(phi, q, graph, lam))
    problem = _Problem(q[:, columns].T.copy(), graph, lam, columns.size < r - 1)
    x = _start(phi0, columns, problem.mass)
    f, lx, pen = problem.value(x)
    converged, steps, decrement = False, 0, np.inf
    while True:
        if decrement <= 2.0 * GAP_TOL * abs(f) and f - problem.lower_bound(x, lx, pen) <= GAP_TOL * abs(f):
            converged = True
            break
        if steps == max_iter:
            break
        moved = problem.step(x, lx, f)
        steps += 1
        if moved is None:  # no descent left at float resolution
            converged = f - problem.lower_bound(x, lx, pen) <= GAP_TOL * abs(f)
            break
        x, lx, pen, f, decrement = moved
    phi = np.zeros_like(q)
    phi[:, columns] = x.T
    return AdmmResult(MissingTable(r, phi), converged, steps, f)
