import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import cayley_edges, edge_penalty_loop, phi_objective, phi_step_bounds, solve_phi_projected_gradient
from partialrank import (
    DomainError,
    MissingTable,
    MixtureParams,
    Permutation,
    build_cayley_graph,
    e_step,
    generate_dataset,
    tilt_concentration_mechanism,
)
from partialrank import admm
from partialrank.admm import GAP_TOL, closed_form_phi, solve_phi
from partialrank.errors import DimensionError
from partialrank.perms import index_of, unindex


def _certificate(phi, q, graph, lam):
    primal, dual = phi_step_bounds(phi, q, cayley_edges(graph.r), lam)
    return (primal - dual) / abs(primal), primal


class TestSolvePhi:
    def test_closed_form_at_lambda_zero(self):
        graph = build_cayley_graph(3)
        rng = np.random.default_rng(1)
        q = rng.random((6, 2)) * 5
        result = solve_phi(q, graph, lam=0.0)
        assert result.converged and result.iterations == 0
        assert np.array_equal(result.phi.probs, q / q.sum(axis=1, keepdims=True))

    def test_identical_rows_reach_shared_fixed_point(self):
        # equal rows make the penalty vanish, so the optimum is the common
        # normalized row, and every Newton step keeps the rows equal
        graph = build_cayley_graph(3)
        q = np.tile(np.array([3.0, 1.0]), (6, 1))
        full = solve_phi(q, graph, lam=2.0)
        assert full.converged
        assert np.abs(full.phi.probs - np.array([0.75, 0.25])).max() < 1e-8

    @pytest.mark.parametrize("lam", [1.0, 10.0])
    def test_matches_projected_gradient_oracle(self, lam):
        graph = build_cayley_graph(3)
        rng = np.random.default_rng(2)
        for _ in range(5):
            q = rng.random((6, 2)) * 10
            result = solve_phi(q, graph, lam)
            _, oracle_obj = solve_phi_projected_gradient(q, cayley_edges(graph.r), lam)
            assert result.objective == pytest.approx(oracle_obj, abs=1e-4)

    def test_residuals_fall_fast_on_small_instances(self):
        # the solve's residual is its relative duality gap
        graph = build_cayley_graph(3)
        rng = np.random.default_rng(3)
        for _ in range(5):
            q = rng.random((6, 2)) * 4
            result = solve_phi(q, graph, 1.0)
            assert result.converged and result.iterations <= 10
            assert _certificate(result.phi.probs, q, graph, 1.0)[0] <= GAP_TOL

    def test_nonconvergence_returns_flagged_last(self):
        graph = build_cayley_graph(4)
        rng = np.random.default_rng(4)
        q = rng.random((24, 3)) * 4
        result = solve_phi(q, graph, 10.0, max_iter=1)
        assert not result.converged
        assert result.iterations == 1
        assert np.abs(result.phi.probs.sum(axis=1) - 1.0).max() <= 1e-10
        assert result.objective == pytest.approx(phi_objective(result.phi.probs, q, cayley_edges(graph.r), 10.0), rel=1e-12)

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_every_step_lowers_the_objective(self, r):
        # the arc search accepts only steps that descend, so a solve cut
        # after more steps never ends higher, and its last iterate is its best
        graph = build_cayley_graph(r)
        rng = np.random.default_rng(20 + r)
        q = rng.gamma(0.5, 2.0, size=(graph.n_vertices, r - 1))
        q[rng.random(q.shape) < 0.3] = 0.0
        start = MissingTable.uniform(r).probs
        values = [phi_objective(start, q, cayley_edges(graph.r), 10.0)]
        for steps in range(1, 6):
            values.append(solve_phi(q, graph, 10.0, max_iter=steps).objective)
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] < values[0]

    @pytest.mark.parametrize("r", [3, 4, 5])
    @pytest.mark.parametrize("kind", ["binary", "general"])
    @pytest.mark.parametrize("max_iter", [1, 100])
    def test_solve_from_an_em_start_never_raises_the_surrogate(self, r, kind, max_iter):
        # what EM's phi-step needs: the solve ends at or below the surrogate of the table
        # it starts from, the uniform one first and then each previous solve's output;
        # the E-step gives q > 0 only where that table is positive
        sigma = Permutation.identity(r)
        observed = [0, r - 2] if kind == "binary" else list(range(r - 1))
        if kind == "binary":  # only lengths 1 and r - 1 occur
            mech = tilt_concentration_mechanism(1.0, 1.2, 0.7, sigma)
        else:
            mech = MissingTable.homogeneous(r, np.arange(r - 1, 0, -1) / (r * (r - 1) / 2))
        ds = generate_dataset(MixtureParams.single(sigma, 1.0), mech, 300, rng_seed=r)
        graph = build_cayley_graph(r)
        rng = np.random.default_rng(10 * r + max_iter)

        def descends(q, phi):
            solved = solve_phi(q, graph, lam, phi0=phi, max_iter=max_iter)
            assert solved.objective <= phi_objective(phi.probs, q, cayley_edges(graph.r), lam)
            return solved.phi

        for lam in (0.1, 1.0, 10.0, 100.0):
            phi = MissingTable.uniform(r)
            for _ in range(3):
                theta = MixtureParams.single(unindex(int(rng.integers(graph.n_vertices)), r), rng.uniform(0.3, 2.0))
                phi = descends(e_step(theta, phi, ds).q_table, phi)
            # a previous solve whose equal rows hold 0.05 of the first length, then that
            # share halved: a full Newton step overshoots toward 0 there and would raise P
            row = np.zeros(r - 1)
            row[observed] = 0.95 / (len(observed) - 1)
            row[0] = 0.05
            q = np.tile(row, (graph.n_vertices, 1)) * 100.0
            start = solve_phi(q, graph, lam).phi
            q[:, 0] *= 0.5
            descends(q, start)

    def test_input_validation(self, monkeypatch):
        # every check runs before any work
        monkeypatch.setattr(admm, "_Problem", None)
        graph = build_cayley_graph(3)
        with pytest.raises(DimensionError):
            solve_phi(np.zeros((5, 2)), graph, 1.0)
        with pytest.raises(DomainError):
            solve_phi(-np.ones((6, 2)), graph, 1.0)
        # float() raised OverflowError on 10**400, and read True as 1 and "1.5" as 1.5
        for lam in (-1.0, np.nan, np.inf, "ten", 10**400, True, "1.5"):
            with pytest.raises(DomainError, match="lam"):
                solve_phi(np.ones((6, 2)), graph, lam)
        with pytest.raises(DimensionError):
            solve_phi(np.ones((6, 2)), graph, 1.0, phi0=np.full((5, 2), 0.5))
        for max_iter in (0, 2.5, True):
            with pytest.raises(DomainError):
                solve_phi(np.ones((6, 2)), graph, 1.0, max_iter=max_iter)
        for bad in (np.nan, np.inf, -1.0):
            q = np.ones((6, 2))
            q[2, 1] = bad
            with pytest.raises(DomainError):
                solve_phi(q, graph, 1.0)
            phi0 = np.full((6, 2), 0.5)
            phi0[0, 0] = bad
            with pytest.raises(DomainError):
                solve_phi(np.ones((6, 2)), graph, 1.0, phi0=phi0)

    @pytest.mark.parametrize("lam", [1e6, 1e7])
    def test_large_lam_certifies(self, lam):
        # the rows end nearly equal, where x^T L x and (r-1) x minus the neighbor sum
        # cancel; the objective and the certificate use the row differences instead
        sigma = Permutation.identity(5)
        mech = tilt_concentration_mechanism(1.0, 1.3, 0.7, sigma)
        ds = generate_dataset(MixtureParams.single(sigma, 1.0), mech, 50, rng_seed=5)
        q = e_step(MixtureParams.single(sigma, 1.0), MissingTable.uniform(5), ds).q_table
        graph = build_cayley_graph(5)
        result = solve_phi(q, graph, lam)
        assert result.converged
        assert _certificate(result.phi.probs, q, graph, lam)[0] <= GAP_TOL

    def test_one_observed_length_is_its_indicator(self):
        graph = build_cayley_graph(4)
        q = np.zeros((24, 3))
        q[::2, 1] = 2.0
        result = solve_phi(q, graph, 10.0)
        assert (result.converged, result.iterations, result.objective) == (True, 0, 0.0)
        assert np.array_equal(result.phi.probs, np.tile([0.0, 1.0, 0.0], (24, 1)))
        empty = solve_phi(np.zeros((24, 3)), graph, 10.0)
        assert np.array_equal(empty.phi.probs, closed_form_phi(np.zeros((24, 3))))


class TestEmptyColumns:
    """Columns with no q anywhere are set to 0, and the solve runs on the others.

    The module docstring shows this is exact for every lam > 0: at the reduced
    optimum every row's multiplier sum_t q_vt - phi_v . g_v is >= 0, so 0 on an
    empty column meets the full problem's KKT conditions. The certificate,
    which ranges over every column, confirms it on random requests.
    """

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_reduced_solve_is_certified_at_full_width(self, r):
        graph = build_cayley_graph(r)
        rng = np.random.default_rng(700 + r)
        for trial in range(4):
            q = rng.random((graph.n_vertices, r - 1)) * 10 ** rng.uniform(-1, 2)
            q[rng.random(q.shape) < 0.3] = 0.0
            q[rng.random(graph.n_vertices) < 0.2] = 0.0  # rows with no q
            empty = rng.permutation(r - 1)[: int(rng.integers(1, r - 2)) if r > 3 else 1]
            q[:, empty] = 0.0
            for lam in (0.1, 1.0, 10.0, 100.0):
                result = solve_phi(q, graph, lam)
                phi = result.phi.probs
                assert result.converged
                assert np.all(phi[:, empty] == 0.0)
                primal, dual = phi_step_bounds(phi, q, cayley_edges(graph.r), lam)
                assert primal - dual <= GAP_TOL * abs(primal) + 1e-12  # P = 0 with one observed column
                g = 2.0 * lam * (graph.r - 1) * phi - 2.0 * lam * phi[graph.neighbors].sum(axis=1)
                multipliers = q.sum(axis=1) - (phi * g).sum(axis=1)
                assert multipliers.min() >= -1e-6 * max(1.0, float(q.sum()))
                if r <= 4:
                    _, oracle = solve_phi_projected_gradient(q, cayley_edges(graph.r), lam)
                    assert result.objective == pytest.approx(oracle, abs=1e-4)


class TestSweepInvariants:
    """What every Newton step keeps: each step sweeps all vertices' rows at once,
    and applies the Laplacian through the slot-major neighbor table."""

    def test_rows_on_simplex_after_every_vertex_sweep(self):
        graph = build_cayley_graph(3)
        rng = np.random.default_rng(6)
        q = rng.random((6, 2)) * 3
        q[1, 0] = 0.0
        problem, _ = _reduced(q, graph, 1.0)
        x = np.full((2, 6), 0.5)
        f, lx, _ = problem.value(x)
        start, steps = f, 0
        while (moved := problem.step(x, lx, f)) is not None and steps < 30:
            x, lx, _, f_new, _ = moved
            assert np.abs(x.sum(axis=0) - 1.0).max() <= 1e-12
            assert x.min() >= 0.0 and np.all(x[problem.mass] > 0)
            assert f_new <= f  # equal only once P is flat at float resolution
            f, steps = f_new, steps + 1
        assert steps >= 3 and f < start

    def test_state_slot_shapes(self):
        graph = build_cayley_graph(4)
        q = np.random.default_rng(9).random((graph.n_vertices, 3))
        q[:, 1] = 0.0
        problem, columns = _reduced(q, graph, 1.0)
        assert list(columns) == [0, 2] and problem.empty_columns
        assert problem.q.shape == (2, graph.n_vertices) and problem.q.flags.c_contiguous
        # slot-major: entry j * V + v is the j-th neighbor of v
        assert problem.neighbors.shape == (graph.n_vertices * (graph.r - 1),)
        assert np.array_equal(problem.neighbors.reshape(graph.r - 1, graph.n_vertices), graph.neighbors.T)
        _, lx, pen = problem.value(np.full((2, graph.n_vertices), 0.5))
        assert lx.shape == (2, graph.n_vertices) and not lx.any() and pen == 0.0

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_sweeps_match_per_edge_updates(self, r):
        # L x and lam times the penalty from the slot-major row differences, against sums over the edge list
        graph = build_cayley_graph(r)
        rng = np.random.default_rng(60 + r)
        q = rng.random((graph.n_vertices, r - 1)) * 3
        q[rng.random(q.shape) < 0.3] = 0.0
        problem, columns = _reduced(q, graph, 3.0)
        x = rng.dirichlet(np.ones(columns.size), size=graph.n_vertices).T.copy()
        expected = np.zeros_like(x)
        for u, v in cayley_edges(graph.r):
            expected[:, u] += x[:, u] - x[:, v]
            expected[:, v] += x[:, v] - x[:, u]
        value, lx, pen = problem.value(x)
        assert np.abs(lx - expected).max() <= 1e-14
        assert pen == pytest.approx(3.0 * edge_penalty_loop(x.T, cayley_edges(graph.r)), rel=1e-12)
        full = np.zeros_like(q)
        full[:, columns] = x.T
        assert value == pytest.approx(phi_objective(full, q, cayley_edges(graph.r), 3.0), rel=1e-12)
        # the certificate takes the L x and penalty that value computed at x
        assert problem.lower_bound(x, lx, pen) == pytest.approx(phi_step_bounds(full, q, cayley_edges(graph.r), 3.0)[1],
                                                                rel=1e-12)

    @pytest.mark.parametrize("r", [3, 4])
    @pytest.mark.parametrize("lam", [0.5, 10.0])
    @pytest.mark.parametrize("eps,max_iter", [(1e-3, 5000), (1e-12, 7)])
    def test_solve_phi_matches_loop_reference(self, r, lam, eps, max_iter, monkeypatch):
        # the whole solve and its stopping rule, with eps as its gap tolerance, against
        # solve_phi_projected_gradient, a plain loop run to the optimum; (1e-12, 7) stops
        # at max_iter with its last iterate, cut at most 7 and at least 2 steps short of
        # the full solve, so that its objective still sits above the float floor
        monkeypatch.setattr(admm, "GAP_TOL", eps)
        graph = build_cayley_graph(r)
        rng = np.random.default_rng(100 + r)
        q = rng.random((graph.n_vertices, r - 1)) * 5
        q[rng.random(q.shape) < 0.2] = 0.0
        phi0 = rng.dirichlet(np.ones(r - 1), size=graph.n_vertices)
        if max_iter < 5000:
            max_iter = min(max_iter, solve_phi(q, graph, lam, phi0=phi0, max_iter=5000).iterations - 2)
        result = solve_phi(q, graph, lam, phi0=phi0, max_iter=max_iter)
        optimum, best = solve_phi_projected_gradient(q, cayley_edges(graph.r), lam)
        assert result.converged == (max_iter == 5000)
        assert result.iterations == max_iter or (result.converged and result.iterations < 20)
        primal, dual = phi_step_bounds(result.phi.probs, q, cayley_edges(graph.r), lam)
        assert primal == pytest.approx(result.objective, rel=1e-12)
        assert dual <= best + 1e-12 * abs(best) <= primal + 2e-12 * abs(best)
        if result.converged:
            assert primal - dual <= eps * abs(primal)
        else:  # the last iterate is one Newton step short of a solve cut one step later
            longer = solve_phi(q, graph, lam, phi0=phi0, max_iter=max_iter + 1)
            assert longer.objective < result.objective

    def test_zero_entries_only_where_mass_is_zero(self):
        graph = build_cayley_graph(3)
        rng = np.random.default_rng(8)
        q = rng.random((6, 2)) * 3
        q[0, 1] = 0.0
        result = solve_phi(q, graph, 1.0)
        assert result.converged
        assert np.all(result.phi.probs[q > 0] > 0)


def _reduced(q, graph, lam):
    """The solve's problem on the observed columns of ``q``, and those columns."""
    columns = np.flatnonzero(q.any(axis=0))
    return admm._Problem(q[:, columns].T.copy(), graph, lam, columns.size < graph.r - 1), columns


def _certificate_pair(q, x, graph, lam):
    """The solve's certificate D at the reduced rows ``x`` (``(k, V)``), and the oracle's ``(P, D)``."""
    problem, columns = _reduced(q, graph, lam)
    full = np.zeros_like(q)
    full[:, columns] = x.T
    return problem.lower_bound(x, *problem.value(x)[1:]), phi_step_bounds(full, q, cayley_edges(graph.r), lam)


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7])
def test_batch_matches_scalar_bisection_oracle(r):
    # the certificate's row-batched Newton search on the multipliers against the
    # oracle's bisection on each row, at feasible rows that are no optimum: rows
    # without mass, entries without mass at 0, and an empty column on odd trials
    rng = np.random.default_rng(40 + r)
    graph = build_cayley_graph(r)
    n = graph.n_vertices
    for trial in range(6):
        q = rng.random((n, r - 1)) * 10 ** rng.uniform(-6, 2, size=(n, 1))
        q[rng.random(q.shape) < 0.3] = 0.0
        q[:3] = 0.0
        if trial % 2 and r > 3:
            q[:, rng.integers(0, r - 1)] = 0.0
        lam = float(10 ** rng.uniform(-1, 2))
        columns = np.flatnonzero(q.any(axis=0))
        x = rng.dirichlet(np.ones(columns.size), size=n)
        x[(rng.random(x.shape) < 0.2) & (q[:, columns] == 0)] = 0.0
        x /= x.sum(axis=1, keepdims=True)
        dual, (primal, expected) = _certificate_pair(q, x.T.copy(), graph, lam)
        assert dual <= primal
        assert abs(dual - expected) <= 1e-12 * abs(primal)


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_cold_start_on_exact_zero_z(degree):
    # at the uniform start g = 2 lam L phi is exactly 0, so on rows without mass
    # the multiplier is 0 and z = g + nu is exactly 0 on every entry; the
    # certificate must treat those rows as min g = 0, and the solve from there
    # must still certify
    r = degree + 1
    graph = build_cayley_graph(r)
    rng = np.random.default_rng(30 + degree)
    q = rng.random((graph.n_vertices, degree)) * 4
    q[rng.random(q.shape) < 0.3] = 0.0
    q[rng.random(graph.n_vertices) < 0.2] = 0.0  # rows without mass
    if degree > 2:
        q[:, 1] = 0.0  # an empty column: the multipliers are also held >= 0
    columns = np.flatnonzero(q.any(axis=0))
    start = np.full((columns.size, graph.n_vertices), 1.0 / columns.size)
    dual, (primal, expected) = _certificate_pair(q, start, graph, 1.0)
    assert np.isfinite(dual) and dual <= primal
    assert abs(dual - expected) <= 1e-12 * abs(primal)
    result = solve_phi(q, graph, 1.0)
    assert result.converged
    gap, _ = _certificate(result.phi.probs, q, graph, 1.0)
    assert gap <= GAP_TOL


@given(st.integers(3, 4), st.data())
def test_search_matches_bisection_from_any_start(r, data):
    # the search starts each row at sum_t q_vt - x_v . g_v, which depends on the
    # rows x; at any feasible x it must reach the oracle's root
    graph = build_cayley_graph(r)
    n, k = graph.n_vertices, r - 1
    entries = st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 50)), min_size=n * k, max_size=n * k)
    q = np.array(data.draw(entries)).reshape(n, k)
    columns = np.flatnonzero(q.any(axis=0))
    if columns.size < 2:
        q[:, :2] += 1.0
        columns = np.flatnonzero(q.any(axis=0))
    weights = st.lists(st.floats(1e-3, 1.0), min_size=n * columns.size, max_size=n * columns.size)
    x = np.array(data.draw(weights)).reshape(n, columns.size)
    x[(q[:, columns] == 0) & data.draw(st.booleans())] = 0.0
    x[x.sum(axis=1) == 0] = 1.0
    x /= x.sum(axis=1, keepdims=True)
    lam = data.draw(st.floats(0.05, 20))
    dual, (primal, expected) = _certificate_pair(q, x.T.copy(), graph, lam)
    assert dual <= primal + 1e-12 * abs(primal)
    assert abs(dual - expected) <= 1e-12 * max(1.0, abs(primal))


@pytest.mark.parametrize("r", [3, 4, 5])
def test_slot_penalty_matches_edge_list_sum(r):
    # every length observed: the penalty the solve reports is lam times the per-edge sum at its phi
    graph = build_cayley_graph(r)
    rng = np.random.default_rng(r)
    q = rng.random((graph.n_vertices, r - 1)) * 4
    for lam in (0.5, 10.0):
        result = solve_phi(q, graph, lam)
        assert result.penalty == pytest.approx(lam * edge_penalty_loop(result.phi.probs, cayley_edges(graph.r)), rel=1e-12)
        assert result.objective == pytest.approx(phi_objective(result.phi.probs, q, cayley_edges(graph.r), lam), rel=1e-12)


@pytest.mark.parametrize("r", [4, 5])
def test_edge_penalty_on_all_zero_columns_matches_edge_loop(r):
    # the paper's binary tables: only lengths 1 and r - 1 carry q, and the other columns of phi are 0
    graph = build_cayley_graph(r)
    q = np.zeros((graph.n_vertices, r - 1))
    q[:, [0, r - 2]] = np.random.default_rng(r + 10).random((graph.n_vertices, 2)) * 4
    result = solve_phi(q, graph, 3.0, max_iter=3)
    assert not result.phi.probs[:, 1 : r - 2].any()
    assert result.penalty > 0
    assert result.penalty == pytest.approx(3.0 * edge_penalty_loop(result.phi.probs, cayley_edges(graph.r)), rel=1e-12)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_hessian_product_matches_dense_reduced_hessian(r):
    # the conjugate-gradient product against E^T (C + 2 lam L) E written out as
    # dense matrices over the flattened (k, V) entries, for every count of
    # observed columns, with random pivots and held entries
    graph = build_cayley_graph(r)
    n = graph.n_vertices
    rng = np.random.default_rng(90 + r)
    laplacian = np.zeros((n, n))
    for u, v in cayley_edges(graph.r):
        laplacian[[u, v], [u, v]] += 1.0
        laplacian[[u, v], [v, u]] -= 1.0
    for k in range(2, r):
        q = np.zeros((n, r - 1))
        q[:, np.sort(rng.choice(r - 1, size=k, replace=False))] = rng.random((n, k))
        lam = float(10 ** rng.uniform(-2, 2))
        problem, _ = _reduced(q, graph, lam)
        pivot = rng.integers(k, size=n)
        at = pivot * n + np.arange(n)
        is_pivot = pivot == np.arange(k)[:, None]
        free = ~is_pivot & (rng.random((k, n)) > 0.2)  # the rest are held
        curvature = rng.random((k, n)) * 10
        # E keeps each non-pivot entry and puts minus their sum at the row's pivot
        e = np.diag((~is_pivot).ravel() * 1.0)
        for j in np.flatnonzero(~is_pivot.ravel()):
            e[at[j % n], j] = -1.0
        dense = e.T @ (np.diag(curvature.ravel()) + 2.0 * lam * np.kron(np.eye(k), laplacian)) @ e
        p = np.where(free, rng.standard_normal((k, n)), 0.0)
        expected = np.where(free.ravel(), dense @ p.ravel(), 0.0).reshape(k, n)
        got = problem.hessian_product(p, at, is_pivot * 1.0, curvature + 2.0 * lam * (r - 1), free)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()


def test_phi_objective_zero_log_zero_convention():
    graph = build_cayley_graph(3)
    q = np.random.default_rng(5).random((6, 2)) * 3
    q[::2, 1] = 0.0
    for lam, table in ((0.0, q), (1.0, q * [1.0, 0.0]), (1.0, np.zeros_like(q))):
        # lam = 0 with zero entries, one observed length, no mass at all
        result = solve_phi(table, graph, lam)
        assert np.isfinite(result.objective) and result.penalty == 0.0
        expected = phi_objective(result.phi.probs, table, cayley_edges(graph.r), lam)
        assert result.objective == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("r", [6, 7])
def test_solve_phi_is_equivariant_under_item_relabeling(r):
    # relabeling the items by a bijection g maps each vertex to another and
    # keeps every neighbor slot, so the relabeled q gives the relabeled rows;
    # the sums run in another order, so agreement is to rounding, not bitwise
    graph = build_cayley_graph(r)
    rng = np.random.default_rng(90 + r)
    g = rng.permutation(r) + 1
    image = np.array([
        index_of(Permutation.from_ordering([int(g[item - 1]) for item in unindex(v, r).inverse]))
        for v in range(graph.n_vertices)
    ])
    assert np.array_equal(graph.neighbors[image], image[graph.neighbors])
    q = rng.random((graph.n_vertices, r - 1)) * 20
    q[rng.random(q.shape) < 0.2] = 0.0
    phi0 = rng.dirichlet(np.ones(r - 1), size=graph.n_vertices)
    moved_q, moved_phi0 = np.empty_like(q), np.empty_like(phi0)
    moved_q[image], moved_phi0[image] = q, phi0
    plain = solve_phi(q, graph, 10.0, phi0=phi0)
    moved = solve_phi(moved_q, graph, 10.0, phi0=moved_phi0)
    assert plain.converged and moved.converged and plain.iterations == moved.iterations
    assert np.allclose(moved.phi.probs[image], plain.phi.probs, rtol=1e-9, atol=1e-12)


class TestDualityGap:
    """The phi-step's optimality, checked by a duality-gap certificate
    (``oracles.phi_step_bounds``) that needs no brute force at r = 6 and 7."""

    @pytest.mark.parametrize("r", [3, 4, 5])
    @pytest.mark.parametrize("lam", [1.0, 10.0])
    def test_certificate_bounds_the_true_gap(self, r, lam):
        graph = build_cayley_graph(r)
        rng = np.random.default_rng(70 + r)
        q = rng.random((graph.n_vertices, r - 1)) * 10
        q[rng.random(q.shape) < 0.3] = 0.0
        loose = solve_phi(q, graph, lam, max_iter=1)  # one Newton step, short of the optimum
        assert not loose.converged
        primal, dual = phi_step_bounds(loose.phi.probs, q, cayley_edges(graph.r), lam)
        assert primal == pytest.approx(loose.objective, rel=1e-12)
        optimum, best = solve_phi_projected_gradient(q, cayley_edges(graph.r), lam)
        assert primal - best > 0
        assert primal - dual >= primal - best  # the certificate is at least the true gap
        at_optimum, _ = _certificate(optimum, q, graph, lam)
        assert abs(at_optimum) <= 1e-9

    @pytest.mark.parametrize("r", [6, 7])
    @pytest.mark.parametrize("merged", [True, False], ids=["merged", "full"])
    def test_tight_solve_is_certified_and_a_feasible_step_raises_it(self, r, merged):
        graph = build_cayley_graph(r)
        rng = np.random.default_rng(80 + r)
        lam = 10.0
        q = rng.random((graph.n_vertices, r - 1)) * 4.0
        q[rng.random(q.shape) < 0.3] = 0.0
        if merged:  # binary data: only lengths 1 and r-1 are observed
            q[:, 1 : r - 2] = 0.0
        result = solve_phi(q, graph, lam)
        assert result.converged
        assert np.all(result.phi.probs[:, 1 : r - 2] == 0.0) == merged
        gap, primal = _certificate(result.phi.probs, q, graph, lam)
        assert primal == pytest.approx(result.objective, rel=1e-12)
        assert 0 <= gap <= GAP_TOL
        # a step of 1e-3 toward the uniform rows stays feasible and raises the certificate
        moved = 0.999 * result.phi.probs + 0.001 / (r - 1)
        assert _certificate(moved, q, graph, lam)[0] > 1e-9 + gap
