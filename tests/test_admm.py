import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    admm_reference,
    augmented_lagrangian,
    edge_update,
    phi_step_bounds,
    project_simplex,
    solve_phi_projected_gradient,
    vertex_update_bisection,
    vertex_update_bracketed,
)
from partialrank import DomainError, MissingTable, NumericError, Permutation, build_cayley_graph
from partialrank import admm
from partialrank.admm import (
    NU_HARD_TOL,
    NU_TOL,
    PhiStack,
    _row_mass,
    _row_sums,
    _vertex_update_batch,
    dual_sweep,
    edge_penalty,
    edge_sweep,
    mixing_weight,
    phi_objective,
    solve_phi,
    vertex_sweep,
    vertex_update,
)
from partialrank.errors import DimensionError
from partialrank.perms import index_of, unindex


class TestVertexUpdate:
    def test_uniform_under_symmetry(self):
        q = np.full(3, 2.0)
        out = vertex_update(q, np.zeros(3), rho=1.0, degree=3)
        assert np.allclose(out, 1.0 / 3.0, atol=1e-12)

    def test_zero_mass_reduces_to_projection(self):
        # with no likelihood term the minimizer is the Euclidean projection of
        # the neighbor average of (copy - dual) onto the simplex
        rng = np.random.default_rng(0)
        for _ in range(20):
            degree = int(rng.integers(2, 5))
            y = rng.normal(scale=3.0, size=4)
            rho = float(rng.uniform(0.5, 2.0))
            out = vertex_update(np.zeros(4), y, rho, degree)
            expected = project_simplex(-y / (rho * degree))
            assert np.abs(out - expected).max() < 1e-9

    def test_grid_search_oracle(self):
        q = np.array([1.0, 0.0])
        out = vertex_update(q, np.zeros(2), rho=1.0, degree=2)
        grid = np.linspace(1e-9, 1.0 - 1e-9, 1_000_001)
        objective = -q[0] * np.log(grid) + 0.5 * 2.0 * (grid**2 + (1.0 - grid) ** 2)
        best = grid[np.argmin(objective)]
        assert out[0] == pytest.approx(best, abs=1e-6)
        assert out.sum() == pytest.approx(1.0, abs=1e-10)

    @given(
        st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 50)), min_size=2, max_size=6),
        st.data(),
    )
    def test_simplex_and_support(self, q_list, data):
        q = np.array(q_list)
        y = np.array(
            data.draw(st.lists(st.floats(-100, 100), min_size=len(q_list), max_size=len(q_list)))
        )
        out = vertex_update(q, y, rho=1.0, degree=len(q_list))
        assert abs(out.sum() - 1.0) <= 1e-10
        assert np.all(out >= 0)
        assert np.all(out[q > 0] > 0)

    def test_rejects_negative_mass(self):
        with pytest.raises(DomainError):
            vertex_update(np.array([-1.0, 1.0]), np.zeros(2), 1.0, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_input(self, bad):
        with pytest.raises(DomainError):
            vertex_update(np.array([bad, 1.0]), np.zeros(2), 1.0, 2)
        with pytest.raises(DomainError):
            vertex_update(np.ones(2), np.array([0.0, bad]), 1.0, 2)

    def test_nan_residual_fails_the_hard_tolerance(self):
        # nan > NU_HARD_TOL is False: the check must not let a nan row through
        with pytest.raises(NumericError):
            _vertex_update_batch(_row_mass(np.array([[np.nan, 1.0]]), 1.0, 2), np.zeros((1, 2)), 1.0, 2)


def _oracle_rows(q, y, rho, degree):
    return np.array([vertex_update_bisection(qr, yr, rho, degree)[0] for qr, yr in zip(q, y)])


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7])
def test_batch_matches_scalar_bisection_oracle(r):
    rng = np.random.default_rng(40 + r)
    k, degree = r - 1, r - 1
    for trial in range(6):
        n = 30
        y = np.clip(rng.normal(size=(n, k)) * 10 ** rng.uniform(-2, 3, size=(n, 1)), -1e3, 1e3)
        q = rng.random((n, k)) * 10 ** rng.uniform(-6, 2, size=(n, 1))
        q[rng.random((n, k)) < 0.3] = 0.0
        q[:3] = 0.0
        rho = float(rng.uniform(0.2, 3.0))
        # warm start on the row's zero-mass entry, so z = y + nu is exactly 0 there
        hit = -y[:, 0]
        q[:, 0] = np.where(np.arange(n) % 2 == 0, 0.0, q[:, 0])
        expected = _oracle_rows(q, y, rho, degree)
        far = np.where(np.arange(n) % 3 == 0, 1e6, -1e6)
        nan = np.full(n, np.nan)
        for nu0 in (None, hit, far, nan):
            phi, nu = _vertex_update_batch(_row_mass(q, rho, degree), y, rho, degree, nu0)
            assert np.abs(phi - expected).max() <= 1e-10
            assert np.abs(phi.sum(axis=1) - 1.0).max() <= NU_HARD_TOL
            # the returned multipliers reproduce the rows as a warm start
            again, _ = _vertex_update_batch(_row_mass(q, rho, degree), y, rho, degree, nu)
            assert np.abs(again - expected).max() <= 1e-10


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_cold_start_on_exact_zero_z(degree):
    # zero mass and a constant y with rho * degree = 1 put the first
    # midpoint at nu = -y: every slope is 0/0, and the clamp must send the
    # nan step to the bracket's left end
    rho = 1.0 / degree
    assert rho * degree == 1.0
    y = np.full((1, degree), 3.0)
    phi, _ = _vertex_update_batch(_row_mass(np.zeros((1, degree)), rho, degree), y, rho, degree)
    assert np.abs(phi - 1.0 / degree).max() <= 1e-10


def test_start_where_z_squared_underflows():
    # zero mass, y = 0 and nu0 = -2e-297: z^2 underflows to 0, so the slope
    # phi / sqrt(z^2) is inf and the Newton step alone would not move nu
    phi, _ = _vertex_update_batch(_row_mass(np.zeros((1, 2)), 1.0, 2), np.zeros((1, 2)), 1.0, 2, np.array([-2e-297]))
    assert np.abs(phi - 0.5).max() <= 1e-10


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7])
def test_newton_matches_bracketed_search_where_its_safeguard_never_fires(r):
    # warm starts as a vertex sweep sees them: the multipliers of a nearby y
    rng = np.random.default_rng(70 + r)
    n, degree, rho = 300, r - 1, float(rng.uniform(0.2, 3.0))
    y = rng.normal(size=(n, degree)) * 10 ** rng.uniform(-2, 2, size=(n, 1))
    q = rng.random((n, degree)) * 10 ** rng.uniform(-4, 2, size=(n, 1))
    q[rng.random((n, degree)) < 0.3] = 0.0
    _, nu0, _ = vertex_update_bracketed(q, y + rng.normal(scale=1e-2, size=y.shape), rho, degree)
    expected, expected_nu, fired = vertex_update_bracketed(q, y, rho, degree, nu0)
    phi, nu = _vertex_update_batch(_row_mass(q, rho, degree), y, rho, degree, nu0)
    calm = ~fired
    assert calm.sum() >= n * 0.9
    assert np.array_equal(phi[calm], expected[calm])
    assert np.array_equal(nu[calm], expected_nu[calm])


@given(st.integers(2, 6), st.booleans(), st.data())
def test_search_matches_bisection_from_any_start(degree, zero_mass, data):
    q = np.array(data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 50)), min_size=degree, max_size=degree)))
    if zero_mass:
        q[:] = 0.0
    y = np.array(data.draw(st.lists(st.floats(-100, 100), min_size=degree, max_size=degree)))
    rho = data.draw(st.floats(0.05, 20))
    lo, hi = -y.max() - rho * degree, -y.min() + max(q.sum(), 1.0)
    # anywhere in the bracket; z = 0 on one entry (a 0/0 slope there at zero
    # mass); and right of every -y, where a zero-mass row has zero slope
    nu0 = data.draw(st.one_of(st.floats(lo, hi), st.sampled_from(list(-y)), st.floats(-y.min(), hi)))
    phi, _ = _vertex_update_batch(_row_mass(q[None], rho, degree), y[None], rho, degree, np.array([nu0]))
    expected, _ = vertex_update_bisection(q, y, rho, degree)
    assert np.abs(phi[0] - expected).max() <= 1e-10


def test_row_that_cannot_reach_nu_tol_stops_without_progress(monkeypatch):
    # zero mass and y near 1e4: adjacent floats near the root are 1.8e-12
    # apart and s changes by 1.8e-11 between them, so no nu there has
    # |s| <= NU_TOL; the search stops once its step no longer moves nu
    q, y, rho, degree = np.zeros((1, 3)), np.array([[1e4, 1e4 + 0.5, 1e4 - 1.25]]), 0.1, 3
    mass = _row_mass(q, rho, degree)
    passes = []
    phi_of_nu = admm._phi_of_nu
    monkeypatch.setattr(admm, "_phi_of_nu", lambda *args: passes.append(1) or phi_of_nu(*args))
    phi, nu = _vertex_update_batch(mass, y, rho, degree)
    assert NU_TOL < abs(phi.sum() - 1.0) <= NU_HARD_TOL
    assert len(passes) <= 5 < admm._MAX_NU_PASSES
    for neighbour in (np.nextafter(nu, -np.inf), np.nextafter(nu, np.inf)):
        with np.errstate(invalid="ignore"):
            row, _ = phi_of_nu(neighbour, y.T, mass[0], mass[1], 2.0 * rho * degree)
        assert abs(row.sum() - 1.0) > NU_TOL


class TestEdgeUpdate:
    def test_lambda_zero_is_identity(self):
        a, b = np.array([0.2, 0.8]), np.array([0.9, 0.1])
        x, y = edge_update(a, b, lam=0.0, rho=1.0)
        assert np.array_equal(x, a) and np.array_equal(y, b)

    def test_equal_inputs_fixed(self):
        a = np.array([0.3, 0.7])
        x, y = edge_update(a, a.copy(), lam=5.0, rho=2.0)
        assert np.allclose(x, a, atol=1e-15) and np.allclose(y, a, atol=1e-15)

    def test_hand_value_and_stationarity(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        lam, rho = 1.0, 1.0
        assert mixing_weight(lam, rho) == pytest.approx(0.6, abs=1e-15)
        x, y = edge_update(a, b, lam, rho)
        assert np.allclose(x, [0.6, 0.4]) and np.allclose(y, [0.4, 0.6])

        def objective(xv, yv):
            return lam * ((xv - yv) ** 2).sum() + 0.5 * rho * (
                ((a - xv) ** 2).sum() + ((b - yv) ** 2).sum()
            )

        eps = 1e-6
        base = objective(x, y)
        for arr in (x, y):
            for i in range(2):
                arr[i] += eps
                up = objective(x, y)
                arr[i] -= 2 * eps
                down = objective(x, y)
                arr[i] += eps
                assert abs(up - down) / (2 * eps) < 1e-5  # central difference ~ 0
                assert up >= base and down >= base

    @pytest.mark.parametrize("lam,rho", [(0.0, 1.0), (0.5, 1.0), (10.0, 0.3), (1e6, 2.0)])
    def test_mixing_weight_range(self, lam, rho):
        alpha = mixing_weight(lam, rho)
        assert 0.5 < alpha <= 1.0
        assert (alpha == 1.0) == (lam == 0.0)


class TestSolvePhi:
    def test_closed_form_at_lambda_zero(self):
        graph = build_cayley_graph(3)
        rng = np.random.default_rng(1)
        q = rng.random((6, 2)) * 5
        result = solve_phi(q, graph, lam=0.0, rho=1.0, eps_primal=1e-9, eps_dual=1e-9, max_iter=5000)
        assert result.converged
        closed = q / q.sum(axis=1, keepdims=True)
        assert np.abs(result.phi.probs - closed).max() < 1e-6

    def test_identical_rows_reach_shared_fixed_point(self):
        graph = build_cayley_graph(3)
        q = np.tile(np.array([3.0, 1.0]), (6, 1))
        one = solve_phi(q, graph, lam=2.0, rho=1.0, eps_primal=1e-12, eps_dual=1e-12, max_iter=1)
        assert one.res_primal == 0.0  # symmetric start keeps copies equal to the rows
        full = solve_phi(q, graph, lam=2.0, rho=1.0, eps_primal=1e-10, eps_dual=1e-10, max_iter=5000)
        assert full.converged
        assert np.abs(full.phi.probs - np.array([0.75, 0.25])).max() < 1e-8

    @pytest.mark.parametrize("lam", [1.0, 10.0])
    def test_matches_projected_gradient_oracle(self, lam):
        graph = build_cayley_graph(3)
        rng = np.random.default_rng(2)
        for _ in range(5):
            q = rng.random((6, 2)) * 10
            result = solve_phi(q, graph, lam, 1.0, eps_primal=1e-8, eps_dual=1e-8, max_iter=20000)
            _, oracle_obj = solve_phi_projected_gradient(q, graph.edges, lam)
            assert result.objective == pytest.approx(oracle_obj, abs=1e-4)

    def test_residuals_fall_fast_on_small_instances(self):
        graph = build_cayley_graph(3)
        rng = np.random.default_rng(3)
        for _ in range(5):
            q = rng.random((6, 2)) * 4
            result = solve_phi(q, graph, 1.0, 1.0, eps_primal=1e-4, eps_dual=1e-4, max_iter=500)
            assert result.converged
            assert result.res_primal < 1e-4 and result.res_dual < 1e-4

    def test_nonconvergence_returns_flagged_last(self):
        graph = build_cayley_graph(3)
        rng = np.random.default_rng(4)
        q = rng.random((6, 2)) * 4
        result = solve_phi(q, graph, 10.0, 1.0, eps_primal=1e-12, eps_dual=1e-12, max_iter=3)
        assert not result.converged
        assert result.iterations == 3
        assert np.abs(result.phi.probs.sum(axis=1) - 1.0).max() <= 1e-10

    @pytest.mark.parametrize("lam,rho", [(1.0, 0.1), (10.0, 1.0)])
    def test_unconverged_solve_returns_its_last_iterate_not_its_best(self, lam, rho):
        # on this q the objective rises at the second iteration, so the best
        # of the two iterates is the first; the solver returns the last
        graph = build_cayley_graph(3)
        q = np.random.default_rng(17).gamma(0.5, 2.0, size=(6, 2))
        first, last = (solve_phi(q, graph, lam, rho, eps_primal=1e-14, eps_dual=1e-14, max_iter=k) for k in (1, 2))
        assert last.objective > first.objective
        assert (last.iterations, last.converged) == (2, False)
        phi, _, _, _, _ = admm_reference(q, graph, lam, rho, np.full((6, 2), 0.5), 1e-14, 1e-14, 2)
        assert np.abs(last.phi.probs - phi).max() <= 1e-10
        assert last.objective == phi_objective(last.phi.probs, q, graph, lam)

    def test_input_validation(self):
        graph = build_cayley_graph(3)
        with pytest.raises(DimensionError):
            solve_phi(np.zeros((5, 2)), graph, 1.0)
        with pytest.raises(DomainError):
            solve_phi(-np.ones((6, 2)), graph, 1.0)
        with pytest.raises(DomainError):
            solve_phi(np.ones((6, 2)), graph, -1.0)
        with pytest.raises(DimensionError):
            solve_phi(np.ones((6, 2)), graph, 1.0, phi0=np.full((5, 2), 0.5))
        for bad in (np.nan, np.inf):
            q = np.ones((6, 2))
            q[2, 1] = bad
            with pytest.raises(DomainError):
                solve_phi(q, graph, 1.0)
            phi0 = np.full((6, 2), 0.5)
            phi0[0, 0] = bad
            with pytest.raises(DomainError):
                solve_phi(np.ones((6, 2)), graph, 1.0, phi0=phi0)


def _pushed(graph, phi0, q=None, lam=1.0, rho=1.0):
    """A stack holding one member per start in ``phi0`` (unit mass unless ``q``
    is given), regrouped so that the sweeps can run on it directly."""
    stack = PhiStack(graph, rho)
    for b, start in enumerate(phi0):
        stack.push(b, np.ones_like(start) if q is None else q[b], start, lam)
    stack._regroup()
    return stack


class TestSweepInvariants:
    def test_rows_on_simplex_after_every_vertex_sweep(self):
        graph = build_cayley_graph(3)
        rng = np.random.default_rng(6)
        q = rng.random((1, 6, 2)) * 3
        state = _pushed(graph, np.full((1, 6, 2), 0.5), q, lam=1.0, rho=1.0)
        for _ in range(30):
            vertex_sweep(state)
            assert np.abs(state.phi.sum(axis=-1) - 1.0).max() <= 1e-10
            edge_sweep(state)
            dual_sweep(state)

    def test_state_slot_shapes(self):
        graph = build_cayley_graph(3)
        state = _pushed(graph, np.full((3, 6, 2), 0.5))
        assert state.copies.shape == state.duals.shape == (3, 2, graph.n_vertices, 2)
        assert state.prev_copies.shape == state.work.shape == (3, 2, graph.n_vertices, 2)
        assert state.nu.shape == (3, graph.n_vertices)

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_sweeps_match_per_edge_updates(self, r):
        # the buffered sweeps against edge_update on the edge list and the
        # dual ascent written out per slot
        graph = build_cayley_graph(r)
        rng = np.random.default_rng(60 + r)
        lam, rho = 3.0, 1.5
        state = _pushed(graph, rng.dirichlet(np.ones(r - 1), size=(1, graph.n_vertices)), lam=lam, rho=rho)
        state.duals[...] = rng.normal(scale=0.1, size=state.duals.shape)
        slot = {(int(v), int(u)): j for v in range(graph.n_vertices) for j, u in enumerate(graph.neighbors[v])}
        for _ in range(3):
            before = state.copies.copy()
            a = state.phi[0][None] + state.duals[0]
            expected = np.empty_like(a)
            for u, v in graph.edges:
                ju, jv = slot[(int(u), int(v))], slot[(int(v), int(u))]
                expected[ju, u], expected[jv, v] = edge_update(a[ju, u], a[jv, v], lam, rho)
            edge_sweep(state)
            assert np.abs(state.copies[0] - expected).max() <= 1e-15
            assert np.array_equal(state.prev_copies, before)
            duals = state.duals + (state.phi[:, None] - state.copies)
            dual_sweep(state)
            assert np.array_equal(state.duals, duals)
            state.mass = _row_mass(rng.random((1, graph.n_vertices, r - 1)), rho, r - 1)
            vertex_sweep(state)

    def test_vertex_and_edge_steps_never_raise_the_lagrangian(self):
        graph = build_cayley_graph(3)
        rng = np.random.default_rng(7)
        q = rng.random((6, 2)) * 3
        lam, rho = 2.0, 1.0
        state = _pushed(graph, rng.dirichlet(np.ones(2), size=(1, 6)), q[None], lam, rho)
        for _ in range(25):
            before = augmented_lagrangian(state, q, graph, lam, rho)
            vertex_sweep(state)
            after_vertex = augmented_lagrangian(state, q, graph, lam, rho)
            assert after_vertex <= before + 1e-8
            edge_sweep(state)
            after_edge = augmented_lagrangian(state, q, graph, lam, rho)
            assert after_edge <= after_vertex + 1e-8
            dual_sweep(state)

    @pytest.mark.parametrize("r", [3, 4])
    @pytest.mark.parametrize("lam", [0.5, 10.0])
    @pytest.mark.parametrize("eps,max_iter", [(1e-3, 5000), (1e-12, 7)])
    def test_solve_phi_matches_loop_reference(self, r, lam, eps, max_iter):
        # the whole loop and its stopping rule against admm_reference on the
        # edge list; (1e-12, 7) stops at max_iter with its last iterate
        graph = build_cayley_graph(r)
        rng = np.random.default_rng(100 + r)
        q = rng.random((graph.n_vertices, r - 1)) * 5
        q[rng.random(q.shape) < 0.2] = 0.0
        phi0 = rng.dirichlet(np.ones(r - 1), size=graph.n_vertices)
        result = solve_phi(q, graph, lam, 1.0, phi0=phi0, eps_primal=eps, eps_dual=eps, max_iter=max_iter)
        phi, iterations, converged, res_p, res_d = admm_reference(q, graph, lam, 1.0, phi0, eps, eps, max_iter)
        assert converged == (max_iter == 5000)
        assert (result.iterations, result.converged) == (iterations, converged)
        assert np.abs(result.phi.probs - phi).max() <= 1e-10
        # the solver's rows stop at |sum - 1| <= NU_TOL, the reference's are
        # exact roots: rows differ by up to ~1e-12, residuals near 1e-3 by ~1e-9
        assert result.res_primal == pytest.approx(res_p, rel=1e-8, abs=0)
        assert result.res_dual == pytest.approx(res_d, rel=1e-8, abs=0)

    def test_zero_entries_only_where_mass_is_zero(self):
        graph = build_cayley_graph(3)
        rng = np.random.default_rng(8)
        q = rng.random((6, 2)) * 3
        q[0, 1] = 0.0
        result = solve_phi(q, graph, 1.0, 1.0, eps_primal=1e-8, eps_dual=1e-8, max_iter=5000)
        assert np.all(result.phi.probs[q > 0] > 0)


@pytest.mark.parametrize("r", [3, 4, 5])
def test_slot_penalty_matches_edge_list_sum(r):
    graph = build_cayley_graph(r)
    phi = np.random.default_rng(r).dirichlet(np.ones(r - 1), size=graph.n_vertices)
    expected = sum(float(((phi[u] - phi[v]) ** 2).sum()) for u, v in graph.edges)
    assert edge_penalty(phi, graph) == pytest.approx(expected, rel=1e-12)


def test_phi_objective_zero_log_zero_convention():
    graph = build_cayley_graph(3)
    q = np.zeros((6, 2))
    q[:, 0] = 1.0
    phi = np.zeros((6, 2))
    phi[:, 0] = 1.0
    assert phi_objective(phi, q, graph, lam=1.0) == 0.0  # 0*log(0) contributes nothing
    assert phi_objective(1.0 - phi, q, graph, lam=1.0) == np.inf


def _same_result(a, b) -> bool:
    return np.array_equal(a.phi.probs, b.phi.probs) and (
        a.iterations, a.res_primal, a.res_dual, a.converged, a.objective
    ) == (b.iterations, b.res_primal, b.res_dual, b.converged, b.objective)


def _solve_staggered(graph, q, lams, phi0, max_iter):
    """Each member's result from one stack: two members join at once, then one more per step."""
    stack = PhiStack(graph, 1.0, max_iter=max_iter)
    for b in (0, 1):
        stack.push(b, q[b], phi0[b], float(lams[b]))
    results = {}
    for b in range(2, len(lams)):
        results.update(stack.step())
        stack.push(b, q[b], phi0[b], float(lams[b]))
    while len(stack):
        results.update(stack.step())
    return [results[b] for b in range(len(lams))]


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7])
def test_batch_matches_per_member_solves(r):
    # members differ in lam and q, join at different iterations, converge at
    # different iterations, and at least one stops at max_iter; each must get
    # bitwise its own solve
    graph = build_cayley_graph(r)
    rng = np.random.default_rng(80 + r)
    lams = np.array([0.5, 3.0, 10.0, 100.0] if r == 7 else [0.5, 1.0, 3.0, 10.0, 100.0, 1000.0])
    q = rng.random((lams.size, graph.n_vertices, r - 1)) * 20
    q[rng.random(q.shape) < 0.2] = 0.0
    phi0 = rng.dirichlet(np.ones(r - 1), size=(lams.size, graph.n_vertices))
    max_iter = {3: 5, 4: 12, 5: 30, 6: 30, 7: 12}[r]
    batch = _solve_staggered(graph, q, lams, phi0, max_iter)
    alone = [solve_phi(q[b], graph, float(lams[b]), 1.0, phi0=phi0[b], max_iter=max_iter) for b in range(lams.size)]
    assert len({res.iterations for res in alone}) > 1
    assert any(res.converged for res in alone) and not all(res.converged for res in alone)
    assert all(_same_result(a, b) for a, b in zip(batch, alone))


def test_stack_counts_its_members_and_frees_its_buffers_when_empty():
    graph = build_cayley_graph(4)
    q = np.random.default_rng(5).random((2, graph.n_vertices, 3))
    stack = PhiStack(graph, 1.0, eps_primal=1e-12, eps_dual=1e-12, max_iter=3)
    assert len(stack) == 0 and stack.step() == []
    stack.push("a", q[0], np.full((graph.n_vertices, 3), 1 / 3), 1.0)
    assert len(stack) == 1 and stack.copies.shape[0] == 0  # joins at the next step
    assert stack.step() == []
    stack.push("b", q[1], np.full((graph.n_vertices, 3), 1 / 3), 1.0)
    assert len(stack) == 2
    assert [tag for tag, _ in stack.step()] == []
    assert [tag for tag, _ in stack.step()] == ["a"]
    assert len(stack) == 1
    assert [tag for tag, _ in stack.step()] == ["b"]
    assert len(stack) == 0
    assert all(a.shape[0] == 0 for a in (stack.copies, stack.duals, stack.prev_copies, stack.work))


@pytest.mark.parametrize("r", [6, 7])
def test_solve_phi_is_equivariant_under_item_relabeling(r):
    # relabeling the items by a bijection g maps each vertex to another and
    # keeps every neighbor slot, so the relabeled q gives the relabeled rows;
    # with eps 1e-12 both solves run all max_iter iterations
    graph = build_cayley_graph(r)
    rng = np.random.default_rng(90 + r)
    g = rng.permutation(r) + 1
    image = np.array([
        index_of(Permutation.from_ordering([int(g[item - 1]) for item in unindex(v, r).inverse]))
        for v in range(graph.n_vertices)
    ])
    assert np.array_equal(graph.neighbors[image], image[graph.neighbors])
    assert admm.members_per_call(graph) == (1 if r == 7 else 7)
    q = rng.random((graph.n_vertices, r - 1)) * 20
    q[rng.random(q.shape) < 0.2] = 0.0
    phi0 = rng.dirichlet(np.ones(r - 1), size=graph.n_vertices)
    moved_q, moved_phi0 = np.empty_like(q), np.empty_like(phi0)
    moved_q[image], moved_phi0[image] = q, phi0
    kwargs = dict(eps_primal=1e-12, eps_dual=1e-12, max_iter=8)
    plain = solve_phi(q, graph, 10.0, 1.0, phi0=phi0, **kwargs)
    moved = solve_phi(moved_q, graph, 10.0, 1.0, phi0=moved_phi0, **kwargs)
    assert plain.iterations == moved.iterations == 8
    assert np.allclose(moved.phi.probs[image], plain.phi.probs, rtol=1e-9, atol=0)


def test_members_per_call_stacks_only_where_it_pays():
    # 4 MiB of slot buffers: stacked at r = 5 and 6, one member at a time at r = 7
    assert [admm.members_per_call(build_cayley_graph(r)) for r in (4, 5, 6, 7)] == [606, 68, 7, 1]


def test_batch_input_validation():
    graph = build_cayley_graph(3)
    q = np.ones((2, 6, 2))
    phi0 = np.full((2, 6, 2), 0.5)
    stack = PhiStack(graph)
    with pytest.raises(DimensionError):
        stack.push(0, q, phi0, 1.0)  # two members' tables as one
    with pytest.raises(DimensionError):
        stack.push(0, q[0], phi0[:1], 1.0)
    with pytest.raises(DomainError):
        stack.push(0, q[0], phi0[0], -1.0)
    for max_iter in (0, -1):
        with pytest.raises(DomainError):
            PhiStack(graph, 1.0, max_iter=max_iter)
    with pytest.raises(DomainError):
        PhiStack(graph, 0.0)
    assert len(stack) == 0


def test_mixing_weight_is_elementwise():
    lams = np.array([0.0, 0.5, 10.0, 1e6])
    assert np.array_equal(mixing_weight(lams, 0.3), [mixing_weight(float(lam), 0.3) for lam in lams])
    with pytest.raises(DomainError):
        mixing_weight(np.array([1.0, -1.0]), 1.0)


def _merged_starts(rng, n, r, support):
    """Uniform rows, and random simplex rows equal on every length outside ``support``."""
    observed = np.isin(np.arange(1, r), support)
    empty = int(np.count_nonzero(~observed))
    groups = rng.dirichlet(np.ones(observed.sum() + 1), size=n)
    random = np.empty((n, r - 1))
    random[:, observed] = groups[:, :-1]
    random[:, ~observed] = (groups[:, -1] / empty)[:, None]  # one value per row, so bitwise equal
    return np.full((n, r - 1), 1.0 / (r - 1)), random


@pytest.mark.parametrize("r,support", [(4, (2,)), (5, (1, 4)), (6, (1, 3, 5)), (6, (1, 5)), (7, (1, 6)), (7, (2, 5))])
def test_merged_stack_matches_full_width_solves(r, support):
    # lengths outside the support have q = 0 and equal starts; a stack told
    # the support keeps one column for all of them, yet each member gets
    # bitwise the rows, iterations, flag and objective of its full-width
    # solve, and residuals to rounding
    graph = build_cayley_graph(r)
    rng = np.random.default_rng(500 + r + len(support))
    observed = np.isin(np.arange(1, r), support)
    k = int(observed.sum()) + 1
    lams = [0.5, 10.0, 100.0]
    q = rng.random((len(lams), graph.n_vertices, r - 1)) * 20
    q[rng.random(q.shape) < 0.2] = 0.0
    q[:, :, ~observed] = 0.0
    for start in _merged_starts(rng, graph.n_vertices, r, support):
        stack = PhiStack(graph, 1.0, 1e-2, 1e-2, max_iter=40, support=support)
        for b, lam in enumerate(lams):
            stack.push(b, q[b], start, lam)
        merged = dict(stack.step())
        assert stack.copies.shape[-1] == stack.phi.shape[-1] == k < r - 1
        while len(stack):
            merged.update(stack.step())
        alone = [solve_phi(q[b], graph, lam, 1.0, start, 1e-2, 1e-2, 40) for b, lam in enumerate(lams)]
        assert len({res.iterations for res in alone}) > 1
        for b, full in enumerate(alone):
            got = merged[b]
            assert np.array_equal(got.phi.probs, full.phi.probs)
            assert (got.iterations, got.converged, got.objective) == (full.iterations, full.converged, full.objective)
            assert got.res_primal == pytest.approx(full.res_primal, rel=1e-12, abs=0)
            assert got.res_dual == pytest.approx(full.res_dual, rel=1e-12, abs=0)


@pytest.mark.parametrize("k", range(1, 7))
def test_row_sums_add_lengths_in_the_order_of_numpys_reduce(k):
    # the multiplier search sums every length's plane in length order; at
    # full width that must be bitwise numpy's reduce over axis 0, and with
    # merged columns the reduce of the expanded full-width array. Values
    # spread over 24 decades make the order of the additions show.
    rng = np.random.default_rng(90 + k)
    identity = tuple(range(k))
    for rows in (1, 1023, admm._DROP_ROWS, 5040, 68 * 120):  # 68 members of 120 rows: a stack at r = 5
        a = rng.standard_normal((k, rows)) * 10.0 ** rng.integers(-12, 13, size=(k, rows))
        assert np.array_equal(_row_sums(a, identity), np.add.reduce(a, axis=0))
        for width in range(k + 1, 7):
            expand = tuple(int(c) for c in rng.permutation(np.r_[np.arange(k), rng.integers(0, k, width - k)]))
            assert np.array_equal(_row_sums(a, expand), np.add.reduce(a[list(expand)], axis=0))


@pytest.mark.parametrize("r", [4, 5, 7])
def test_stack_with_at_most_one_empty_length_keeps_full_width(r):
    graph = build_cayley_graph(r)
    for support in (None, range(1, r), range(2, r)):
        stack = PhiStack(graph, support=support)
        stack.push(0, np.ones((graph.n_vertices, r - 1)), np.full((graph.n_vertices, r - 1), 1 / (r - 1)), 1.0)
        stack._regroup()
        assert stack.expand == tuple(range(r - 1)) and stack.merged[1] == 1.0
        assert stack.copies.shape == (1, r - 1, graph.n_vertices, r - 1) and stack.phi.shape[-1] == r - 1


def test_push_rejects_members_that_break_the_merge():
    graph = build_cayley_graph(5)
    n = graph.n_vertices
    stack = PhiStack(graph, support=(1, 4))  # lengths 2 and 3 share one column
    q, phi0 = np.zeros((n, 4)), np.full((n, 4), 0.25)
    q[:, [0, 3]] = 1.0
    for column in (1, 2):  # the kept column and the one merged into it
        bad = q.copy()
        bad[7, column] = 1e-300
        with pytest.raises(DomainError):
            stack.push(0, bad, phi0, 1.0)
    for value in (np.nextafter(0.25, 1.0), 0.0):
        bad = phi0.copy()
        bad[3, 2] = value
        with pytest.raises(DomainError):
            stack.push(0, q, bad, 1.0)
    signed = np.array([[0.5, 0.0, -0.0, 0.5]] * n)
    with pytest.raises(DomainError):
        stack.push(0, q, signed, 1.0)
    assert len(stack) == 0
    stack.push(0, q, phi0, 1.0)
    assert len(stack) == 1
    for support in ((0, 1), (5,)):
        with pytest.raises(DomainError):
            PhiStack(graph, support=support)


def _tight_solve(q, graph, lam, rho, support):
    stack = PhiStack(graph, rho, 1e-10, 1e-10, max_iter=3000, support=support)
    stack.push(0, q, MissingTable.uniform(graph.r).probs, lam)
    width = stack.phi.shape[-1]
    while not (left := stack.step()):
        pass
    return left[0][1], width


def _certificate(phi, q, graph, lam):
    primal, dual = phi_step_bounds(phi, q, graph.edges, lam)
    return (primal - dual) / abs(primal), primal


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
        loose = solve_phi(q, graph, lam)  # the default stop, well short of the optimum
        primal, dual = phi_step_bounds(loose.phi.probs, q, graph.edges, lam)
        assert primal == pytest.approx(loose.objective, rel=1e-12)
        optimum, best = solve_phi_projected_gradient(q, graph.edges, lam)
        assert primal - best > 0
        assert primal - dual >= primal - best  # the certificate is at least the true gap
        at_optimum, _ = _certificate(optimum, q, graph, lam)
        assert abs(at_optimum) <= 1e-9

    @pytest.mark.parametrize("r", [6, 7])
    @pytest.mark.parametrize("merged", [True, False], ids=["merged", "full"])
    def test_tight_solve_is_certified_and_a_feasible_step_raises_it(self, r, merged):
        graph = build_cayley_graph(r)
        rng = np.random.default_rng(80 + r)
        lam, rho = 10.0, 6.0  # rho near sqrt(lam * mean q) converges in a few hundred iterations
        q = rng.random((graph.n_vertices, r - 1)) * 4.0
        q[rng.random(q.shape) < 0.3] = 0.0
        support = (1, r - 1) if merged else None
        if merged:  # binary data: only lengths 1 and r-1 are observed
            q[:, 1 : r - 2] = 0.0
        result, width = _tight_solve(q, graph, lam, rho, support)
        assert result.converged and width == (3 if merged else r - 1)
        gap, primal = _certificate(result.phi.probs, q, graph, lam)
        assert primal == pytest.approx(result.objective, rel=1e-12)
        assert abs(gap) <= 1e-9
        # a step of 1e-3 toward the uniform rows stays feasible and raises the objective
        moved = 0.999 * result.phi.probs + 0.001 / (r - 1)
        assert _certificate(moved, q, graph, lam)[0] > 1e-9 + gap


def test_hard_tolerance_scales_with_the_spacing_of_y():
    # rows with |y| up to 1e9 and rho from 0.01 to 100: near the root
    # adjacent floats of nu change s by about ulp(|y|) / rho, so no float nu
    # need meet the absolute NU_HARD_TOL; none may raise
    rng = np.random.default_rng(27)
    over = 0
    for _ in range(300):
        degree, n = int(rng.integers(2, 7)), 10
        q = rng.random((n, degree)) * 10 ** rng.uniform(-6, 3, size=(n, 1))
        q[rng.random(q.shape) < 0.5] = 0.0
        y = rng.normal(size=(n, degree)) * 10 ** rng.uniform(0, 9, size=(n, 1))
        rho = float(10 ** rng.uniform(-2, 2))
        phi, _ = _vertex_update_batch(_row_mass(q, rho, degree), y, rho, degree)
        residual = np.abs(phi.sum(axis=1) - 1.0)
        assert np.all(residual <= np.maximum(NU_HARD_TOL, admm._HARD_ULPS * np.spacing(np.abs(y).max(axis=1)) / rho))
        over += int(np.count_nonzero(residual > NU_HARD_TOL))
    assert over > 100  # the absolute tolerance alone would have failed these rows
