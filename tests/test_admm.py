import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import project_simplex, solve_phi_projected_gradient, vertex_update_bisection
from partialrank import DomainError, NumericError, build_cayley_graph
from partialrank import admm
from partialrank.admm import (
    NU_HARD_TOL,
    _vertex_update_batch,
    augmented_lagrangian,
    dual_sweep,
    edge_penalty,
    edge_sweep,
    edge_update,
    init_state,
    mixing_weight,
    phi_objective,
    solve_phi,
    solve_phi_batch,
    vertex_sweep,
    vertex_update,
)
from partialrank.errors import DimensionError


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
            _vertex_update_batch(np.array([[np.nan, 1.0]]), np.zeros((1, 2)), 1.0, 2)


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
            phi, nu = _vertex_update_batch(q, y, rho, degree, nu0)
            assert np.abs(phi - expected).max() <= 1e-10
            assert np.abs(phi.sum(axis=1) - 1.0).max() <= NU_HARD_TOL
            # the returned multipliers reproduce the rows as a warm start
            again, _ = _vertex_update_batch(q, y, rho, degree, nu)
            assert np.abs(again - expected).max() <= 1e-10


@pytest.mark.parametrize("degree", [2, 3, 4, 5, 6])
def test_cold_start_on_exact_zero_z(degree):
    # zero mass and a constant y with rho * degree = 1 put the first
    # midpoint at nu = -y: every slope is 0/0 and the search must bisect
    rho = 1.0 / degree
    assert rho * degree == 1.0
    y = np.full((1, degree), 3.0)
    phi, _ = _vertex_update_batch(np.zeros((1, degree)), y, rho, degree)
    assert np.abs(phi - 1.0 / degree).max() <= 1e-10


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

    def test_nonconvergence_returns_flagged_best(self):
        graph = build_cayley_graph(3)
        rng = np.random.default_rng(4)
        q = rng.random((6, 2)) * 4
        result = solve_phi(q, graph, 10.0, 1.0, eps_primal=1e-12, eps_dual=1e-12, max_iter=3)
        assert not result.converged
        assert result.iterations == 3
        assert np.abs(result.phi.probs.sum(axis=1) - 1.0).max() <= 1e-10

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

    def test_trace_emission(self, tmp_path):
        graph = build_cayley_graph(3)
        q = np.random.default_rng(5).random((6, 2))
        path = tmp_path / "trace.csv"
        result = solve_phi(q, graph, 1.0, 1.0, eps_primal=1e-6, eps_dual=1e-6, max_iter=200, trace_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,objective,res_p,res_d"
        assert len(lines) == 1 + result.iterations


class TestSweepInvariants:
    def test_rows_on_simplex_after_every_vertex_sweep(self):
        graph = build_cayley_graph(3)
        rng = np.random.default_rng(6)
        q = rng.random((1, 6, 2)) * 3
        state = init_state(graph, np.full((1, 6, 2), 0.5))
        for _ in range(30):
            vertex_sweep(state, q, graph, rho=1.0)
            assert np.abs(state.phi.sum(axis=-1) - 1.0).max() <= 1e-10
            edge_sweep(state, graph, lam=[1.0], rho=1.0)
            dual_sweep(state, graph)

    def test_state_slot_shapes(self):
        graph = build_cayley_graph(3)
        state = init_state(graph, np.full((3, 6, 2), 0.5))
        assert state.copies.shape == state.duals.shape == (3, graph.n_vertices, 2, 2)
        assert state.prev_copies.shape == state.work.shape == (3, graph.n_vertices, 2, 2)
        assert state.nu.shape == (3, graph.n_vertices)

    @pytest.mark.parametrize("r", [3, 4, 5])
    def test_sweeps_match_per_edge_updates(self, r):
        # the buffered sweeps against edge_update on the edge list and the
        # dual ascent written out per slot
        graph = build_cayley_graph(r)
        rng = np.random.default_rng(60 + r)
        lam, rho = 3.0, 1.5
        state = init_state(graph, rng.dirichlet(np.ones(r - 1), size=(1, graph.n_vertices)))
        state.duals[...] = rng.normal(scale=0.1, size=state.duals.shape)
        slot = {(int(v), int(u)): j for v in range(graph.n_vertices) for j, u in enumerate(graph.neighbors[v])}
        for _ in range(3):
            before = state.copies.copy()
            a = state.phi[0][:, None, :] + state.duals[0]
            expected = np.empty_like(a)
            for u, v in graph.edges:
                ju, jv = slot[(int(u), int(v))], slot[(int(v), int(u))]
                expected[u, ju], expected[v, jv] = edge_update(a[u, ju], a[v, jv], lam, rho)
            edge_sweep(state, graph, [lam], rho)
            assert np.abs(state.copies[0] - expected).max() <= 1e-15
            assert np.array_equal(state.prev_copies, before)
            duals = state.duals + (state.phi[..., None, :] - state.copies)
            dual_sweep(state, graph)
            assert np.array_equal(state.duals, duals)
            vertex_sweep(state, rng.random((1, graph.n_vertices, r - 1)), graph, rho)

    def test_vertex_and_edge_steps_never_raise_the_lagrangian(self):
        graph = build_cayley_graph(3)
        rng = np.random.default_rng(7)
        q = rng.random((6, 2)) * 3
        lam, rho = 2.0, 1.0
        state = init_state(graph, rng.dirichlet(np.ones(2), size=(1, 6)))
        for _ in range(25):
            before = augmented_lagrangian(state, q, graph, lam, rho)
            vertex_sweep(state, q[None], graph, rho)
            after_vertex = augmented_lagrangian(state, q, graph, lam, rho)
            assert after_vertex <= before + 1e-8
            edge_sweep(state, graph, [lam], rho)
            after_edge = augmented_lagrangian(state, q, graph, lam, rho)
            assert after_edge <= after_vertex + 1e-8
            dual_sweep(state, graph)

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


@pytest.mark.parametrize("r", [3, 4, 5, 6, 7])
def test_batch_matches_per_member_solves(r):
    # members differ in lam and q, converge at different iterations, and at
    # least one stops at max_iter; each must get bitwise its own solve
    graph = build_cayley_graph(r)
    rng = np.random.default_rng(80 + r)
    lams = np.array([0.5, 3.0, 10.0, 100.0] if r == 7 else [0.5, 1.0, 3.0, 10.0, 100.0, 1000.0])
    q = rng.random((lams.size, graph.n_vertices, r - 1)) * 20
    q[rng.random(q.shape) < 0.2] = 0.0
    phi0 = rng.dirichlet(np.ones(r - 1), size=(lams.size, graph.n_vertices))
    max_iter = {3: 5, 4: 12, 5: 30, 6: 30, 7: 12}[r]
    batch = solve_phi_batch(q, graph, lams, 1.0, phi0, max_iter=max_iter)
    alone = [solve_phi(q[b], graph, float(lams[b]), 1.0, phi0=phi0[b], max_iter=max_iter) for b in range(lams.size)]
    assert len({res.iterations for res in alone}) > 1
    assert any(res.converged for res in alone) and not all(res.converged for res in alone)
    assert all(_same_result(a, b) for a, b in zip(batch, alone))


def test_members_per_call_stacks_only_where_it_pays():
    # 4 MiB of slot buffers: stacked at r = 5 and 6, one member at a time at r = 7
    assert [admm.members_per_call(build_cayley_graph(r)) for r in (4, 5, 6, 7)] == [606, 68, 7, 1]


def test_unconverged_result_is_the_best_traced_iterate(tmp_path):
    graph = build_cayley_graph(4)
    q = np.random.default_rng(91).random((24, 3)) * 5
    path = tmp_path / "trace.csv"
    kwargs = dict(eps_primal=1e-12, eps_dual=1e-12, max_iter=6)
    traced = solve_phi(q, graph, 50.0, 1.0, trace_path=path, **kwargs)
    plain = solve_phi(q, graph, 50.0, 1.0, **kwargs)
    assert not plain.converged
    assert _same_result(traced, plain)
    objectives = [float(line.split(",")[1]) for line in path.read_text().splitlines()[1:]]
    assert plain.objective == min(objectives)


def test_batch_input_validation():
    graph = build_cayley_graph(3)
    q = np.ones((2, 6, 2))
    phi0 = np.full((2, 6, 2), 0.5)
    with pytest.raises(DimensionError):
        solve_phi_batch(q, graph, [1.0], 1.0, phi0)
    with pytest.raises(DimensionError):
        solve_phi_batch(q, graph, [1.0, 1.0], 1.0, phi0[:1])
    with pytest.raises(DomainError):
        solve_phi_batch(q, graph, [1.0, -1.0], 1.0, phi0)
    with pytest.raises(DimensionError):
        solve_phi_batch(q, graph, [1.0, 1.0], 1.0, phi0, trace=[])


def test_mixing_weight_is_elementwise():
    lams = np.array([0.0, 0.5, 10.0, 1e6])
    assert np.array_equal(mixing_weight(lams, 0.3), [mixing_weight(float(lam), 0.3) for lam in lams])
    with pytest.raises(DomainError):
        mixing_weight(np.array([1.0, -1.0]), 1.0)
