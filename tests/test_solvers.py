"""Conjugate-gradient and trust-region solver behavior."""

import numpy as np
import pytest

from spectralr import adapters, data, inner, solvers
from spectralr.data import synth_completion
from spectralr.solvers import (
    CONVERGED,
    MAX_ITERS,
    NUMERICAL_ERROR,
    STALLED,
    SolverConfig,
    initialize_point,
    solve_cg,
    solve_tr,
)
from spectralr.spectrahedron import (
    TangentVector,
    manifold_point,
    normalized_point,
    random_point,
)


class QuadraticProblem:
    """g(U) = trace(U^T A U); minimum over the sphere is the smallest
    eigenvalue of the symmetric part, aligned with its eigenvector."""

    def __init__(self, a):
        self.a = np.asarray(a, dtype=float)

    def evaluate_g(self, point):
        u = point.u
        return float(np.tensordot(u, self.a @ u, axes=2)), None

    def euc_gradient(self, point, cert):
        return 2.0 * self.a @ point.u

    def euc_hess_vec(self, point, v, cert):
        return 2.0 * self.a @ v

    def initialization_matrix(self):
        return np.zeros((self.a.shape[0], 1))


def diag_problem(d=20):
    return QuadraticProblem(np.diag(np.arange(1.0, d + 1)))


class NaNOnCall(QuadraticProblem):
    """The quadratic problem, except that its k-th evaluate_g returns NaN."""

    def __init__(self, a, k):
        super().__init__(a)
        self.k = k
        self.calls = 0

    def evaluate_g(self, point):
        self.calls += 1
        g, cert = super().evaluate_g(point)
        return (float("nan") if self.calls == self.k else g), cert


class NaNHessian(QuadraticProblem):
    """The quadratic problem with a NaN Hessian-vector product; counts the
    evaluate_g calls."""

    def __init__(self, a):
        super().__init__(a)
        self.calls = 0

    def evaluate_g(self, point):
        self.calls += 1
        return super().evaluate_g(point)

    def euc_hess_vec(self, point, v, cert):
        return np.full_like(v, np.nan)


class CountingCompletion(adapters.CompletionAdapter):
    """The completion adapter, counting its euc_gradient calls."""

    grad_calls = 0

    def euc_gradient(self, point, cert):
        self.grad_calls += 1
        return super().euc_gradient(point, cert)


def small_completion(counting=False):
    synth = synth_completion(15, 12, rank=2, sample_fraction=0.5, seed=4)
    params = inner.RegularizationParams(c=1.0, inner_tol=1e-12, inner_max_iters=2000)
    cls = CountingCompletion if counting else adapters.CompletionAdapter
    adapter = cls(synth.train, params)
    return adapter, initialize_point(adapter, 15, 2, seed=3)


def gap_iterations(res):
    return [r.iteration for r in res.records if r.duality_gap is not None]


class TestTruncatedCG:
    """Steihaug-Toint CG on an SPD model in R^60 with eigenvalues 1..10 and
    gradient norm 1e-6, so the residual target is gn^2 = 1e-12."""

    n = 60

    def setup_method(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((self.n, self.n)))
        self.a = (q * np.linspace(1.0, 10.0, self.n)) @ q.T
        skew = rng.standard_normal((self.n, self.n))
        self.skew = skew - skew.T
        g = rng.standard_normal((self.n, 1))
        self.grad = TangentVector(1e-6 * g / np.linalg.norm(g), 0)

    def exact(self, tv):
        return TangentVector(self.a @ tv.xi, 0)

    def noisy(self, tv):
        # a deterministic error of norm 1e-10, orthogonal to the argument so
        # that every curvature stays that of the exact model
        e = self.skew @ tv.xi
        return TangentVector(self.a @ tv.xi + 1e-10 * e / np.linalg.norm(e), 0)

    def run(self, hess, max_iters=5000):
        return solvers._truncated_cg(self.grad, hess, 1e6, 0.1, 1.0, max_iters)

    def test_exact_model_stops_on_residual(self):
        xi, stop, steps = self.run(self.exact)
        assert stop == solvers.TCG_RESIDUAL
        assert steps <= self.n
        assert np.linalg.norm(self.a @ xi.xi + self.grad.xi) <= 1e-12

    def test_noise_floor_stops_as_stalled(self):
        xi, stop, steps = self.run(self.noisy)
        assert stop == solvers.TCG_STALLED
        assert solvers.TCG_STALL_WINDOW <= steps <= 5 * self.n
        # the iterate solves the model to the Hessian's noise level
        assert np.linalg.norm(self.a @ xi.xi + self.grad.xi) <= 1e-9

    def test_cap_boundary_and_negative_curvature(self):
        assert self.run(self.noisy, max_iters=10)[1:] == (solvers.TCG_CAP, 10)
        assert self.run(self.exact, max_iters=0)[1:] == (solvers.TCG_CAP, 1)
        xi, stop, _ = solvers._truncated_cg(self.grad, self.exact, 1e-8, 0.1, 1.0, 100)
        assert stop == solvers.TCG_BOUNDARY
        assert xi.norm == pytest.approx(1e-8, rel=1e-12)
        xi, stop, _ = solvers._truncated_cg(self.grad, lambda tv: -1.0 * tv, 1e-3,
                                            0.1, 1.0, 100)
        assert stop == solvers.TCG_NEGATIVE_CURVATURE
        assert xi.norm == pytest.approx(1e-3, rel=1e-12)


class TestSolveCG:
    def test_quadratic_reaches_smallest_eigvec(self):
        prob = diag_problem()
        u0 = random_point(20, 1, np.random.default_rng(5))
        gn0 = np.linalg.norm(2.0 * prob.a @ u0.u
                             - 2.0 * np.tensordot(u0.u, prob.a @ u0.u, axes=2) * u0.u)
        cfg = SolverConfig(max_outer_iters=5000, grad_norm_tol=0.99e-8 / gn0)
        res = solve_cg(prob, u0, cfg)
        assert res.status == CONVERGED
        assert res.grad_norm <= 1e-8
        assert res.g_value == pytest.approx(1.0, abs=1e-10)
        assert abs(res.point.u[0, 0]) == pytest.approx(1.0, abs=1e-6)

    def test_zero_iterations_at_critical_point(self):
        prob = diag_problem()
        e1 = np.zeros((20, 1))
        e1[0, 0] = 1.0
        res = solve_cg(prob, manifold_point(e1), SolverConfig())
        assert res.status == CONVERGED
        assert len(res.records) == 1
        assert res.records[0].iteration == 0

    def test_g_non_increasing(self):
        prob = diag_problem()
        u0 = random_point(20, 1, np.random.default_rng(6))
        res = solve_cg(prob, u0, SolverConfig(max_outer_iters=200, grad_norm_tol=1e-8))
        values = [r.g_value for r in res.records]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_max_iters_status(self):
        prob = diag_problem()
        u0 = random_point(20, 1, np.random.default_rng(7))
        res = solve_cg(prob, u0, SolverConfig(max_outer_iters=2, grad_norm_tol=1e-14))
        assert res.status == "max_iters"
        assert res.records[-1].iteration == 2

    def test_iterates_stay_on_manifold(self):
        prob = diag_problem()
        u0 = random_point(20, 2, np.random.default_rng(8))
        res = solve_cg(prob, u0, SolverConfig(max_outer_iters=50, grad_norm_tol=1e-8))
        assert np.linalg.norm(res.point.u) == pytest.approx(1.0, abs=1e-14)


class TestSolveTR:
    def test_quadratic_superlinear_tail(self):
        prob = diag_problem()
        u0 = random_point(20, 1, np.random.default_rng(5))
        cfg = SolverConfig(max_outer_iters=30, grad_norm_tol=1e-12)
        res = solve_tr(prob, u0, cfg)
        assert res.status == CONVERGED
        assert len(res.records) - 1 <= 30
        assert res.grad_norm <= 1e-10
        assert abs(res.point.u[0, 0]) == pytest.approx(1.0, abs=1e-8)

    def test_cauchy_point_mode_monotone(self):
        prob = diag_problem()
        u0 = random_point(20, 1, np.random.default_rng(9))
        cfg = SolverConfig(max_outer_iters=100, grad_norm_tol=1e-6, tcg_max_iters=0)
        res = solve_tr(prob, u0, cfg)
        values = [r.g_value for r in res.records]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] < values[0]

    def test_cross_solver_agreement_on_completion(self):
        synth = synth_completion(20, 25, rank=2, sample_fraction=0.6, seed=2)
        rows, cols, vals = synth.test.to_coo()
        rmse = {}
        for solver in (solve_cg, solve_tr):
            params = inner.RegularizationParams(c=1e4, inner_tol=1e-13,
                                                inner_max_iters=2000)
            adapter = adapters.CompletionAdapter(synth.train, params)
            u0 = initialize_point(adapter, 20, 2, seed=0)
            cfg = SolverConfig(max_outer_iters=3000, grad_norm_tol=1e-11)
            res = solver(adapter, u0, cfg)
            factor = adapter.reconstruct(res.point, res.certificate)
            rmse[solver.__name__] = adapters.metrics(
                vals, factor.entries(rows, cols), "rmse")
        assert rmse["solve_cg"] == pytest.approx(rmse["solve_tr"], abs=1e-8)

    def test_armijo_like_decrease_recorded(self):
        prob = diag_problem()
        u0 = random_point(20, 1, np.random.default_rng(10))
        res = solve_tr(prob, u0, SolverConfig(max_outer_iters=40, grad_norm_tol=1e-10))
        accepted = [r for r in res.records[1:] if r.step_size > 0]
        assert accepted, "trust region never accepted a step"

    def test_determinism_bitwise(self):
        synth = synth_completion(15, 12, rank=2, sample_fraction=0.5, seed=4)
        logs = []
        for _ in range(2):
            params = inner.RegularizationParams(c=100.0, inner_tol=1e-12,
                                                inner_max_iters=2000)
            adapter = adapters.CompletionAdapter(synth.train, params)
            u0 = initialize_point(adapter, 15, 2, seed=3)
            res = solve_tr(adapter, u0, SolverConfig(max_outer_iters=40,
                                                     grad_norm_tol=1e-10,
                                                     cert_every=5))
            logs.append([(r.iteration, r.g_value, r.grad_norm, r.step_size,
                          r.duality_gap) for r in res.records])
        assert logs[0] == logs[1]


class TestTruncatedCGOnHankel:
    def test_no_pass_runs_to_the_cap(self):
        # order-5 LTI signal, 60 x 60, rank 6: without the stall rule one
        # tCG pass near the solution runs all d*r = 360 steps
        _, y = data.synth_hankel(data.LTISystemSpec(5, 60, 60, 0.05), seed=11)
        params = inner.RegularizationParams(c=100.0, inner_tol=1e-12,
                                            inner_max_iters=200000)
        adapter = adapters.HankelAdapter(adapters.HankelProblem(y, 60, 60), params)
        u0 = initialize_point(adapter, 60, 6, seed=11)
        res = solve_tr(adapter, u0, SolverConfig(max_outer_iters=80, grad_norm_tol=1e-12))
        assert res.status == CONVERGED
        stops = [r.tcg_stop for r in res.records[1:]]
        assert solvers.TCG_CAP not in stops
        assert solvers.TCG_STALLED in stops


class TestNumericalError:
    @pytest.mark.parametrize("solver", [solve_cg, solve_tr])
    def test_nan_g_stops_at_last_finite_point(self, solver):
        prob = NaNOnCall(np.diag(np.arange(1.0, 21.0)), k=4)
        u0 = random_point(20, 1, np.random.default_rng(5))
        res = solver(prob, u0, SolverConfig(max_outer_iters=50, grad_norm_tol=1e-12))
        assert res.status == NUMERICAL_ERROR
        assert prob.calls == 4
        assert all(np.isfinite(r.g_value) for r in res.records)
        assert res.records[-1].step_size == 0.0
        assert res.g_value == QuadraticProblem(prob.a).evaluate_g(res.point)[0]

    @pytest.mark.parametrize("solver", [solve_cg, solve_tr])
    def test_nan_at_start(self, solver):
        prob = NaNOnCall(np.diag(np.arange(1.0, 21.0)), k=1)
        u0 = random_point(20, 1, np.random.default_rng(5))
        res = solver(prob, u0, SolverConfig())
        assert res.status == NUMERICAL_ERROR
        assert len(res.records) == 1

    @pytest.mark.parametrize("tcg_max_iters", [None, 0])
    def test_nan_hessian_vector_product(self, tcg_max_iters):
        prob = NaNHessian(np.diag(np.arange(1.0, 21.0)))
        u0 = random_point(20, 1, np.random.default_rng(5))
        res = solve_tr(prob, u0, SolverConfig(tcg_max_iters=tcg_max_iters))
        assert res.status == NUMERICAL_ERROR
        assert [r.iteration for r in res.records] == [0, 1]
        last = res.records[-1]
        assert (last.tcg_steps, last.tcg_stop) == (1, solvers.TCG_NON_FINITE)
        assert last.step_size == 0.0
        # no candidate was formed: g was evaluated at the start only
        assert prob.calls == 1
        assert np.array_equal(res.point.u, u0.u)

    def test_tcg_fields_only_under_tr(self):
        prob = diag_problem()
        u0 = random_point(20, 1, np.random.default_rng(5))
        cfg = SolverConfig(max_outer_iters=10, grad_norm_tol=1e-12)
        tr = solve_tr(prob, u0, cfg).records
        cg = solve_cg(prob, u0, cfg).records
        assert (tr[0].tcg_steps, tr[0].tcg_stop) == (None, None)
        assert all(r.tcg_steps >= 1 and r.tcg_stop in solvers.TCG_STOP_REASONS
                   for r in tr[1:])
        assert all((r.tcg_steps, r.tcg_stop) == (None, None) for r in cg)


@pytest.mark.parametrize("solver", [solve_cg, solve_tr])
class TestRecordContract:
    """Records, gap cadence and gradient evaluations of the shared outer loop."""

    def test_gap_cadence_until_converged(self, solver):
        adapter, u0 = small_completion()
        res = solver(adapter, u0, SolverConfig(max_outer_iters=300, grad_norm_tol=1e-6,
                                               cert_every=3))
        assert res.status == CONVERGED
        last = res.records[-1].iteration
        assert last % 3 != 0
        assert gap_iterations(res) == list(range(0, last, 3)) + [last]

    def test_gap_cadence_until_max_iters(self, solver):
        adapter, u0 = small_completion()
        res = solver(adapter, u0, SolverConfig(max_outer_iters=7, grad_norm_tol=1e-14,
                                               cert_every=3))
        assert res.status == MAX_ITERS
        assert gap_iterations(res) == [0, 3, 6, 7]

    def test_no_gap_without_cadence_or_certificate(self, solver):
        adapter, u0 = small_completion()
        res = solver(adapter, u0, SolverConfig(max_outer_iters=7, grad_norm_tol=1e-14))
        assert len(res.records) == 8
        assert gap_iterations(res) == []
        # the quadratic fake has no duality_gap and no certificate
        u0 = random_point(20, 1, np.random.default_rng(5))
        res = solver(diag_problem(), u0, SolverConfig(max_outer_iters=7, grad_norm_tol=1e-14,
                                                      cert_every=3))
        assert len(res.records) == 8
        assert gap_iterations(res) == []

    def test_one_gradient_per_accepted_point(self, solver):
        adapter, u0 = small_completion(counting=True)
        res = solver(adapter, u0, SolverConfig(max_outer_iters=300, grad_norm_tol=1e-6))
        accepted = sum(1 for r in res.records[1:] if r.step_size > 0)
        assert accepted >= 4
        assert adapter.grad_calls == 1 + accepted


class TestInitializePoint:
    def test_rank_one_fully_observed(self):
        g = np.random.default_rng(11)
        u_vec = g.standard_normal(6)
        v_vec = g.standard_normal(5)
        from spectralr.data import ColumnSparseMatrix
        y = 3.0 * np.outer(u_vec, v_vec)
        rows, cols = np.meshgrid(np.arange(6), np.arange(5), indexing="ij")
        data = ColumnSparseMatrix.from_triplets(
            rows.ravel(), cols.ravel(), y.ravel(), 6, 5)
        adapter = adapters.CompletionAdapter(data, inner.RegularizationParams(c=1.0))
        p = initialize_point(adapter, 6, 1, seed=0)
        direction = u_vec / np.linalg.norm(u_vec)
        assert abs(abs(p.u[:, 0] @ direction) - 1.0) < 1e-10
        assert np.linalg.norm(p.u) == pytest.approx(1.0, abs=1e-14)

    def test_zero_data_falls_back_to_seeded_gaussian(self):
        from spectralr.data import ColumnSparseMatrix
        data = ColumnSparseMatrix(6, 4)
        adapter = adapters.CompletionAdapter(data, inner.RegularizationParams(c=1.0))
        a = initialize_point(adapter, 6, 2, seed=9)
        b = initialize_point(adapter, 6, 2, seed=9)
        c = initialize_point(adapter, 6, 2, seed=10)
        assert np.array_equal(a.u, b.u)
        assert not np.array_equal(a.u, c.u)
        assert np.linalg.norm(a.u) == pytest.approx(1.0, abs=1e-14)

    def test_partial_matrix_matches_dense_svd(self):
        synth = synth_completion(10, 10, rank=3, sample_fraction=0.6, seed=6)
        adapter = adapters.CompletionAdapter(synth.train,
                                             inner.RegularizationParams(c=1.0))
        p = initialize_point(adapter, 10, 3, seed=0)
        dense = synth.train.to_dense()
        u_ref, _, _ = np.linalg.svd(dense, full_matrices=False)
        span_ref = u_ref[:, :3]
        # compare subspaces: projection residual should vanish
        proj = span_ref @ (span_ref.T @ p.u)
        assert np.linalg.norm(proj - p.u) < 1e-10


class TestConfigValidation:
    def test_armijo_c1_bound(self):
        with pytest.raises(ValueError):
            SolverConfig(armijo_c1=0.7)

    def test_radius_ordering(self):
        with pytest.raises(ValueError):
            SolverConfig(tr_initial_radius=5.0, tr_max_radius=1.0)

    def test_backtrack_in_unit_interval(self):
        with pytest.raises(ValueError):
            SolverConfig(armijo_backtrack=1.5)
