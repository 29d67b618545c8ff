"""Application adapters: objective dispatch, predictions, metrics."""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralr import adapters as ad
from spectralr import inner
from spectralr.data import ColumnSparseMatrix, hankel_matrix, synth_completion
from spectralr.spectrahedron import manifold_point, normalized_point, random_point
from tests.test_data import sparse_patterns


def rng(seed=0):
    return np.random.default_rng(seed)


def params(c=1.0, eps=0.0):
    return inner.RegularizationParams(c=c, epsilon=eps, inner_tol=1e-12,
                                      inner_max_iters=50000)


def random_orthogonal(r, seed):
    q, _ = np.linalg.qr(rng(seed).standard_normal((r, r)))
    return q


class TestEvaluateG:
    def test_empty_observations_give_zero(self):
        data = ColumnSparseMatrix(6, 4)
        adapter = ad.CompletionAdapter(data, params())
        g, cert = adapter.evaluate_g(random_point(6, 2, rng(1)))
        assert g == 0.0
        assert cert.z.size == 0

    def test_single_entry_scalar_formula(self):
        data = ColumnSparseMatrix.from_triplets([0], [0], [2.0], 3, 2)
        adapter = ad.CompletionAdapter(data, params(c=1.5))
        p = random_point(3, 2, rng(2))
        g, cert = adapter.evaluate_g(p)
        q = p.u[0] @ p.u[0]
        z_expect = 2.0 / (1.0 / 3.0 + q)
        assert cert.z[0] == pytest.approx(z_expect, rel=1e-12)
        assert g == pytest.approx(0.5 * 2.0 * z_expect, rel=1e-12)

    @pytest.mark.parametrize("kind", ["completion", "robust_l1", "robust_eps_svr",
                                      "nonneg_completion"])
    def test_rotation_invariance(self, kind):
        synth = synth_completion(8, 6, rank=2, sample_fraction=0.6, seed=3,
                                 nonneg=(kind == "nonneg_completion"))
        adapter = ad.make_completion_adapter(kind, synth.train, params(c=2.0, eps=0.1))
        p = random_point(8, 3, rng(4))
        g1, _ = adapter.evaluate_g(p)
        adapter.reset_warm_start()
        q = random_orthogonal(3, 5)
        g2, _ = adapter.evaluate_g(manifold_point(p.u @ q))
        assert g2 == pytest.approx(g1, rel=1e-10, abs=1e-10)

    def test_rotation_invariance_hankel_and_mtfl(self):
        from spectralr.data import LTISystemSpec, synth_hankel
        y_true, y_noisy = synth_hankel(LTISystemSpec(2, 4, 5, 0.05), seed=1)
        hank = ad.HankelAdapter(ad.HankelProblem(y_noisy, 4, 5), params(c=2.0))
        p = random_point(4, 2, rng(6))
        g1, _ = hank.evaluate_g(p)
        hank.reset_warm_start()
        g2, _ = hank.evaluate_g(manifold_point(p.u @ random_orthogonal(2, 7)))
        assert g2 == pytest.approx(g1, rel=1e-10)

        g = rng(8)
        tasks = ad.MTFLTaskSet([(g.standard_normal((5, 6)), g.standard_normal(5))
                                for _ in range(3)])
        mt = ad.MTFLAdapter(tasks, params(c=2.0))
        p = random_point(6, 2, rng(9))
        g1, _ = mt.evaluate_g(p)
        g2, _ = mt.evaluate_g(manifold_point(p.u @ random_orthogonal(2, 10)))
        assert g2 == pytest.approx(g1, rel=1e-10)

    def test_gap_and_predictions_rotation_invariant(self):
        synth = synth_completion(8, 6, rank=2, sample_fraction=0.6, seed=3)
        adapter = ad.CompletionAdapter(synth.train, params(c=10.0))
        p = random_point(8, 2, rng(11))
        g1, c1 = adapter.evaluate_g(p)
        gap1 = adapter.duality_gap(p, c1)
        w1 = adapter.reconstruct(p, c1).dense()
        p2 = manifold_point(p.u @ random_orthogonal(2, 12))
        g2, c2 = adapter.evaluate_g(p2)
        gap2 = adapter.duality_gap(p2, c2)
        w2 = adapter.reconstruct(p2, c2).dense()
        assert gap2.gap == pytest.approx(gap1.gap, rel=1e-9, abs=1e-9)
        assert np.allclose(w1, w2, atol=1e-9)

    def test_warm_start_determinism(self):
        synth = synth_completion(8, 6, rank=2, sample_fraction=0.6, seed=3)
        p = random_point(8, 2, rng(13))
        out = []
        for _ in range(2):
            adapter = ad.RobustCompletionAdapter(synth.train, params(c=2.0))
            g1, _ = adapter.evaluate_g(p)
            g2, _ = adapter.evaluate_g(p)
            out.append((g1, g2))
        assert out[0] == out[1]


def square_backward_ok(u_rows, z, y, c) -> bool:
    """Backward error of (I/(2C) + B B^T) z = y within round-off of the
    r x r Woodbury solve, whose conditioning grows as 2C ||B||_2^2."""
    b2 = np.linalg.norm(u_rows, 2) ** 2 if u_rows.size else 0.0
    resid = np.linalg.norm(z / (2.0 * c) + u_rows @ (u_rows.T @ z) - y)
    scale = max(1.0, 2.0 * c * b2) * (np.linalg.norm(y) + b2 * np.linalg.norm(z))
    return resid <= 64 * np.finfo(float).eps * scale


class TestBatchedSquareDual:
    # The batched kernel of CompletionAdapter against the per-column closed
    # form: z from evaluate_g, zdot from the shifted inverse of a random w.
    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(sparse_patterns(), st.integers(1, 4), st.floats(-2.0, 8.0),
           st.integers(0, 2**32 - 1))
    def test_matches_per_column_oracle(self, pattern, r, log_c, seed):
        rows, cols, vals, d, t = pattern
        data = ColumnSparseMatrix.from_triplets(rows, cols, vals, d, t)
        c = 10.0 ** log_c
        g = rng(seed)
        u = g.standard_normal((d, r))
        u /= np.linalg.norm(u)  # unit Frobenius norm as on the manifold, r > d allowed
        _, cert = ad.CompletionAdapter(data, params(c=c)).evaluate_g(u)
        assert np.array_equal(cert.z, cert.m.data)
        assert cert.factors.shape == (t, r, r)
        w = g.standard_normal(data.nnz)
        w_t = sp.csr_matrix((w, data.indices, data.indptr), shape=(t, d))
        zdot = inner.shifted_inverse_columns(u, cert.factors, c, w_t, np.diff(data.indptr))
        for t_idx in range(t):
            lo, hi = data.indptr[t_idx], data.indptr[t_idx + 1]
            idx, y = data.column(t_idx)
            u_rows = u[idx]
            z_ref, factor = inner.solve_column_square(u_rows, y, c)
            zdot_ref = inner.apply_shifted_inverse(u_rows, factor, c, w[lo:hi])
            for got, ref, rhs in ((cert.z[lo:hi], z_ref, y),
                                  (zdot[lo:hi], zdot_ref, w[lo:hi])):
                assert square_backward_ok(u_rows, got, rhs, c), (t_idx, c)
                if c <= 1e4:
                    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)


class TestBatchedMTFLDual:
    # The batched square-loss dual of MTFLAdapter against the per-task closed
    # form.  Rows B_t = X_t U are not bounded by ||U||_F = 1 here, so task t's
    # system has condition number about kappa_t = 2C ||B_t||^2; the forward
    # check runs where kappa_t stays within the completion test's 2e4.
    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(st.integers(1, 6), st.lists(st.integers(1, 7), min_size=1, max_size=5),
           st.integers(1, 4), st.floats(-2.0, 4.0), st.integers(0, 2**32 - 1))
    def test_matches_per_task_oracle(self, d, sizes, r, log_c, seed):
        c = 10.0 ** log_c
        g = rng(seed)
        tasks = [(g.standard_normal((n, d)), g.standard_normal(n)) for n in sizes]
        u = g.standard_normal((d, r))
        u /= np.linalg.norm(u)
        v = g.standard_normal((d, r))
        adapter = ad.MTFLAdapter(ad.MTFLTaskSet(tasks), params(c=c))
        _, cert = adapter.evaluate_g(u)
        assert cert.z.shape == (sum(sizes),)
        assert cert.factors.shape == (len(sizes), r, r)
        # record the right-hand side and solution of the Hessian's batched solve
        solves = []
        kernel = inner.shifted_inverse_columns

        def spy(*args):
            solves.append((args[3].data, kernel(*args)))
            return solves[-1][1]

        with mock.patch.object(inner, "shifted_inverse_columns", spy):
            hv = adapter.euc_hess_vec(u, v, cert)
        (w, sol), = solves
        mdot_ref, kappa, lo = [], 1.0, 0
        for x, y in tasks:
            hi = lo + y.size
            xu, xv, z, w_t = x @ u, x @ v, cert.z[lo:hi], w[lo:hi]
            kappa_t = 2.0 * c * np.linalg.norm(xu, 2) ** 2
            kappa = max(kappa, kappa_t)
            w_ref = xv @ (xu.T @ z) + xu @ (xv.T @ z)
            assert (np.linalg.norm(w_t - w_ref)
                    <= 1e-12 * np.linalg.norm(xv, 2) * np.linalg.norm(xu, 2) * np.linalg.norm(z))
            z_ref, factor = inner.solve_column_square(xu, y, c)
            sol_ref = inner.apply_shifted_inverse(xu, factor, c, w_t)
            for got, ref, rhs in ((z, z_ref, y), (sol[lo:hi], sol_ref, w_t)):
                assert square_backward_ok(xu, got, rhs, c), (lo, c)
                assert square_backward_ok(xu, ref, rhs, c), (lo, c)
                if kappa_t <= 2e4:
                    assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
            mdot_ref.append(-(x.T @ sol_ref))
            lo = hi
        # the Hessian assembled from the per-task solves, to round-off of its
        # terms before they cancel, amplified by the solves' conditioning
        mdot_ref = np.column_stack(mdot_ref)
        hv_ref = inner.assemble_hess_vec(u, v, cert, mdot_ref)
        m2 = np.linalg.norm(cert.m, 2)
        terms = np.linalg.norm(mdot_ref, 2) * m2 + m2 ** 2 * np.linalg.norm(v, 2)
        assert np.linalg.norm(hv - hv_ref) <= 64 * np.finfo(float).eps * kappa * terms


# Reference formulas for the CSC-order kernels: a gather by the column of
# every entry, the full r x r outer products, and a sparse matrix built for
# every product.

def gather_entries(a, b, rows, cols):
    return np.einsum("ij,ij->i", a[rows], b[cols])


def full_gram_stack(u, pattern_t, c):
    n, r = u.shape
    outer = (u[:, :, None] * u[:, None, :]).reshape(n, r * r)
    grams = np.asarray(pattern_t @ outer).reshape(-1, r, r)
    grams[:, np.arange(r), np.arange(r)] += 1.0 / (2.0 * c)
    return grams


def built_shifted_inverse(u, grams, c, pattern_t, cols, w):
    rhs = sp.csr_matrix((w, pattern_t.indices, pattern_t.indptr), shape=pattern_t.shape) @ u
    sol = np.linalg.solve(grams, rhs[..., None])[..., 0]
    return 2.0 * c * (w - gather_entries(u, sol, pattern_t.indices, cols))


def task_indptr(sizes):
    return np.concatenate([[0], np.cumsum(sizes)])


class TestSquareKernelsExact:
    # Bit for bit against the oracles, on patterns with empty leading,
    # middle and trailing columns and columns with fewer entries than r.
    def check(self, rows, indptr, n, r, seed):
        t = indptr.size - 1
        g = rng(seed)
        counts = np.diff(indptr)
        cols = np.repeat(np.arange(t), counts)
        a, b = g.standard_normal((n, r)), g.standard_normal((t, r))
        for rows_as in (rows, rows.astype(np.int32)):
            assert np.array_equal(inner.pattern_entries(a, b, rows_as, counts),
                                  gather_entries(a, b, rows, cols))
        pattern_t = sp.csr_matrix((np.ones(rows.size), rows, indptr), shape=(t, n))
        c = 10.0 ** g.uniform(-2.0, 8.0)
        grams = inner.square_gram_stack(a, pattern_t, c)
        assert np.array_equal(grams, full_gram_stack(a, pattern_t, c))
        assert np.array_equal(grams, grams.transpose(0, 2, 1))
        w = g.standard_normal(rows.size)
        w_t = sp.csr_matrix((w, rows, indptr), shape=(t, n))
        assert np.array_equal(inner.shifted_inverse_columns(a, grams, c, w_t, counts),
                              built_shifted_inverse(a, grams, c, pattern_t, cols, w))

    @settings(deadline=None, max_examples=100, derandomize=True)
    @given(sparse_patterns(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_completion_patterns(self, pattern, r, seed):
        rows, cols, vals, d, t = pattern
        data = ColumnSparseMatrix.from_triplets(rows, cols, vals, d, t)
        self.check(data.indices, data.indptr, d, r, seed)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_task_pattern(self, r):
        indptr = task_indptr([3, 1, 7, 2, 5])
        self.check(np.arange(indptr[-1]), indptr, indptr[-1], r, seed=r)


def square_loss_case(kind):
    """(adapter, d, features of a d x r matrix, rows, indptr, Mdot built anew
    from zdot) for a completion pattern with empty leading, middle and
    trailing columns, or for 5 tasks of 24 features."""
    g = rng(40)
    if kind == "completion":
        d, t = 15, 12
        keep = g.random((d, t)) < 0.4
        keep[:, [0, 5, t - 1]] = False
        rows, cols = np.nonzero(keep)
        data = ColumnSparseMatrix.from_triplets(rows, cols, g.standard_normal(rows.size), d, t)
        return (ad.CompletionAdapter(data, params(c=50.0)), d, lambda u: u,
                data.indices, data.indptr,
                lambda z: sp.csc_matrix((z, data.indices, data.indptr), shape=(d, t)))
    d, sizes = 24, [9, 3, 12, 1, 6]
    tasks = [(g.standard_normal((n, d)), g.standard_normal(n)) for n in sizes]
    x_all, indptr = np.vstack([x for x, _ in tasks]), task_indptr(sizes)
    rows = np.arange(indptr[-1])
    shape = (len(sizes), rows.size)
    return (ad.MTFLAdapter(ad.MTFLTaskSet(tasks), params(c=5.0)), d, lambda u: x_all @ u,
            rows, indptr, lambda z: (sp.csr_matrix((z, rows, indptr), shape=shape) @ x_all).T)


class TestSquareDualPath:
    # evaluate_g and the Hessian-vector product of both square-loss adapters
    # against the path that builds every sparse matrix anew, bit for bit.
    @pytest.mark.parametrize("kind", ["completion", "mtfl"])
    @pytest.mark.parametrize("r", [1, 3])
    def test_matches_built_path(self, kind, r):
        adapter, d, features, rows, indptr, build_m = square_loss_case(kind)
        c, t = adapter.params.c, indptr.size - 1
        cols = np.repeat(np.arange(t), np.diff(indptr))
        g = rng(41 + r)
        u = normalized_point(g.standard_normal((d, r))).u
        v = g.standard_normal((d, r))
        value, cert = adapter.evaluate_g(u)
        feats, y = features(u), adapter._y
        pattern_t = sp.csr_matrix((np.ones(y.size), rows, indptr), shape=(t, feats.shape[0]))
        grams = full_gram_stack(feats, pattern_t, c)
        z = built_shifted_inverse(feats, grams, c, pattern_t, cols, y)
        m = build_m(z)
        k = u.T @ m
        assert np.array_equal(cert.factors, grams) and np.array_equal(cert.z, z)
        assert np.array_equal(cert.k, k)
        dense = (lambda x: x.toarray()) if sp.issparse(m) else np.asarray
        assert np.array_equal(dense(cert.m), dense(m))
        assert value == float(y @ z - z @ z / (4.0 * c) - 0.5 * np.sum(k * k))
        solves = []
        kernel = inner.shifted_inverse_columns

        def spy(*args):
            solves.append((args[3].data, kernel(*args)))
            return solves[-1][1]

        with mock.patch.object(inner, "shifted_inverse_columns", spy):
            hv = adapter.euc_hess_vec(u, v, cert)
        (w, sol), = solves
        w_ref = (gather_entries(features(v), cert.k.T, rows, cols)
                 + gather_entries(feats, cert.m.T @ v, rows, cols))
        assert np.array_equal(w, w_ref)
        assert np.array_equal(hv, inner.assemble_hess_vec(u, v, cert, build_m(-sol)))

    @pytest.mark.parametrize("kind", ["completion", "mtfl"])
    def test_reused_structure_aliases_nothing(self, kind):
        adapter, d = square_loss_case(kind)[:2]
        g = rng(43)
        u1, u2 = (normalized_point(g.standard_normal((d, 3))).u for _ in range(2))
        v = g.standard_normal((d, 3))
        _, cert1 = adapter.evaluate_g(u1)
        m1 = cert1.m.data if sp.issparse(cert1.m) else cert1.m
        saved = [x.copy() for x in (m1, cert1.z, cert1.factors, cert1.k)]
        hv1 = adapter.euc_hess_vec(u1, v, cert1)
        _, cert2 = adapter.evaluate_g(u2)
        for _ in range(3):
            adapter.euc_hess_vec(u2, g.standard_normal((d, 3)), cert2)
        for before, after in zip(saved, (m1, cert1.z, cert1.factors, cert1.k)):
            assert np.array_equal(before, after)
        assert np.array_equal(adapter.euc_hess_vec(u1, v, cert1), hv1)


def box_active_set_margin(adapter, point, cert):
    """Smallest distance of any column from a change of its box active set:
    multiplier slack of fixed coordinates, distance to the nearest bound of
    free ones."""
    c, eps = adapter.params.c, adapter._eps
    worst = np.inf
    for t_idx in range(adapter.t):
        idx, y = adapter.data.column(t_idx)
        if idx.size == 0:
            continue
        lo, hi = adapter.data.indptr[t_idx], adapter.data.indptr[t_idx + 1]
        u_rows, z = point.u[idx], cert.z[lo:hi]
        grad = y - u_rows @ (u_rows.T @ z)
        free_room = c - np.abs(z) if eps == 0.0 else np.minimum(c - np.abs(z), np.abs(z))
        margin = np.where(z == c, grad - eps,
                          np.where(z == -c, -grad - eps,
                                   np.where(z == 0, eps - np.abs(grad), free_room)))
        worst = min(worst, float(np.min(margin)))
    return worst


class TestBoxHessian:
    @pytest.mark.parametrize("kind, eps", [("robust_l1", 0.0), ("robust_eps_svr", 0.2)])
    @pytest.mark.parametrize("point_seed", [21, 22])
    def test_hessian_matches_finite_differences(self, kind, eps, point_seed):
        from tests.test_acceptance import fd_hessian_errors
        synth = synth_completion(8, 6, rank=2, sample_fraction=0.6, seed=3)
        adapter = ad.make_completion_adapter(
            kind, synth.train, inner.RegularizationParams(
                c=5.0, epsilon=eps, inner_tol=1e-13, inner_max_iters=5000))
        point = random_point(8, 2, rng(point_seed))
        _, cert = adapter.evaluate_g(point)
        # The box dual is piecewise quadratic in U: finite differences agree
        # with the Hessian only where steps of 1e-5 keep every active set.
        assert box_active_set_margin(adapter, point, cert) > 1e-3
        worst_fd, worst_sym = fd_hessian_errors(adapter, point, n_dirs=6, seed=23)
        assert worst_fd <= 1e-5 and worst_sym <= 1e-6


class TestNonnegHessian:
    # A nonnegative frame, so that the rows of U do not span R^r as a cone:
    # under a signed frame s >= 0 can cancel B^T z in every column, which
    # leaves g flat (gradient at round-off) and nothing to difference.  Here
    # s is positive in some columns and zero with a positive multiplier in
    # others.
    @pytest.mark.parametrize("point_seed", [21, 22])
    def test_hessian_matches_finite_differences(self, point_seed):
        from tests.test_acceptance import fd_hessian_errors
        synth = synth_completion(8, 6, rank=2, sample_fraction=0.6, noise_sigma=0.3, seed=4)
        adapter = ad.make_completion_adapter(
            "nonneg_completion", synth.train,
            inner.RegularizationParams(c=3.0, inner_tol=1e-13, inner_max_iters=5000))
        point = normalized_point(np.abs(rng(point_seed).standard_normal((8, 2))))
        _, cert = adapter.evaluate_g(point)
        assert cert.converged and cert.s.nnz > 0
        assert np.linalg.norm(adapter.euc_gradient(point, cert)) > 1.0
        worst_fd, worst_sym = fd_hessian_errors(adapter, point, n_dirs=6, seed=23)
        assert worst_fd <= 1e-5 and worst_sym <= 1e-6


class TestHankelHessian:
    # The FFT Hessian-vector product against central differences of the
    # gradient, and its symmetry, with criterion 4's tolerances.
    @pytest.mark.parametrize("d, t, r", [(4, 5, 3), (12, 15, 3), (30, 40, 4)])
    def test_hessian_matches_finite_differences(self, d, t, r):
        from spectralr.data import LTISystemSpec, synth_hankel
        from tests.test_acceptance import fd_hessian_errors
        _, y_noisy = synth_hankel(LTISystemSpec(3, d, t, 0.05), seed=5)
        adapter = ad.HankelAdapter(
            ad.HankelProblem(y_noisy, d, t),
            inner.RegularizationParams(c=5.0, inner_tol=1e-13, inner_max_iters=5000))
        point = random_point(d, r, rng(24))
        worst_fd, worst_sym = fd_hessian_errors(adapter, point, n_dirs=6, seed=23)
        assert worst_fd <= 1e-5 and worst_sym <= 1e-6


class TestMTFLTypes:
    def test_dimension_mismatch_rejected(self):
        g = rng(14)
        with pytest.raises(ValueError):
            ad.MTFLTaskSet([(g.standard_normal((4, 5)), g.standard_normal(4)),
                            (g.standard_normal((3, 6)), g.standard_normal(3))])

    def test_empty_task_rejected(self):
        g = rng(15)
        with pytest.raises(ValueError):
            ad.MTFLTaskSet([(g.standard_normal((0, 5)), g.standard_normal(0))])


class TestNonFiniteRejected:
    @settings(deadline=None, max_examples=25, derandomize=True)
    @given(st.integers(1, 4), st.integers(0, 10_000),
           st.sampled_from([np.nan, np.inf, -np.inf]), st.booleans())
    def test_mtfl_task_named(self, n_tasks, seed, bad, in_x):
        g = rng(seed)
        tasks = [(g.standard_normal((3, 4)), g.standard_normal(3)) for _ in range(n_tasks)]
        k = int(g.integers(n_tasks))
        (tasks[k][0] if in_x else tasks[k][1]).flat[int(g.integers(3))] = bad
        with pytest.raises(ValueError, match=f"task {k}: non-finite"):
            ad.MTFLTaskSet(tasks)

    @settings(deadline=None, max_examples=25, derandomize=True)
    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000),
           st.sampled_from([np.nan, np.inf, -np.inf]))
    def test_hankel_index_named(self, d, t, seed, bad):
        g = rng(seed)
        y = g.standard_normal(d + t - 1)
        k = int(g.integers(y.size))
        y[k] = bad
        with pytest.raises(ValueError, match=f"index {k}$"):
            ad.HankelProblem(y, d, t)


class TestHankelProblemType:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            ad.HankelProblem(np.zeros(5), 3, 5)

    def test_transpose_convention(self):
        prob = ad.HankelProblem(np.zeros(8), 5, 4)
        assert prob.d == 4 and prob.t == 5


class TestPredictions:
    def _solved_factor(self):
        g = rng(16)
        m = g.standard_normal((6, 5))
        u = g.standard_normal((6, 2))
        u /= np.linalg.norm(u)
        cert = inner.DualCertificate(kind="completion", g_value=0.0, m=m, k=u.T @ m, z=None)
        return inner.reconstruct_primal(u, cert), u, m

    def test_predict_zero_m(self):
        g = rng(17)
        u = g.standard_normal((4, 2))
        u /= np.linalg.norm(u)
        cert = inner.DualCertificate(kind="completion", g_value=0.0, m=np.zeros((4, 3)),
                                     k=np.zeros((2, 3)), z=None)
        factor = inner.reconstruct_primal(u, cert)
        assert np.allclose(ad.predict_completion(factor, [0, 1], [0, 2]), 0.0)

    def test_predictions_in_column_space(self):
        factor, u, _ = self._solved_factor()
        w = factor.dense()
        proj = u @ np.linalg.lstsq(u, w, rcond=None)[0]
        assert np.allclose(w, proj, atol=1e-10)

    def test_predict_mtfl_zero_cases(self):
        factor, u, m = self._solved_factor()
        assert ad.predict_mtfl(factor, 0, np.zeros(6)) == 0.0
        zero = inner.reconstruct_primal(u, inner.DualCertificate(
            kind="mtfl", g_value=0.0, m=np.zeros((6, 5)), k=np.zeros((2, 5)), z=None))
        assert ad.predict_mtfl(zero, 2, rng(18).standard_normal(6)) == 0.0

    def test_predict_mtfl_matches_dense(self):
        factor, u, m = self._solved_factor()
        x = rng(19).standard_normal(6)
        w = factor.dense()
        assert ad.predict_mtfl(factor, 3, x) == pytest.approx(x @ w[:, 3], rel=1e-12)


class TestHankelRecover:
    def test_exact_hankel_is_identity(self):
        y = rng(20).standard_normal(8)
        h = hankel_matrix(y, 4, 5)
        assert np.allclose(ad.hankel_recover_signal(h), y)

    def test_zero(self):
        assert np.allclose(ad.hankel_recover_signal(np.zeros((3, 4))), 0.0)

    def test_hand_means_3x3(self):
        w = np.arange(9.0).reshape(3, 3)
        got = ad.hankel_recover_signal(w)
        assert np.allclose(got, [0.0, 2.0, 4.0, 6.0, 8.0])


class TestMetrics:
    def test_perfect_prediction(self):
        y = rng(21).standard_normal(10)
        assert ad.metrics(y, y, "rmse") == 0.0
        assert ad.metrics(y, y, "nmse") == 0.0

    def test_constant_predictor_hand_formula(self):
        y = np.array([1.0, 2.0, 4.0])
        pred = np.full(3, 2.0)
        expect = np.sqrt((1.0 + 0.0 + 4.0) / 3.0)
        assert ad.metrics(y, pred, "rmse") == pytest.approx(expect, rel=1e-12)

    def test_mean_predictor_nmse_is_one(self):
        y = rng(22).standard_normal(50)
        pred = np.full(50, y.mean())
        assert ad.metrics(y, pred, "nmse") == pytest.approx(1.0, rel=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ad.metrics([1.0], [1.0], "mae")


class TestPrimalObjective:
    def test_square_loss_counts_observed_only(self):
        data = ColumnSparseMatrix.from_triplets([0, 1], [0, 1], [1.0, 2.0], 3, 2)
        adapter = ad.CompletionAdapter(data, params(c=2.0))
        w = np.zeros((3, 2))
        # loss = 1 + 4, regularizer = 0
        assert adapter.primal_objective(w) == pytest.approx(2.0 * 5.0)

    def test_l1_and_svr_losses(self):
        data = ColumnSparseMatrix.from_triplets([0], [0], [2.0], 2, 2)
        w = np.zeros((2, 2))
        l1 = ad.RobustCompletionAdapter(data, params(c=1.0), loss="l1")
        svr = ad.RobustCompletionAdapter(data, params(c=1.0, eps=0.5), loss="eps_svr")
        assert l1.primal_objective(w) == pytest.approx(2.0)
        assert svr.primal_objective(w) == pytest.approx(1.5)

    def test_regularizer_is_half_squared_nuclear(self):
        data = ColumnSparseMatrix(2, 2)
        adapter = ad.CompletionAdapter(data, params(c=1.0))
        w = np.diag([3.0, 4.0])
        assert adapter.primal_objective(w) == pytest.approx(0.5 * 49.0)


class TestMonotoneRankBenefit:
    def test_larger_rank_never_hurts(self):
        from spectralr.solvers import SolverConfig, initialize_point, solve_tr
        synth = synth_completion(12, 10, rank=2, sample_fraction=0.7, seed=5)
        cfg = SolverConfig(max_outer_iters=80, grad_norm_tol=1e-12)
        best = {}
        for r in (2, 3):
            adapter = ad.CompletionAdapter(synth.train, params(c=100.0))
            res = solve_tr(adapter, initialize_point(adapter, 12, r, seed=0), cfg)
            best[r] = res.g_value
        assert best[3] <= best[2] + 1e-8
