"""Problem adapters: one object per application exposing g, its gradient,
and Hessian-vector products to the solvers, plus prediction and metrics.

Adapter kinds: completion, robust_l1, robust_eps_svr, nonneg_completion,
hankel, mtfl.  All of them are deterministic given (point, data, params,
warm start).  Completion-family data and duals share one CSC layout: M is a
scipy.sparse CSC matrix on the observation pattern (plus the nonzeros of S
in the nonnegative case); Hankel and multi-task M are dense arrays.  The
loss dual z is one flat vector for every kind (see DualCertificate).
Square-loss completion and multi-task learning share one batched
square-loss dual: one (T, r, r) Gram stack per point and one batched r x r
solve, in evaluate_g and in every Hessian-vector product.  They differ only
in the row features (U, or X_all U over the stacked samples) and in how z
becomes M.  The robust and nonnegative adapters solve one column at a time:
the robust box dual by a warm-started active set, the nonnegative dual
exactly as an r-row nonnegative least-squares problem (no warm start).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import inner
from .data import (
    ColumnSparseMatrix,
    antidiag_counts,
    antidiag_means,
    hankel_matrix,
)
from .inner import (
    DualCertificate,
    GapReport,
    PrimalFactor,
    RegularizationParams,
)


def _mat(point) -> np.ndarray:
    return point.u if hasattr(point, "u") else np.asarray(point, dtype=float)


@dataclass
class MTFLTaskSet:
    """Per-task regression data: feature matrices X_t (n_t x d), targets y_t."""

    tasks: list

    def __post_init__(self):
        if not self.tasks:
            raise ValueError("need at least one task")
        d = np.shape(self.tasks[0][0])[1:]
        norm = []
        for x_t, y_t in self.tasks:
            x_t = np.asarray(x_t, dtype=float)
            y_t = np.asarray(y_t, dtype=float)
            if x_t.ndim != 2 or y_t.ndim != 1:
                raise ValueError(f"task {len(norm)}: X must be 2-D and y 1-D")
            if x_t.shape[1:] != d:
                raise ValueError("all tasks must share the feature dimension")
            if x_t.shape[0] != y_t.size or y_t.size < 1:
                raise ValueError("each task needs matching, nonempty X and y")
            if not (np.all(np.isfinite(x_t)) and np.all(np.isfinite(y_t))):
                raise ValueError(f"task {len(norm)}: non-finite X or y")
            norm.append((x_t, y_t))
        self.tasks = norm

    @property
    def d(self) -> int:
        return self.tasks[0][0].shape[1]

    @property
    def t(self) -> int:
        return len(self.tasks)


@dataclass
class HankelProblem:
    """Noisy generating vector of a d x t Hankel matrix (d <= t by convention)."""

    y_noisy: np.ndarray
    d: int
    t: int

    def __post_init__(self):
        self.y_noisy = np.asarray(self.y_noisy, dtype=float)
        if self.d > self.t:
            self.d, self.t = self.t, self.d
        if self.y_noisy.shape != (self.d + self.t - 1,):
            raise ValueError(f"need a 1-D y of length d + t - 1 = {self.d + self.t - 1}, "
                             f"got shape {self.y_noisy.shape}")
        bad = np.flatnonzero(~np.isfinite(self.y_noisy))
        if bad.size:
            raise ValueError(f"y_noisy: non-finite value at index {bad[0]}")


class ProblemAdapter:
    """Shared bookkeeping: warm starts, gap and reconstruction plumbing."""

    kind: str = ""

    def __init__(self, params: RegularizationParams):
        self.params = params
        self.last_certificate: DualCertificate | None = None

    def evaluate_g(self, point):
        raise NotImplementedError

    def euc_gradient(self, point, cert: DualCertificate) -> np.ndarray:
        return inner.euc_gradient(_mat(point), cert)

    def euc_hess_vec(self, point, v: np.ndarray, cert: DualCertificate) -> np.ndarray:
        raise NotImplementedError

    def duality_gap(self, point, cert: DualCertificate) -> GapReport:
        return inner.duality_gap(_mat(point), cert)

    def reconstruct(self, point, cert: DualCertificate) -> PrimalFactor:
        return inner.reconstruct_primal(_mat(point), cert)

    def primal_objective(self, w: np.ndarray) -> float:
        return inner.primal_objective(w, self.kind, self._primal_data(), self.params)

    def _primal_data(self):
        raise NotImplementedError

    def initialization_matrix(self):
        raise NotImplementedError

    def reset_warm_start(self):
        self.last_certificate = None


def _csc_columns(d: int, rows: list, vals: list) -> sp.csc_matrix:
    """d x len(rows) CSC matrix whose column t holds vals[t] at rows[t]."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([ix.size for ix in rows], out=indptr[1:])
    return sp.csc_matrix((np.concatenate(vals), np.concatenate(rows), indptr),
                         shape=(d, len(rows)))


class _SquareLossDual:
    """Square-loss dual of every column at once, on a T x n 0/1 pattern.

    Column t has targets y_t and rows B_t of the n x r features of U; z_t
    solves (I/(2C) + B_t B_t^T) z_t = y_t.  Subclasses call _set_pattern
    and define _features(u), _m_of(z) and _m_transpose(cert), M^T as the
    left operand of a product.

    Built once per adapter: the T x n CSR structure of the transposed
    pattern, whose row t lists column t's entries in CSC order, and the
    number of entries per column.  Each product swaps only the CSR's values
    (_pattern_t_with), so no sparse matrix is constructed for it.  That CSR
    is scratch: it is read by one product at a time and no certificate
    holds it.  The kernels gather by CSC column order (see
    inner.pattern_entries).
    """

    def _set_pattern(self, indptr, indices, n: int, y: np.ndarray):
        """Transposed pattern, entries per column and targets in CSC order."""
        t = indptr.size - 1
        self._ones = np.ones(y.size)
        self._pattern_t = sp.csr_matrix((self._ones, indices, indptr), shape=(t, n))
        self._counts = np.diff(indptr)
        self._y = y

    def _pattern_t_with(self, values: np.ndarray) -> sp.csr_matrix:
        """The scratch T x n CSR matrix holding values (CSC order) on the
        pattern; valid until the next call."""
        self._pattern_t.data = values
        return self._pattern_t

    def evaluate_g(self, point):
        u = _mat(point)
        c = self.params.c
        feats = self._features(u)
        grams = inner.square_gram_stack(feats, self._pattern_t_with(self._ones), c)
        z = inner.shifted_inverse_columns(feats, grams, c, self._pattern_t_with(self._y),
                                          self._counts)
        m = self._m_of(z)
        k = u.T @ m
        g = float(self._y @ z - z @ z / (4.0 * c) - 0.5 * np.sum(k * k))
        cert = DualCertificate(kind=self.kind, g_value=g, m=m, k=k, z=z, factors=grams)
        self.last_certificate = cert
        return g, cert

    def euc_hess_vec(self, point, v, cert):
        u = _mat(point)
        feats = self._features(u)
        rows, counts = self._pattern_t.indices, self._counts
        # w_t = B'_t (B_t^T z_t) + B_t (B'_t^T z_t) with B'_t the rows of the
        # features of V, B_t^T z_t = K[:, t] and B'_t^T z_t = (M^T V)[t]
        mt_v = self._m_transpose(cert) @ v
        w = (inner.pattern_entries(self._features(v), cert.k.T, rows, counts)
             + inner.pattern_entries(feats, mt_v, rows, counts))
        zdot = -inner.shifted_inverse_columns(feats, cert.factors, self.params.c,
                                              self._pattern_t_with(w), counts)
        # scipy forms a sparse V^T M as (M^T V)^T, so the assembly reuses
        # mt_v; a dense V^T M is another BLAS product with its own round-off
        return inner.assemble_hess_vec(u, v, cert, self._m_of(zdot),
                                       mt_v if sp.issparse(cert.m) else None)


def _dense_column(mat: sp.csc_matrix, t_idx: int) -> np.ndarray:
    out = np.zeros(mat.shape[0])
    lo, hi = mat.indptr[t_idx], mat.indptr[t_idx + 1]
    out[mat.indices[lo:hi]] = mat.data[lo:hi]
    return out


class _CompletionBase(ProblemAdapter):
    def __init__(self, data: ColumnSparseMatrix, params):
        super().__init__(params)
        self.data = data
        self.d, self.t = data.d, data.t
        # index arrays in scipy's dtype, which _m_of shares; never written
        csc = sp.csc_matrix((data.values, data.indices, data.indptr), shape=(self.d, self.t))
        self._indices, self._indptr = csc.indices, csc.indptr

    def _primal_data(self):
        return self.data

    def initialization_matrix(self):
        return self.data.to_scipy()

    def _m_of(self, z: np.ndarray) -> sp.csc_matrix:
        """CSC matrix with the observation pattern and one value per entry."""
        return sp.csc_matrix((z, self._indices, self._indptr), shape=(self.d, self.t))

    def _column_slice(self, t_idx: int) -> slice:
        return slice(self.data.indptr[t_idx], self.data.indptr[t_idx + 1])


class CompletionAdapter(_SquareLossDual, _CompletionBase):
    """Square-loss matrix completion; the features are U itself and M is z
    on the observation pattern."""

    kind = "completion"

    def __init__(self, data: ColumnSparseMatrix, params):
        super().__init__(data, params)
        self._set_pattern(self._indptr, self._indices, self.d, data.values)

    def _features(self, u):
        return u

    def _m_transpose(self, cert):
        return self._pattern_t_with(cert.z)


class RobustCompletionAdapter(_CompletionBase):
    """Completion with a box-constrained dual from the absolute or
    epsilon-insensitive loss; solved exactly by an active-set method."""

    def __init__(self, data, params, loss: str = "l1"):
        super().__init__(data, params)
        if loss not in ("l1", "eps_svr"):
            raise ValueError("loss must be 'l1' or 'eps_svr'")
        self.loss = loss
        self.kind = "robust_l1" if loss == "l1" else "robust_eps_svr"

    @property
    def _eps(self) -> float:
        return self.params.epsilon if self.loss == "eps_svr" else 0.0

    def evaluate_g(self, point):
        u = _mat(point)
        c, eps = self.params.c, self._eps
        warm = self.last_certificate
        z_cols, converged = [], True
        for t_idx in range(self.t):
            idx, y = self.data.column(t_idx)
            z, ok = inner.solve_column_box_cd(
                u[idx], y, c, eps, self.params.inner_tol, self.params.inner_max_iters,
                None if warm is None else warm.z[self._column_slice(t_idx)])
            z_cols.append(z)
            converged = converged and ok
        z = np.concatenate(z_cols)
        m = self._m_of(z)
        k = u.T @ m
        g = float(self.data.values @ z - eps * np.sum(np.abs(z)) - 0.5 * np.sum(k * k))
        cert = DualCertificate(kind=self.kind, g_value=g, m=m, k=k,
                               z=z, converged=converged)
        self.last_certificate = cert
        return g, cert

    def euc_hess_vec(self, point, v, cert):
        u = _mat(point)
        c, eps = self.params.c, self._eps
        zdots = []
        for t_idx in range(self.t):
            idx, _ = self.data.column(t_idx)
            zdots.append(inner.zdot_column_box(u[idx], v[idx],
                                               cert.z[self._column_slice(t_idx)], c, eps))
        mdot = self._m_of(np.concatenate(zdots))
        return inner.assemble_hess_vec(u, v, cert, mdot)


class NonnegCompletionAdapter(_CompletionBase):
    """Square-loss completion with entrywise nonnegativity duals s_t >= 0.

    M = Z + S, where Z lives on the observation pattern and S is stored as a
    CSC matrix of its nonzero entries.
    """

    kind = "nonneg_completion"

    def evaluate_g(self, point):
        u = _mat(point)
        c = self.params.c
        z_cols, s_rows, s_vals, converged = [], [], [], True
        for t_idx in range(self.t):
            idx, y = self.data.column(t_idx)
            z, s, _, ok = inner.solve_column_nonneg(
                u, idx, y, c, self.params.inner_tol, self.params.inner_max_iters)
            s[np.abs(s) < inner.SPARSE_PRUNE] = 0.0
            snz = np.flatnonzero(s)
            z_cols.append(z)
            s_rows.append(snz)
            s_vals.append(s[snz])
            converged = converged and ok
        z = np.concatenate(z_cols)
        s_mat = _csc_columns(self.d, s_rows, s_vals)
        m = self._m_of(z) + s_mat
        k = u.T @ m
        g = float(self.data.values @ z - z @ z / (4.0 * c) - 0.5 * np.sum(k * k))
        cert = DualCertificate(kind=self.kind, g_value=g, m=m, k=k, z=z,
                               s=s_mat, converged=converged)
        self.last_certificate = cert
        return g, cert

    def euc_hess_vec(self, point, v, cert):
        u = _mat(point)
        c = self.params.c
        zdots, sdot_rows, sdot_vals = [], [], []
        for t_idx in range(self.t):
            omega, _ = self.data.column(t_idx)
            zdot, sdot = inner.dot_column_nonneg(
                u, v, omega, cert.z[self._column_slice(t_idx)],
                _dense_column(cert.s, t_idx), c)
            nz = np.flatnonzero(sdot)
            zdots.append(zdot)
            sdot_rows.append(nz)
            sdot_vals.append(sdot[nz])
        mdot = (self._m_of(np.concatenate(zdots))
                + _csc_columns(self.d, sdot_rows, sdot_vals))
        return inner.assemble_hess_vec(u, v, cert, mdot)


class HankelAdapter(ProblemAdapter):
    """Low-rank Hankel matrix learning from a noisy generating vector."""

    kind = "hankel"

    def __init__(self, problem: HankelProblem, params):
        super().__init__(params)
        self.problem = problem
        self.d, self.t = problem.d, problem.t

    def _primal_data(self):
        return self.problem.y_noisy

    def initialization_matrix(self):
        return hankel_matrix(self.problem.y_noisy, self.d, self.t)

    def evaluate_g(self, point):
        u = _mat(point)
        c = self.params.c
        warm = None if self.last_certificate is None else self.last_certificate.z
        z, ok = inner.solve_hankel(
            u, self.problem.y_noisy, c, self.params.inner_tol,
            self.params.inner_max_iters, self.t, warm)
        x = z / antidiag_counts(self.d, self.t)
        s_mat = hankel_matrix(x, self.d, self.t)
        k = u.T @ s_mat
        g = float(z @ self.problem.y_noisy - z @ z / (4.0 * c) - 0.5 * np.sum(k ** 2))
        nfft = inner.hankel_fft_len(z.size)
        spectra = (np.fft.rfft(u, nfft, axis=0), np.fft.rfft(x, nfft),
                   np.fft.rfft(k.T, nfft, axis=0))
        cert = DualCertificate(kind=self.kind, g_value=g, m=s_mat, k=k,
                               z=z, factors=spectra, converged=ok)
        self.last_certificate = cert
        return g, cert

    def euc_hess_vec(self, point, v, cert):
        # M = H(x) and Mdot = H(xdot) are Hankel, so every product with them
        # is a correlation or convolution with x or xdot (hankel_gram_apply).
        u = _mat(point)
        d, t = self.d, self.t
        counts = antidiag_counts(d, t)
        n = counts.size
        nfft = inner.hankel_fft_len(n)
        u_hat, x_hat, k_hat = cert.factors
        v_hat = np.fft.rfft(v, nfft, axis=0)
        kv = inner.hankel_corr(v_hat, x_hat, nfft, t)  # (V^T M)^T
        # -H*(V K + U V^T M), H* the anti-diagonal sums over counts
        kv_hat = np.fft.rfft(kv, nfft, axis=0)
        rhs = -(inner.hankel_conv_sum(v_hat, k_hat, nfft, n)
                + inner.hankel_conv_sum(u_hat, kv_hat, nfft, n)) / counts
        zdot = inner.hankel_directional(
            u, self.params.c, rhs, self.params.inner_tol,
            self.params.inner_max_iters, t,
            float(np.linalg.norm(self.problem.y_noisy)), u_hat)
        xdot_hat = np.fft.rfft(zdot / counts, nfft)
        kdot = inner.hankel_corr(u_hat, xdot_hat, nfft, t)  # (U^T Mdot)^T
        # D grad[V] = -(Mdot K^T + M (U^T Mdot + V^T M)^T), as assemble_hess_vec
        return -(inner.hankel_corr(k_hat, xdot_hat, nfft, d)
                 + inner.hankel_corr(np.fft.rfft(kdot + kv, nfft, axis=0), x_hat, nfft, d))


class MTFLAdapter(_SquareLossDual, ProblemAdapter):
    """Multi-task feature learning: the square-loss dual with B_t = X_t U.

    The features are X_all U over the N stacked samples, the pattern is the
    T x N 0/1 task membership, and column t of M is X_t^T z_t.
    """

    kind = "mtfl"

    def __init__(self, taskset: MTFLTaskSet, params):
        super().__init__(params)
        self.taskset = taskset
        self.d, self.t = taskset.d, taskset.t
        self._x_all = np.vstack([x_t for x_t, _ in taskset.tasks])
        y = np.concatenate([y_t for _, y_t in taskset.tasks])
        indptr = np.concatenate([[0], np.cumsum([y_t.size for _, y_t in taskset.tasks])])
        self._set_pattern(indptr, np.arange(y.size), y.size, y)

    def _primal_data(self):
        return self.taskset.tasks

    def initialization_matrix(self):
        return np.column_stack([x_t.T @ y_t for x_t, y_t in self.taskset.tasks])

    def _features(self, u):
        return self._x_all @ u

    def _m_of(self, z):
        # (Z^T X_all)^T with Z^T the T x N matrix of z on the task pattern
        return (self._pattern_t_with(z) @ self._x_all).T

    def _m_transpose(self, cert):
        return cert.m.T


# --------------------------------------------------------------------------
# predictions and metrics
# --------------------------------------------------------------------------

def predict_completion(factor: PrimalFactor, rows, cols) -> np.ndarray:
    """Entries of W = U K at the query indices, O(r) each."""
    return factor.entries(rows, cols)


def predict_mtfl(factor: PrimalFactor, t_idx: int, x: np.ndarray) -> float:
    """<x, w_t> with w_t the t-th column of the reconstructed parameter matrix."""
    return float((np.asarray(x) @ factor.u) @ factor.k[:, t_idx])


def hankel_recover_signal(w: np.ndarray) -> np.ndarray:
    """Read the generating vector off a (nearly) Hankel matrix by
    anti-diagonal averaging."""
    return antidiag_means(np.asarray(w, dtype=float))


def metrics(y_true, y_pred, kind: str = "rmse") -> float:
    """Test metrics: root mean squared error, or MSE normalized by the
    target variance (nmse)."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise ValueError("shape mismatch between targets and predictions")
    mse = float(np.mean((y_true - y_pred) ** 2))
    if kind == "rmse":
        return float(np.sqrt(mse))
    if kind == "nmse":
        return mse / float(np.var(y_true))
    raise ValueError(f"unknown metric kind {kind!r}")


def make_completion_adapter(kind: str, data: ColumnSparseMatrix,
                            params: RegularizationParams):
    if kind == "completion":
        return CompletionAdapter(data, params)
    if kind == "robust_l1":
        return RobustCompletionAdapter(data, params, loss="l1")
    if kind == "robust_eps_svr":
        return RobustCompletionAdapter(data, params, loss="eps_svr")
    if kind == "nonneg_completion":
        return NonnegCompletionAdapter(data, params)
    raise ValueError(f"unknown completion kind {kind!r}")


def rank_sweep(make_adapter, ranks, d: int, cfg, solver="tr", seed: int = 0):
    """Independent solves per rank (no warm start across ranks).

    make_adapter() must return a fresh adapter; returns a list of
    (rank, SolveResult) pairs.
    """
    from .solvers import initialize_point, solve_cg, solve_tr

    out = []
    solve = solve_tr if solver == "tr" else solve_cg
    for r in ranks:
        adapter = make_adapter()
        u0 = initialize_point(adapter, d, r, seed)
        out.append((r, solve(adapter, u0, cfg)))
    return out
