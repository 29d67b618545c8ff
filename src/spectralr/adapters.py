"""Problem adapters: one object per application exposing g, its gradient,
and Hessian-vector products to the solvers, plus prediction and metrics.

Adapter kinds: completion, robust_l1, robust_eps_svr, nonneg_completion,
hankel, mtfl.  All of them are deterministic given (point, data, params,
warm start); per-column work may fan out over a thread pool but results are
reduced in fixed column order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import inner
from .data import (
    ColumnSparseMatrix,
    antidiag_means,
    antidiag_sums,
    hankel_matrix,
)
from .inner import (
    ColumnSparseOperator,
    DenseOperator,
    DualCertificate,
    GapReport,
    PrimalFactor,
    RegularizationParams,
)

COMPLETION_KINDS = ("completion", "robust_l1", "robust_eps_svr", "nonneg_completion")
ALL_KINDS = COMPLETION_KINDS + ("hankel", "mtfl")


def _mat(point) -> np.ndarray:
    return point.u if hasattr(point, "u") else np.asarray(point, dtype=float)


@dataclass
class MTFLTaskSet:
    """Per-task regression data: feature matrices X_t (n_t x d), targets y_t."""

    tasks: list

    def __post_init__(self):
        if not self.tasks:
            raise ValueError("need at least one task")
        d = self.tasks[0][0].shape[1]
        norm = []
        for x_t, y_t in self.tasks:
            x_t = np.asarray(x_t, dtype=float)
            y_t = np.asarray(y_t, dtype=float)
            if x_t.ndim != 2 or x_t.shape[1] != d:
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
        if self.y_noisy.size != self.d + self.t - 1:
            raise ValueError(
                f"need len(y) = d + t - 1 = {self.d + self.t - 1}, got {self.y_noisy.size}")
        bad = np.flatnonzero(~np.isfinite(self.y_noisy))
        if bad.size:
            raise ValueError(f"y_noisy: non-finite value at index {bad[0]}")


class ProblemAdapter:
    """Shared bookkeeping: warm starts, gap and reconstruction plumbing."""

    kind: str = ""

    def __init__(self, params: RegularizationParams, threads: int = 1):
        self.params = params
        self.threads = threads
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


class _CompletionBase(ProblemAdapter):
    def __init__(self, data: ColumnSparseMatrix, params, threads: int = 1):
        super().__init__(params, threads)
        self.data = data
        self.d, self.t = data.d, data.t

    def _primal_data(self):
        return self.data

    def initialization_matrix(self):
        return self.data.to_scipy()

    def _warm_z(self, t_idx):
        cert = self.last_certificate
        if cert is None or not isinstance(cert.z, list):
            return None
        return cert.z[t_idx]


class CompletionAdapter(_CompletionBase):
    """Square-loss matrix completion; the inner dual is solved in closed form."""

    kind = "completion"

    def evaluate_g(self, point):
        u = _mat(point)
        c = self.params.c

        def one(t_idx):
            idx, y = self.data.col_indices[t_idx], self.data.col_values[t_idx]
            z, factor = inner.solve_column_square(u[idx], y, c)
            val = y @ z - z @ z / (4.0 * c) - 0.5 * np.sum((u[idx].T @ z) ** 2) \
                if idx.size else 0.0
            return z, factor, val

        parts = inner.map_columns(one, self.t, self.threads)
        z_cols = [p[0] for p in parts]
        g = float(sum(p[2] for p in parts))
        cert = DualCertificate(
            kind=self.kind, g_value=g,
            m_op=ColumnSparseOperator(self.d, self.t, self.data.col_indices, z_cols),
            z=z_cols, factors=[p[1] for p in parts])
        self.last_certificate = cert
        return g, cert

    def euc_hess_vec(self, point, v, cert):
        u = _mat(point)
        c = self.params.c

        def one(t_idx):
            idx = self.data.col_indices[t_idx]
            if idx.size == 0:
                return np.empty(0)
            u_rows, v_rows, z = u[idx], v[idx], cert.z[t_idx]
            w = v_rows @ (u_rows.T @ z) + u_rows @ (v_rows.T @ z)
            return -inner.apply_shifted_inverse(u_rows, cert.factors[t_idx], c, w)

        zdots = inner.map_columns(one, self.t, self.threads)
        mdot = ColumnSparseOperator(self.d, self.t, self.data.col_indices, zdots)
        return inner.assemble_hess_vec(u, v, cert, mdot)


class RobustCompletionAdapter(_CompletionBase):
    """Completion with a box-constrained dual from the absolute or
    epsilon-insensitive loss; solved exactly by an active-set method."""

    def __init__(self, data, params, threads: int = 1, loss: str = "l1"):
        super().__init__(data, params, threads)
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

        def one(t_idx):
            idx, y = self.data.col_indices[t_idx], self.data.col_values[t_idx]
            z, ok = inner.solve_column_box_cd(
                u[idx], y, c, eps, self.params.inner_tol,
                self.params.inner_max_iters, self._warm_z(t_idx))
            return z, inner.box_cd_objective(u[idx], y, c, eps, z), ok

        parts = inner.map_columns(one, self.t, self.threads)
        z_cols = [p[0] for p in parts]
        g = float(sum(p[1] for p in parts))
        cert = DualCertificate(
            kind=self.kind, g_value=g,
            m_op=ColumnSparseOperator(self.d, self.t, self.data.col_indices, z_cols),
            z=z_cols, converged=all(p[2] for p in parts))
        self.last_certificate = cert
        return g, cert

    def euc_hess_vec(self, point, v, cert):
        u = _mat(point)
        c, eps = self.params.c, self._eps

        def one(t_idx):
            idx = self.data.col_indices[t_idx]
            return inner.zdot_column_box(u[idx], v[idx], cert.z[t_idx], c, eps)

        zdots = inner.map_columns(one, self.t, self.threads)
        mdot = ColumnSparseOperator(self.d, self.t, self.data.col_indices, zdots)
        return inner.assemble_hess_vec(u, v, cert, mdot)


class NonnegCompletionAdapter(_CompletionBase):
    """Square-loss completion with entrywise nonnegativity duals s_t >= 0."""

    kind = "nonneg_completion"

    def _warm_s(self, t_idx):
        cert = self.last_certificate
        if cert is None or cert.s is None:
            return None
        idx, val = cert.s[t_idx]
        s = np.zeros(self.d)
        s[idx] = val
        return s

    def _combined_column(self, t_idx, omega, z, s):
        col = np.zeros(self.d)
        if omega.size:
            col[omega] += z
        col += s
        nz = np.flatnonzero(np.abs(col) > 0.0)
        return nz, col[nz]

    def evaluate_g(self, point):
        u = _mat(point)
        c = self.params.c

        def one(t_idx):
            idx, y = self.data.col_indices[t_idx], self.data.col_values[t_idx]
            z, s, factor, ok = inner.solve_column_nonneg(
                u, idx, y, c, self.params.inner_tol, self.params.inner_max_iters,
                self._warm_s(t_idx))
            m_r = (u[idx].T @ z if idx.size else 0.0) + u.T @ s
            val = (y @ z - z @ z / (4.0 * c) if idx.size else 0.0) - 0.5 * np.sum(m_r ** 2)
            s[np.abs(s) < inner.SPARSE_PRUNE] = 0.0
            return z, s, factor, float(val), ok

        parts = inner.map_columns(one, self.t, self.threads)
        g = float(sum(p[3] for p in parts))
        m_idx, m_val, s_store = [], [], []
        for t_idx, (z, s, _, _, _) in enumerate(parts):
            nz, vals = self._combined_column(t_idx, self.data.col_indices[t_idx], z, s)
            m_idx.append(nz)
            m_val.append(vals)
            snz = np.flatnonzero(s)
            s_store.append((snz, s[snz]))
        cert = DualCertificate(
            kind=self.kind, g_value=g,
            m_op=ColumnSparseOperator(self.d, self.t, m_idx, m_val),
            z=[p[0] for p in parts], s=s_store,
            factors=[p[2] for p in parts], converged=all(p[4] for p in parts))
        self.last_certificate = cert
        return g, cert

    def euc_hess_vec(self, point, v, cert):
        u = _mat(point)
        c = self.params.c

        def one(t_idx):
            omega = self.data.col_indices[t_idx]
            sidx, sval = cert.s[t_idx]
            s = np.zeros(self.d)
            s[sidx] = sval
            zdot, sdot = inner.dot_column_nonneg(u, v, omega, cert.z[t_idx], s, c)
            return self._combined_column(t_idx, omega, zdot, sdot)

        parts = inner.map_columns(one, self.t, self.threads)
        mdot = ColumnSparseOperator(self.d, self.t,
                                    [p[0] for p in parts], [p[1] for p in parts])
        return inner.assemble_hess_vec(u, v, cert, mdot)


class HankelAdapter(ProblemAdapter):
    """Low-rank Hankel matrix learning from a noisy generating vector."""

    kind = "hankel"

    def __init__(self, problem: HankelProblem, params, threads: int = 1):
        super().__init__(params, threads)
        self.problem = problem
        self.d, self.t = problem.d, problem.t

    def _primal_data(self):
        return self.problem.y_noisy

    def initialization_matrix(self):
        return hankel_matrix(self.problem.y_noisy, self.d, self.t)

    def _counts(self):
        from .data import antidiag_counts
        return antidiag_counts(self.d, self.t)

    def evaluate_g(self, point):
        u = _mat(point)
        c = self.params.c
        warm = None if self.last_certificate is None else self.last_certificate.z
        z, ok = inner.solve_hankel(
            u, self.problem.y_noisy, c, self.params.inner_tol,
            self.params.inner_max_iters, self.t, warm)
        s_mat = inner.hankel_spread_dual(z, self._counts(), self.d, self.t)
        g = float(z @ self.problem.y_noisy - z @ z / (4.0 * c)
                  - 0.5 * np.sum((u.T @ s_mat) ** 2))
        cert = DualCertificate(kind=self.kind, g_value=g,
                               m_op=DenseOperator(s_mat), z=z, s=s_mat, converged=ok)
        self.last_certificate = cert
        return g, cert

    def euc_hess_vec(self, point, v, cert):
        u = _mat(point)
        s_mat = cert.m_op.m
        counts = self._counts()
        rhs = -antidiag_sums(v @ (u.T @ s_mat) + u @ (v.T @ s_mat)) / counts
        zdot = inner.hankel_directional(
            u, self.params.c, rhs, self.params.inner_tol,
            self.params.inner_max_iters, self.t,
            float(np.linalg.norm(self.problem.y_noisy)))
        sdot = inner.hankel_spread_dual(zdot, counts, self.d, self.t)
        return inner.assemble_hess_vec(u, v, cert, DenseOperator(sdot))


class MTFLAdapter(ProblemAdapter):
    """Multi-task feature learning: one regression dual per task."""

    kind = "mtfl"

    def __init__(self, taskset: MTFLTaskSet, params, threads: int = 1):
        super().__init__(params, threads)
        self.taskset = taskset
        self.d, self.t = taskset.d, taskset.t

    def _primal_data(self):
        return self.taskset.tasks

    def initialization_matrix(self):
        return np.column_stack([x_t.T @ y_t for x_t, y_t in self.taskset.tasks])

    def evaluate_g(self, point):
        u = _mat(point)
        c = self.params.c

        def one(t_idx):
            x_t, y_t = self.taskset.tasks[t_idx]
            xu = x_t @ u
            z, factor = inner.solve_column_square(xu, y_t, c)
            val = y_t @ z - z @ z / (4.0 * c) - 0.5 * np.sum((xu.T @ z) ** 2)
            return z, factor, xu, x_t.T @ z, float(val)

        parts = inner.map_columns(one, self.t, self.threads)
        g = float(sum(p[4] for p in parts))
        m = np.column_stack([p[3] for p in parts])
        cert = DualCertificate(kind=self.kind, g_value=g, m_op=DenseOperator(m),
                               z=[p[0] for p in parts],
                               factors=[p[1] for p in parts], xu=[p[2] for p in parts])
        self.last_certificate = cert
        return g, cert

    def euc_hess_vec(self, point, v, cert):
        c = self.params.c

        def one(t_idx):
            x_t, _ = self.taskset.tasks[t_idx]
            z, xu = cert.z[t_idx], cert.xu[t_idx]
            xv = x_t @ v
            w = xv @ (xu.T @ z) + xu @ (xv.T @ z)
            zdot = -inner.apply_shifted_inverse(xu, cert.factors[t_idx], c, w)
            return x_t.T @ zdot

        cols = inner.map_columns(one, self.t, self.threads)
        mdot = DenseOperator(np.column_stack(cols))
        return inner.assemble_hess_vec(_mat(point), v, cert, mdot)


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
                            params: RegularizationParams, threads: int = 1):
    if kind == "completion":
        return CompletionAdapter(data, params, threads)
    if kind == "robust_l1":
        return RobustCompletionAdapter(data, params, threads, loss="l1")
    if kind == "robust_eps_svr":
        return RobustCompletionAdapter(data, params, threads, loss="eps_svr")
    if kind == "nonneg_completion":
        return NonnegCompletionAdapter(data, params, threads)
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
