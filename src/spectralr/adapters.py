"""Problem adapters: one object per application exposing g, its gradient,
and Hessian-vector products to the solvers, plus prediction and metrics.

Adapter kinds: completion, robust_l1, robust_eps_svr, nonneg_completion,
hankel, mtfl.  All of them are deterministic given (point, data, params,
warm start).  Completion-family data and duals share one CSC layout: M is a
scipy.sparse CSC matrix on the observation pattern (plus the nonzeros of S
in the nonnegative case); Hankel and multi-task M are dense arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import inner
from .data import (
    ColumnSparseMatrix,
    antidiag_means,
    antidiag_sums,
    hankel_matrix,
)
from .inner import (
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

    def _primal_data(self):
        return self.data

    def initialization_matrix(self):
        return self.data.to_scipy()

    def _on_pattern(self, cols: list) -> sp.csc_matrix:
        """CSC matrix with the observation pattern and per-column values."""
        return sp.csc_matrix((np.concatenate(cols), self.data.indices, self.data.indptr),
                             shape=(self.d, self.t))

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
        z_cols, factors = [], []
        for t_idx in range(self.t):
            idx, y = self.data.column(t_idx)
            z, factor = inner.solve_column_square(u[idx], y, c)
            z_cols.append(z)
            factors.append(factor)
        m = self._on_pattern(z_cols)
        k = u.T @ m
        g = float(self.data.values @ m.data - m.data @ m.data / (4.0 * c)
                  - 0.5 * np.sum(k * k))
        cert = DualCertificate(kind=self.kind, g_value=g, m=m, k=k,
                               z=z_cols, factors=factors)
        self.last_certificate = cert
        return g, cert

    def euc_hess_vec(self, point, v, cert):
        u = _mat(point)
        c = self.params.c
        zdots = []
        for t_idx in range(self.t):
            idx, _ = self.data.column(t_idx)
            u_rows, v_rows, z = u[idx], v[idx], cert.z[t_idx]
            w = v_rows @ (u_rows.T @ z) + u_rows @ (v_rows.T @ z)
            zdots.append(-inner.apply_shifted_inverse(u_rows, cert.factors[t_idx], c, w))
        return inner.assemble_hess_vec(u, v, cert, self._on_pattern(zdots))


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
        z_cols, converged = [], True
        for t_idx in range(self.t):
            idx, y = self.data.column(t_idx)
            z, ok = inner.solve_column_box_cd(
                u[idx], y, c, eps, self.params.inner_tol,
                self.params.inner_max_iters, self._warm_z(t_idx))
            z_cols.append(z)
            converged = converged and ok
        m = self._on_pattern(z_cols)
        k = u.T @ m
        g = float(self.data.values @ m.data - eps * np.sum(np.abs(m.data))
                  - 0.5 * np.sum(k * k))
        cert = DualCertificate(kind=self.kind, g_value=g, m=m, k=k,
                               z=z_cols, converged=converged)
        self.last_certificate = cert
        return g, cert

    def euc_hess_vec(self, point, v, cert):
        u = _mat(point)
        c, eps = self.params.c, self._eps
        zdots = []
        for t_idx in range(self.t):
            idx, _ = self.data.column(t_idx)
            zdots.append(inner.zdot_column_box(u[idx], v[idx], cert.z[t_idx], c, eps))
        return inner.assemble_hess_vec(u, v, cert, self._on_pattern(zdots))


class NonnegCompletionAdapter(_CompletionBase):
    """Square-loss completion with entrywise nonnegativity duals s_t >= 0.

    M = Z + S, where Z lives on the observation pattern and S is stored as a
    CSC matrix of its nonzero entries.
    """

    kind = "nonneg_completion"

    def evaluate_g(self, point):
        u = _mat(point)
        c = self.params.c
        warm = self.last_certificate
        z_cols, s_rows, s_vals, factors, converged = [], [], [], [], True
        for t_idx in range(self.t):
            idx, y = self.data.column(t_idx)
            z, s, factor, ok = inner.solve_column_nonneg(
                u, idx, y, c, self.params.inner_tol, self.params.inner_max_iters,
                None if warm is None else _dense_column(warm.s, t_idx))
            s[np.abs(s) < inner.SPARSE_PRUNE] = 0.0
            snz = np.flatnonzero(s)
            z_cols.append(z)
            s_rows.append(snz)
            s_vals.append(s[snz])
            factors.append(factor)
            converged = converged and ok
        z_mat = self._on_pattern(z_cols)
        s_mat = _csc_columns(self.d, s_rows, s_vals)
        m = z_mat + s_mat
        k = u.T @ m
        g = float(self.data.values @ z_mat.data - z_mat.data @ z_mat.data / (4.0 * c)
                  - 0.5 * np.sum(k * k))
        cert = DualCertificate(kind=self.kind, g_value=g, m=m, k=k, z=z_cols,
                               s=s_mat, factors=factors, converged=converged)
        self.last_certificate = cert
        return g, cert

    def euc_hess_vec(self, point, v, cert):
        u = _mat(point)
        c = self.params.c
        zdots, sdot_rows, sdot_vals = [], [], []
        for t_idx in range(self.t):
            omega, _ = self.data.column(t_idx)
            zdot, sdot = inner.dot_column_nonneg(
                u, v, omega, cert.z[t_idx], _dense_column(cert.s, t_idx), c)
            nz = np.flatnonzero(sdot)
            zdots.append(zdot)
            sdot_rows.append(nz)
            sdot_vals.append(sdot[nz])
        mdot = self._on_pattern(zdots) + _csc_columns(self.d, sdot_rows, sdot_vals)
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
        k = u.T @ s_mat
        g = float(z @ self.problem.y_noisy - z @ z / (4.0 * c) - 0.5 * np.sum(k ** 2))
        cert = DualCertificate(kind=self.kind, g_value=g, m=s_mat, k=k,
                               z=z, s=s_mat, converged=ok)
        self.last_certificate = cert
        return g, cert

    def euc_hess_vec(self, point, v, cert):
        u = _mat(point)
        s_mat = cert.m
        counts = self._counts()
        rhs = -antidiag_sums(v @ cert.k + u @ (v.T @ s_mat)) / counts
        zdot = inner.hankel_directional(
            u, self.params.c, rhs, self.params.inner_tol,
            self.params.inner_max_iters, self.t,
            float(np.linalg.norm(self.problem.y_noisy)))
        sdot = inner.hankel_spread_dual(zdot, counts, self.d, self.t)
        return inner.assemble_hess_vec(u, v, cert, sdot)


class MTFLAdapter(ProblemAdapter):
    """Multi-task feature learning: one regression dual per task."""

    kind = "mtfl"

    def __init__(self, taskset: MTFLTaskSet, params):
        super().__init__(params)
        self.taskset = taskset
        self.d, self.t = taskset.d, taskset.t

    def _primal_data(self):
        return self.taskset.tasks

    def initialization_matrix(self):
        return np.column_stack([x_t.T @ y_t for x_t, y_t in self.taskset.tasks])

    def evaluate_g(self, point):
        u = _mat(point)
        c = self.params.c
        z_cols, factors, xus, m_cols, loss_part = [], [], [], [], 0.0
        for x_t, y_t in self.taskset.tasks:
            xu = x_t @ u
            z, factor = inner.solve_column_square(xu, y_t, c)
            z_cols.append(z)
            factors.append(factor)
            xus.append(xu)
            m_cols.append(x_t.T @ z)
            loss_part += y_t @ z - z @ z / (4.0 * c)
        m = np.column_stack(m_cols)
        k = u.T @ m
        g = float(loss_part - 0.5 * np.sum(k * k))
        cert = DualCertificate(kind=self.kind, g_value=g, m=m, k=k, z=z_cols,
                               factors=factors, xu=xus)
        self.last_certificate = cert
        return g, cert

    def euc_hess_vec(self, point, v, cert):
        c = self.params.c
        cols = []
        for t_idx, (x_t, _) in enumerate(self.taskset.tasks):
            z, xu = cert.z[t_idx], cert.xu[t_idx]
            xv = x_t @ v
            w = xv @ (xu.T @ z) + xu @ (xv.T @ z)
            zdot = -inner.apply_shifted_inverse(xu, cert.factors[t_idx], c, w)
            cols.append(x_t.T @ zdot)
        return inner.assemble_hess_vec(_mat(point), v, cert, np.column_stack(cols))


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
