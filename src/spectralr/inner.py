"""Inner concave maximizations defining g(U), and everything built on them.

For a fixed manifold point U, each application solves an inner problem over
dual variables {Z, s}; the composite M = Z + A*(s) then yields the objective
value, the Euclidean gradient -M M^T U, directional derivatives for
Hessian-vector products, the optimality gap, and the primal reconstruction
W = U U^T M.  M is a scipy.sparse CSC matrix or a dense array, and M M^T is
never formed.

The Hankel M is the d x t Hankel matrix H(x) of the vector x = z / counts
(z the anti-diagonal duals, counts the anti-diagonal lengths).  It is built
dense once per point, for sigma_1 and the gradient; every product inside
the dual CG and the Hessian-vector products is instead a correlation or
convolution with x, applied by FFT in O(r (d + t) log(d + t)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve, solve_triangular

from .data import antidiag_counts

# Entries of sparse constraint duals below this are dropped.
SPARSE_PRUNE = 1e-14

# Largest min(d, T) for which sigma_1(M)^2 comes from the dense Gram: the
# largest size at which the Gram beat Lanczos on every case that
# scripts/sigma1_crossover.py times (sparse M cross over from about 144 on).
DENSE_SIGMA1_MAX_SIDE = 128


@dataclass
class DualCertificate:
    """Optimal inner duals at a point U, and what derivatives reuse.

    m is the composite dual M: a scipy.sparse CSC matrix for the completion
    family, a dense d x T array for Hankel and multi-task learning.  k is
    U^T M at the point, computed once where M is built.  z is the loss dual,
    one flat vector for every kind: one value per observed entry in CSC
    order for the completion family (column t is z[indptr[t]:indptr[t+1]]),
    one value per sample in task order for multi-task learning, and one per
    anti-diagonal for Hankel.  s is the constraint dual (a CSC matrix for the
    nonnegative case, else None; the Hankel S is m itself).  factors is what
    Hessian-vector products reuse, else None: the (T, r, r) stack of the
    systems I/(2C) + B_t^T B_t for the square-loss duals, and for Hankel the
    rfft spectra, at hankel_fft_len(d + T - 1), of the columns of U, of
    x = z / counts and of the columns of K^T.  The Hankel m is the dense
    H(x) of that x: sigma_1, the gradient and the saved model read it, while
    the Hankel Hessian-vector products work by FFT on x alone.
    """

    kind: str
    g_value: float
    m: object
    k: np.ndarray
    z: np.ndarray | None
    s: object = None
    factors: object = None
    converged: bool = True


@dataclass(frozen=True)
class RegularizationParams:
    """Cost parameter C, robust-loss width epsilon, and inner solve budgets."""

    c: float
    epsilon: float = 0.0
    inner_tol: float = 1e-10
    inner_max_iters: int = 2000

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("C must be positive")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")


# --------------------------------------------------------------------------
# per-column inner solvers
# --------------------------------------------------------------------------

def solve_column_square(u_rows: np.ndarray, y: np.ndarray, c: float):
    """Closed-form square-loss dual: (I/(2C) + B B^T) z = y via the r x r system.

    Returns (z, factor) where factor is the Cholesky factorization of
    I_r/(2C) + B^T B, reused for directional derivatives.
    """
    r = u_rows.shape[1]
    b = np.eye(r) / (2.0 * c) + u_rows.T @ u_rows
    factor = cho_factor(b)
    if y.size == 0:
        return np.empty(0), factor
    z = 2.0 * c * (y - u_rows @ cho_solve(factor, u_rows.T @ y))
    return z, factor


def apply_shifted_inverse(u_rows: np.ndarray, factor, c: float, w: np.ndarray) -> np.ndarray:
    """(I/(2C) + B B^T)^{-1} w through the cached r x r factorization."""
    if w.size == 0:
        return w
    return 2.0 * c * (w - u_rows @ cho_solve(factor, u_rows.T @ w))


def square_gram_stack(u_full: np.ndarray, pattern_t, c: float) -> np.ndarray:
    """The r x r systems G_t = I/(2C) + B_t^T B_t of every column at once.

    B_t holds the rows of u_full that the T x n 0/1 matrix pattern_t selects
    for column t: the observed rows U[omega_t] in completion (pattern_t is
    the transposed observation pattern), the task's rows X_t U of the
    stacked X_all U in multi-task learning (pattern_t is task membership).
    The whole stack is one sparse-dense product with the n x r^2 matrix
    whose row i is u_full[i] (x) u_full[i].  Returns a (T, r, r) array.
    """
    d, r = u_full.shape
    outer = (u_full[:, :, None] * u_full[:, None, :]).reshape(d, r * r)
    grams = np.asarray(pattern_t @ outer).reshape(-1, r, r)
    grams[:, np.arange(r), np.arange(r)] += 1.0 / (2.0 * c)
    return grams


def shifted_inverse_columns(u_full: np.ndarray, grams: np.ndarray, c: float,
                            pattern_t, cols: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(I/(2C) + B_t B_t^T)^{-1} w_t for every column t in one batched solve.

    w holds one value per observed entry in CSC order and cols the column of
    each entry; grams comes from square_gram_stack.  Same Woodbury form as
    apply_shifted_inverse: 2C (w_t - B_t G_t^{-1} B_t^T w_t).
    """
    rows = pattern_t.indices
    rhs = sp.csr_matrix((w, rows, pattern_t.indptr), shape=pattern_t.shape) @ u_full
    # b is passed as (T, r, 1): numpy 2 reads a 2-D b as one matrix, not as
    # a stack of vectors
    sol = np.linalg.solve(grams, rhs[..., None])[..., 0]
    return 2.0 * c * (w - pattern_entries(u_full, sol, rows, cols))


def pattern_entries(a: np.ndarray, b: np.ndarray, rows: np.ndarray,
                    cols: np.ndarray) -> np.ndarray:
    """Entries (rows[i], cols[i]) of A B^T, without forming A B^T."""
    return np.einsum("ij,ij->i", a[rows], b[cols])


def solve_column_box_cd(u_rows: np.ndarray, y: np.ndarray, c: float, eps: float,
                        tol: float, max_sweeps: int, z0: np.ndarray | None = None):
    """Exact solve of max_{|z_i|<=C} <y,z> - eps*||z||_1 - 0.5||B^T z||^2.

    Warm-started primal active-set method for convex QP (Nocedal and Wright,
    Numerical Optimization, section 16.5).  Each coordinate is either fixed
    (at exactly +-C, or at exactly 0 when eps > 0) or free.  With eps > 0 a
    free coordinate keeps one sign, so the l1 term is linear on it and it
    moves within [0, C] or [-C, 0]; with eps = 0 it moves within [-C, C].
    Without a warm start z0 every coordinate starts fixed at C*sign(y_i), or
    at 0 where |y_i| <= eps, which is optimal when B = 0.
    B B^T has rank at most r, so the free block is usually singular: an
    ascent direction in the null space of B_F^T is followed linearly to the
    nearest bound, otherwise the Newton step pinv(B_F B_F^T) grad_F is taken
    with a ratio test.  A bound that blocks either step becomes fixed.  Once
    a Newton step fits whole, the fixed coordinate whose multiplier is most
    wrong (z = C needs grad >= eps, z = -C needs grad <= -eps, z = 0 needs
    |grad| <= eps) is freed; the solve stops when no violation exceeds
    tol * max(1, ||y||_inf).  Every step is an ascent step.  max_sweeps caps
    the active-set iterations.  Returns (z, converged).
    """
    n = y.size
    if n == 0:
        return np.empty(0), True
    if z0 is None or z0.shape != y.shape:
        z = np.where(np.abs(y) > eps, c * np.sign(y), 0.0)
    else:
        z = np.clip(z0, -c, c)
    sign = np.sign(z)
    free = np.abs(z) < c
    if eps > 0.0:
        free &= z != 0.0
    thr = tol * max(1.0, float(np.max(np.abs(y))))
    solved = False
    converged = False
    for _ in range(max_sweeps):
        idx = np.flatnonzero(free)
        if not solved and idx.size:
            b_f = u_rows[idx]
            g_f = y[idx] - b_f @ (u_rows.T @ z) - eps * sign[idx]
            basis, sv, _ = np.linalg.svd(b_f, full_matrices=False)
            rank = int(np.count_nonzero(sv > sv[0] * max(b_f.shape) * np.finfo(float).eps))
            basis, sv = basis[:, :rank], sv[:rank]
            coef = basis.T @ g_f
            step = np.zeros(idx.size)
            if rank < idx.size:
                # projected twice so that B_F^T step is round-off relative
                # to the step itself, however small it is against g_F
                step = g_f - basis @ coef
                step -= basis @ (basis.T @ step)
            newton = not np.max(np.abs(step)) > thr
            if newton:
                step = basis @ (coef / sv ** 2)
            if eps > 0.0:
                lo, hi = np.where(sign[idx] > 0, 0.0, -c), np.where(sign[idx] < 0, 0.0, c)
            else:
                lo, hi = np.full(idx.size, -c), np.full(idx.size, c)
            z_f = z[idx]
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = np.where(step > 0, (hi - z_f) / step,
                                 np.where(step < 0, (lo - z_f) / step, np.inf))
            k = int(np.argmin(ratio))
            alpha = max(float(ratio[k]), 0.0)
            if not (newton and alpha >= 1.0):
                z[idx] = np.clip(z_f + alpha * step, lo, hi)
                z[idx[k]] = hi[k] if step[k] > 0 else lo[k]
                free[idx[k]] = False
                continue
            z[idx] = np.clip(z_f + step, lo, hi)
        solved = True
        grad = y - u_rows @ (u_rows.T @ z)
        viol = np.where(z == c, eps - grad,
                        np.where(z == -c, grad + eps, np.abs(grad) - eps))
        viol[free] = -np.inf
        j = int(np.argmax(viol))
        if not viol[j] > thr:
            converged = True
            break
        free[j] = True
        sign[j] = np.sign(z[j]) if z[j] != 0.0 else np.sign(grad[j])
        solved = False
    return z, converged


def solve_column_nonneg(u_full: np.ndarray, omega: np.ndarray, y: np.ndarray,
                        c: float, tol: float, max_iters: int):
    """Exact nonnegative constraint dual for one column.

    Maximizes <y, z> - ||z||^2/(4C) - 0.5 ||B^T z + U^T s||^2 over z and
    s >= 0, with B = U[omega].  For fixed s the optimal z is
    (I/(2C) + B B^T)^{-1} (y - B U^T s); eliminating it leaves the r-row
    nonnegative least-squares problem min_{s>=0} ||F^T s - b|| with
    F = U R^{-1}, R^T R = I + 2C B^T B and b = -R B^T z(0), which Lawson and
    Hanson's active set (scipy.optimize.nnls) solves exactly in finitely
    many steps, with at most r positive s.  R is sqrt(2C) times the Cholesky
    factor of I/(2C) + B^T B, so one factorization serves both.  converged
    is True when nnls returns within max_iters and
    max|min(s, -grad_s)| <= tol * max(1, ||B^T z|| + ||U^T s||), the size of
    the two terms that cancel in grad_s = -U (B^T z + U^T s).  When nnls
    reaches max_iters, the feasible s = 0 is returned with converged False.
    Returns (z, s, factor, converged), factor the Cholesky factorization of
    I/(2C) + B^T B.
    """
    # Imported here, not at module level: scipy.optimize adds about 15 MiB of
    # resident memory, which every run without a nonnegative dual would pay.
    from scipy.optimize import nnls

    u_rows = u_full[omega] if omega.size else u_full[:0]
    r = u_full.shape[1]
    factor = cho_factor(np.eye(r) / (2.0 * c) + u_rows.T @ u_rows)
    r_mat = np.sqrt(2.0 * c) * np.triu(factor[0])
    b = -r_mat @ (u_rows.T @ apply_shifted_inverse(u_rows, factor, c, y))
    try:
        s = nnls(solve_triangular(r_mat, u_full.T, trans="T"), b, maxiter=max_iters)[0]
        solved = True
    except RuntimeError:
        s, solved = np.zeros(u_full.shape[0]), False
    z = apply_shifted_inverse(u_rows, factor, c, y - u_rows @ (u_full.T @ s))
    bz, us = u_rows.T @ z, u_full.T @ s
    resid = float(np.max(np.abs(np.minimum(s, u_full @ (bz + us)))))
    scale = max(1.0, float(np.linalg.norm(bz) + np.linalg.norm(us)))
    return z, s, factor, solved and resid <= tol * scale


def hankel_fft_len(n: int) -> int:
    """Transform length for the Hankel products: the smallest 2^a 3^b 5^c >= n.

    The products below read and write only the first n = d + t - 1 entries
    of each sequence, so at any length >= n circular correlation and
    convolution equal the linear ones (no wrap-around).  numpy's FFT is fast
    on 5-smooth lengths, which pad far less than powers of two (599 -> 600,
    not 1024).
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            m = p35
            while m < n:
                m *= 2
            best = min(best, m)
            p35 *= 3
        p5 *= 5
    return best


def hankel_corr(a_hat: np.ndarray, x_hat: np.ndarray, nfft: int, m: int) -> np.ndarray:
    """Correlations c_k[j] = sum_i a_k[i] x[i + j], j < m, of each column a_k
    of a with the vector x, from their spectra; an m x r array."""
    return np.fft.irfft(np.conj(a_hat) * x_hat[:, None], nfft, axis=0)[:m]


def hankel_conv_sum(a_hat: np.ndarray, b_hat: np.ndarray, nfft: int, n: int) -> np.ndarray:
    """sum_k conv(a_k, b_k) over the columns of a and b, first n entries,
    from their spectra."""
    return np.fft.irfft(np.sum(a_hat * b_hat, axis=1), nfft)[:n]


def hankel_gram_apply(u_full: np.ndarray, c: float, counts: np.ndarray,
                      d: int, t: int, z: np.ndarray,
                      u_hat: np.ndarray | None = None) -> np.ndarray:
    """(I/(2C) + H* U U^T H) z where H maps z to its equal-share matrix.

    H z is the Hankel matrix of x = z / counts, so K = U^T H z holds the r
    correlations of U's columns with x, and H* U K = antidiag_sums(U K) /
    counts is the sum of the convolutions of U's columns with K's rows.
    Both run by FFT in O(r n log n); nothing d x t is formed.  u_hat is U's
    spectrum at hankel_fft_len(d + t - 1), computed here when not given.
    """
    n = d + t - 1
    nfft = hankel_fft_len(n)
    if u_hat is None:
        u_hat = np.fft.rfft(u_full, nfft, axis=0)
    k = hankel_corr(u_hat, np.fft.rfft(z / counts, nfft), nfft, t)
    huk = hankel_conv_sum(u_hat, np.fft.rfft(k, nfft, axis=0), nfft, n) / counts  # H* U K
    return huk + z / (2.0 * c)


def _hankel_cg(u_full: np.ndarray, c: float, t: int, rhs: np.ndarray,
               target: float, max_iters: int, z0: np.ndarray | None = None,
               u_hat: np.ndarray | None = None):
    """Linear CG on (I/(2C) + H* U U^T H) z = rhs until ||residual|| <= target.

    Starts from z0, or from zero without a Gram apply when z0 is None, so a
    zero start makes one apply per CG step.  u_hat is U's spectrum (see
    hankel_gram_apply), computed once here when not given.  Returns
    (z, converged).
    """
    d = u_full.shape[0]
    counts = antidiag_counts(d, t)
    if u_hat is None:
        u_hat = np.fft.rfft(u_full, hankel_fft_len(d + t - 1), axis=0)
    if z0 is None:
        z, res = np.zeros_like(rhs), rhs.copy()
    else:
        z, res = z0, rhs - hankel_gram_apply(u_full, c, counts, d, t, z0, u_hat)
    p = res.copy()
    rs = float(res @ res)
    for _ in range(max_iters):
        if np.sqrt(rs) <= target:
            return z, True
        ap = hankel_gram_apply(u_full, c, counts, d, t, p, u_hat)
        pap = float(p @ ap)
        if pap <= 0:
            break
        alpha = rs / pap
        z = z + alpha * p
        res = res - alpha * ap
        rs_new = float(res @ res)
        p = res + (rs_new / rs) * p
        rs = rs_new
    return z, np.sqrt(rs) <= target


def solve_hankel(u_full: np.ndarray, y: np.ndarray, c: float, tol: float,
                 max_iters: int, t: int, z0: np.ndarray | None = None):
    """Single coupled Hankel dual solve by linear conjugate gradient.

    Maximizes <adsum(S), y> - ||adsum(S)||^2/(4C) - 0.5 ||U^T S||_F^2 with S
    pinned to the equal-share representative of its anti-diagonal sums z
    (the free-S maximization is degenerate: beyond small shapes it can zero
    the coupling term for almost every U, which freezes the outer solver).
    The stationarity condition is the SPD system
    (I/(2C) + H* U U^T H) z = y; stops when the residual falls below
    tol * ||y||, restarting once from the current iterate on stagnation.
    Returns (z, converged).
    """
    target = tol * max(np.linalg.norm(y), 1e-300)
    warm = z0 if z0 is not None and z0.shape == y.shape else None
    z, ok = _hankel_cg(u_full, c, t, y, target, max_iters, warm)
    if not ok:
        z, ok = _hankel_cg(u_full, c, t, y, target, max_iters, z)
    return z, ok


def hankel_directional(u_full: np.ndarray, c: float, rhs: np.ndarray,
                       tol: float, max_iters: int, t: int,
                       scale: float, u_hat: np.ndarray | None = None) -> np.ndarray:
    """Solve the same SPD system with a perturbation right-hand side, from a
    zero start, to tol * max(scale, ||rhs||).  u_hat is U's spectrum (see
    hankel_gram_apply), computed here when not given."""
    target = tol * max(scale, float(np.linalg.norm(rhs)), 1e-300)
    return _hankel_cg(u_full, c, t, rhs, target, max_iters, u_hat=u_hat)[0]


# --------------------------------------------------------------------------
# derivatives of g
# --------------------------------------------------------------------------

def euc_gradient(u_mat: np.ndarray, cert: DualCertificate) -> np.ndarray:
    """Euclidean gradient of g at U: -M (M^T U), never forming M M^T.

    cert must come from evaluate_g at u_mat, so that cert.k = U^T M.
    """
    return -(cert.m @ cert.k.T)


def assemble_hess_vec(u_mat: np.ndarray, v_mat: np.ndarray,
                      cert: DualCertificate, mdot) -> np.ndarray:
    """Directional derivative of the gradient from M and its derivative Mdot.

    D grad[V] = -(Mdot M^T U + M Mdot^T U + M M^T V).
    """
    k_dot = u_mat.T @ mdot
    k_v = v_mat.T @ cert.m
    return -(mdot @ cert.k.T + cert.m @ (k_dot + k_v).T)


def _interior_box_coords(z: np.ndarray, c: float, eps: float) -> np.ndarray:
    # The box solver writes fixed coordinates as exactly +-C or exactly 0,
    # so boundary ties are exact float comparisons here.
    inactive = np.abs(z) < c
    if eps > 0.0:
        inactive &= z != 0.0
    return np.flatnonzero(inactive)


def zdot_column_box(u_rows: np.ndarray, v_rows: np.ndarray, z: np.ndarray,
                    c: float, eps: float) -> np.ndarray:
    """Directional derivative of a box-constrained dual column; clipped
    coordinates stay frozen, interior ones follow the reduced linear system."""
    zdot = np.zeros_like(z)
    if z.size == 0:
        return zdot
    idx = _interior_box_coords(z, c, eps)
    if idx.size == 0:
        return zdot
    w = v_rows @ (u_rows.T @ z) + u_rows @ (v_rows.T @ z)
    gram = u_rows[idx] @ u_rows[idx].T
    sol, *_ = np.linalg.lstsq(gram, -w[idx], rcond=None)
    zdot[idx] = sol
    return zdot


def dot_column_nonneg(u_full: np.ndarray, v_full: np.ndarray, omega: np.ndarray,
                      z: np.ndarray, s: np.ndarray, c: float):
    """Joint (zdot, sdot) for one nonnegative column.

    Differentiates the stationarity system over z and over the strictly
    positive coordinates of s; s-coordinates at zero are kept frozen.
    """
    u_rows = u_full[omega] if omega.size else u_full[:0]
    v_rows = v_full[omega] if omega.size else v_full[:0]
    act = np.flatnonzero(s > 0.0)
    m_r = (u_rows.T @ z if z.size else np.zeros(u_full.shape[1])) + u_full.T @ s
    vz_vs = (v_rows.T @ z if z.size else np.zeros(u_full.shape[1])) + v_full.T @ s
    n, k = z.size, act.size
    if n + k == 0:
        return np.empty(0), np.zeros_like(s)
    u_act = u_full[act]
    kkt = np.zeros((n + k, n + k))
    if n:
        kkt[:n, :n] = np.eye(n) / (2.0 * c) + u_rows @ u_rows.T
        if k:
            kkt[:n, n:] = u_rows @ u_act.T
            kkt[n:, :n] = u_act @ u_rows.T
    if k:
        kkt[n:, n:] = u_act @ u_act.T
    rhs = np.concatenate([
        -(v_rows @ m_r + u_rows @ vz_vs) if n else np.empty(0),
        -(v_full[act] @ m_r + u_act @ vz_vs) if k else np.empty(0),
    ])
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    sdot = np.zeros_like(s)
    sdot[act] = sol[n:]
    return sol[:n], sdot


# --------------------------------------------------------------------------
# certificate-level operations
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GapReport:
    """Duality gap of a point and how sigma_1(M) behind it was computed.

    power_converged is True when sigma1 is exact (dense Gram path, or M = 0)
    or Lanczos met its tolerance.  When it is False sigma1, and with it the
    gap, is a lower bound and certifies nothing.
    """

    gap: float
    sigma1: float
    relative_gap: float
    g_value: float
    power_converged: bool


def sigma1_sq_dense(m) -> float:
    """Top eigenvalue of the Gram M M^T or M^T M, whichever is smaller.

    The Gram is a sparse (or dense) product and only it is made dense, never
    M itself.  Exact up to round-off.
    """
    gram = m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m
    if sp.issparse(gram):
        gram = gram.toarray()
    return float(np.linalg.eigvalsh(gram)[-1])


def sigma1_sq_lanczos(m, tol: float = 1e-13) -> tuple[float, bool]:
    """Top eigenvalue of the smaller-side normal operator by ARPACK's Lanczos.

    The start vector is drawn from a fixed seed, so repeated calls agree bit
    for bit.  ARPACK accepts the Ritz value theta once its residual is at
    most tol * |theta|.  Without convergence the largest converged Ritz value
    (else the start vector's Rayleigh quotient) is returned with False; it is
    a lower bound on sigma_1(M)^2.  Needs min(M.shape) >= 2.
    """
    d, t = m.shape
    n = min(d, t)
    if d <= t:
        matvec = lambda x: m @ (m.T @ x)
    else:
        matvec = lambda x: m.T @ (m @ x)
    op = spla.LinearOperator((n, n), matvec=matvec, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        lam = spla.eigsh(op, k=1, which="LA", tol=tol, v0=v0,
                         return_eigenvectors=False)[0]
        return float(lam), True
    except spla.ArpackNoConvergence as exc:
        return float(max(exc.eigenvalues, default=v0 @ matvec(v0) / (v0 @ v0))), False


def top_singular_value_sq(m, tol: float = 1e-13) -> tuple[float, bool]:
    """sigma_1(M)^2 and whether it is converged; M is CSC or a dense array.

    All-zero M gives (0.0, True).  When min(d, T) <= DENSE_SIGMA1_MAX_SIDE
    the value is the top eigenvalue of the dense smaller-side Gram, exact up
    to round-off, and the flag is always True.  Above that it comes from
    Lanczos with relative residual tolerance tol; the flag is False when
    ARPACK did not converge, and the value is then a lower bound.
    """
    if not np.any(m.data if sp.issparse(m) else m):
        return 0.0, True
    if min(m.shape) <= DENSE_SIGMA1_MAX_SIDE:
        return sigma1_sq_dense(m), True
    return sigma1_sq_lanczos(m, tol)


def duality_gap(u_mat: np.ndarray, cert: DualCertificate,
                power_tol: float = 1e-13) -> GapReport:
    """Optimality gap 0.5*(sigma_1(M)^2 - ||U^T M||_F^2) of the current point.

    cert must come from evaluate_g at u_mat, so that cert.k = U^T M.
    sigma_1(M)^2 comes from top_singular_value_sq: exact on the dense Gram
    for small M, by Lanczos to relative residual power_tol otherwise.  The
    relative gap divides by max(1, |g|).  The gap is a point estimate; when
    power_converged is False, sigma_1 is a lower bound and so is the gap.
    """
    k = cert.k
    ut_m_sq = float(np.sum(k * k))
    lam, converged = top_singular_value_sq(cert.m, power_tol)
    sigma1 = float(np.sqrt(lam))
    gap = 0.5 * (lam - ut_m_sq)
    rel = gap / max(1.0, abs(cert.g_value))
    return GapReport(gap, sigma1, rel, cert.g_value, converged)


@dataclass(frozen=True)
class PrimalFactor:
    """Primal reconstruction W = U K held as the pair (U, K = U^T M)."""

    u: np.ndarray  # d x r
    k: np.ndarray  # r x T

    def entries(self, rows, cols) -> np.ndarray:
        return np.sum(self.u[np.asarray(rows)] * self.k[:, np.asarray(cols)].T, axis=1)

    def dense(self) -> np.ndarray:
        return self.u @ self.k


def reconstruct_primal(u_mat: np.ndarray, cert: DualCertificate) -> PrimalFactor:
    """W = U K at the point cert was built at."""
    return PrimalFactor(u_mat, cert.k)


# --------------------------------------------------------------------------
# test oracles: primal objective and the squared-trace-norm identity
# --------------------------------------------------------------------------

def nuclear_norm_sq(w: np.ndarray) -> float:
    """Squared sum of singular values, by dense SVD."""
    return float(np.sum(np.linalg.svd(w, compute_uv=False)) ** 2)


def primal_objective(w: np.ndarray, kind: str, data, params: RegularizationParams) -> float:
    """Objective the dual certifies: C * loss + half the squared nuclear norm.

    The one-half factor on the regularizer is what pairs with the inner
    maximization used throughout; doubling C recovers the unhalved form.
    Hankel inputs are reduced to their generating vector by anti-diagonal
    averaging, so the value is meaningful only near structural feasibility.
    """
    c, eps = params.c, params.epsilon
    if kind in ("completion", "robust_l1", "robust_eps_svr", "nonneg_completion"):
        rows, cols, y = data.to_coo()
        resid = y - w[rows, cols]
        if kind == "robust_l1":
            loss = np.sum(np.abs(resid))
        elif kind == "robust_eps_svr":
            loss = np.sum(np.maximum(np.abs(resid) - eps, 0.0))
        else:
            loss = np.sum(resid ** 2)
    elif kind == "hankel":
        from .data import antidiag_means
        loss = float(np.sum((np.asarray(data) - antidiag_means(w)) ** 2))
    elif kind == "mtfl":
        loss = 0.0
        for t_idx, (x_t, y_t) in enumerate(data):
            loss += float(np.sum((y_t - x_t @ w[:, t_idx]) ** 2))
    else:
        raise ValueError(f"unknown problem kind {kind!r}")
    return float(c * loss + 0.5 * nuclear_norm_sq(w))


def variational_theta_residual(w: np.ndarray) -> float:
    """|<pinv(Theta) W, W> - ||W||_*^2| for Theta = sqrt(W W^T)/trace(...).

    The square root sqrt(W W^T) and its pseudo-inverse are built explicitly
    from the singular value decomposition of W (forming the Gram matrix first
    would square the condition number), then the inner product is evaluated
    as a dense matrix product.
    """
    p, sv, _ = np.linalg.svd(w, full_matrices=False)
    tr = np.sum(sv)
    cutoff = sv.max(initial=0.0) * max(w.shape) * np.finfo(float).eps
    keep = sv > cutoff
    theta_pinv = (p[:, keep] * (tr / sv[keep])) @ p[:, keep].T
    val = float(np.tensordot(theta_pinv @ w, w, axes=2))
    return abs(val - nuclear_norm_sq(w))
