"""Riemannian conjugate-gradient and trust-region minimization of g(U).

Both solvers walk the unit-Frobenius-sphere quotient: directions live in the
horizontal space, moves go through the renormalization retraction, and the
previous search direction is carried over by projection-based transport.
Everything is deterministic for a fixed problem, start point, and config.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .spectrahedron import (
    ManifoldPoint,
    TangentVector,
    inner_product,
    manifold_point,
    normalized_point,
    project_horizontal,
    retract,
    riemannian_gradient,
    riemannian_hess_vec,
    transport,
)

CONVERGED = "converged"
MAX_ITERS = "max_iters"
STALLED = "stalled"
NUMERICAL_ERROR = "numerical_error"

# Why a truncated-CG pass ended (IterationRecord.tcg_stop).
TCG_RESIDUAL = "residual"
TCG_BOUNDARY = "boundary"
TCG_NEGATIVE_CURVATURE = "negative_curvature"
TCG_STALLED = "stalled"
TCG_CAP = "cap"
TCG_STOP_REASONS = (TCG_RESIDUAL, TCG_BOUNDARY, TCG_NEGATIVE_CURVATURE,
                    TCG_STALLED, TCG_CAP)

# Truncated CG stops as stalled once TCG_STALL_WINDOW consecutive steps fail
# to bring the residual norm below TCG_STALL_FACTOR times its value at the
# last step that did (gn at the start): near a solution the residual target
# gn * min(kappa, gn**theta) falls below what an inexact Hessian-vector
# product resolves.  On six small Hankel instances (100, 1/2) needed no more
# outer iterations than running every pass to the d*r cap, and it leaves
# passes that still halve their residual within 100 steps alone; the sweep,
# and a wider one, are in CHANGES.md.
TCG_STALL_WINDOW = 100
TCG_STALL_FACTOR = 0.5


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by both solvers; trust-region fields are ignored by CG.

    grad_norm_tol is relative to the gradient norm at the starting point.
    tcg_max_iters = None means one truncated-CG pass per manifold dimension;
    0 degenerates the trust-region step to the Cauchy point.
    """

    max_outer_iters: int = 300
    grad_norm_tol: float = 1e-6
    armijo_c1: float = 1e-4
    armijo_backtrack: float = 0.5
    max_line_search: int = 25
    tr_initial_radius: float = 1.0
    tr_max_radius: float = 100.0
    tcg_max_iters: int | None = None
    tcg_kappa: float = 0.1
    tcg_theta: float = 1.0
    cert_every: int = 0

    def __post_init__(self):
        if self.max_outer_iters < 0 or self.max_line_search < 1:
            raise ValueError("iteration budgets must be positive")
        if not (0 < self.armijo_c1 < 0.5):
            raise ValueError("armijo_c1 must lie in (0, 0.5)")
        if not (0 < self.armijo_backtrack < 1):
            raise ValueError("armijo_backtrack must lie in (0, 1)")
        if self.tr_initial_radius <= 0 or self.tr_max_radius < self.tr_initial_radius:
            raise ValueError("trust-region radii must satisfy 0 < initial <= max")
        if self.grad_norm_tol < 0 or self.tcg_kappa <= 0 or self.tcg_theta <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class IterationRecord:
    """One solver iteration; tcg_steps (Hessian-vector products) and
    tcg_stop (one of TCG_STOP_REASONS) describe the trust-region
    subproblem solve and are None under CG and at iteration 0."""

    iteration: int
    g_value: float
    grad_norm: float
    step_size: float
    elapsed_seconds: float
    duality_gap: float | None = None
    tcg_steps: int | None = None
    tcg_stop: str | None = None


@dataclass
class SolveResult:
    point: ManifoldPoint
    certificate: object
    records: list = field(default_factory=list)
    status: str = MAX_ITERS

    @property
    def g_value(self) -> float:
        return self.records[-1].g_value

    @property
    def grad_norm(self) -> float:
        return self.records[-1].grad_norm


def _gap_value(problem, point, cert):
    gap_fn = getattr(problem, "duality_gap", None)
    if gap_fn is None or cert is None:
        return None
    return gap_fn(point, cert).gap


def _eval_state(problem, point):
    g, cert = problem.evaluate_g(point)
    grad = project_horizontal(point, riemannian_gradient(
        point, problem.euc_gradient(point, cert)))
    return g, cert, grad


def solve_cg(problem, u0: ManifoldPoint, cfg: SolverConfig) -> SolveResult:
    """Polak-Ribiere+ conjugate gradient with Armijo backtracking.

    Falls back to the steepest-descent direction once when the line search
    exhausts its backtracks, and reports "stalled" if that fails as well.
    A non-finite g (start or trial point) or gradient norm stops the solve
    with "numerical_error" at the last point whose g was finite.
    """
    t0 = time.perf_counter()
    point = u0
    g, cert, grad = _eval_state(problem, point)
    gn = grad.norm
    tol = cfg.grad_norm_tol * gn
    records = [IterationRecord(0, g, gn, 0.0, time.perf_counter() - t0,
                               _gap_value(problem, point, cert) if cfg.cert_every else None)]
    if not (np.isfinite(g) and np.isfinite(gn)):
        return SolveResult(point, cert, records, NUMERICAL_ERROR)
    if gn <= tol:
        return SolveResult(point, cert, records, CONVERGED)

    prev_grad = prev_dir = None
    prev_gn_sq = 0.0
    prev_alpha = None
    prev_decrease = 0.0
    status = MAX_ITERS
    for it in range(1, cfg.max_outer_iters + 1):
        if prev_dir is None:
            direction = -grad
        else:
            beta = max(0.0, inner_product(grad, grad - transport(point, prev_grad))
                       / prev_gn_sq)
            direction = -grad + beta * transport(point, prev_dir)
            if inner_product(grad, direction) >= -1e-12 * gn * max(direction.norm, 1e-300):
                direction = -grad
        accepted = None
        for attempt in range(2):
            slope = inner_product(grad, direction)
            if prev_alpha is None:
                alpha = 1.0 / max(gn, 1e-300)
            else:
                # first-trial guess: twice the step matching the previous
                # decrease on the linear model, capped by doubling the last
                # accepted step
                alpha = 2.0 * prev_alpha
                if prev_decrease > 0 and slope < 0:
                    alpha = min(alpha, 2.02 * prev_decrease / (-slope))
            for _ in range(cfg.max_line_search):
                candidate = retract(point, direction, alpha)
                g_new, cert_new = problem.evaluate_g(candidate)
                if not np.isfinite(g_new) or g_new <= g + cfg.armijo_c1 * alpha * slope:
                    accepted = (candidate, g_new, cert_new, alpha)
                    break
                alpha *= cfg.armijo_backtrack
            if accepted is not None:
                break
            if attempt == 0:
                direction = -grad
                prev_alpha = None
        if accepted is None:
            status = STALLED
            break
        if not np.isfinite(accepted[1]):
            records.append(IterationRecord(it, g, gn, 0.0, time.perf_counter() - t0))
            status = NUMERICAL_ERROR
            break
        point, g_new, cert, alpha = accepted
        prev_decrease = g - g_new
        g = g_new
        prev_grad, prev_dir, prev_gn_sq, prev_alpha = grad, direction, gn * gn, alpha
        grad = project_horizontal(point, riemannian_gradient(
            point, problem.euc_gradient(point, cert)))
        gn = grad.norm
        want_gap = cfg.cert_every and (it % cfg.cert_every == 0 or gn <= tol
                                       or it == cfg.max_outer_iters)
        records.append(IterationRecord(it, g, gn, alpha, time.perf_counter() - t0,
                                       _gap_value(problem, point, cert) if want_gap else None))
        if not np.isfinite(gn):
            status = NUMERICAL_ERROR
            break
        if gn <= tol:
            status = CONVERGED
            break
    return SolveResult(point, cert, records, status)


def _truncated_cg(grad: TangentVector, hess, radius: float, kappa: float,
                  theta: float, max_iters: int):
    """Steihaug-Toint CG on the model <grad, xi> + <xi, H xi>/2, ||xi|| <= radius.

    Returns (step, stop, steps): steps counts Hessian-vector products and
    stop is one of TCG_STOP_REASONS.  The rules, checked in each CG step:

    - negative_curvature: the search direction p has <p, H p> <= 0; the
      step follows p to the boundary;
    - boundary: the next iterate would leave the trust region; the step
      stops on the boundary along p;
    - residual: the residual norm reached gn * min(kappa, gn**theta);
    - stalled: TCG_STALL_WINDOW consecutive steps failed to bring the
      residual norm below TCG_STALL_FACTOR times a reference, which starts
      at gn and becomes the residual norm of each step that gets below it;
      the current iterate is returned, the best so far since CG iterates
      decrease the model monotonically;
    - cap: max_iters steps ran out.

    max_iters = 0 gives the Cauchy point, the model's minimizer along -grad
    within the radius: stop negative_curvature or boundary when it lies on
    the boundary, cap otherwise.
    """

    def boundary_tau(xi, p):
        # positive root of ||xi + tau p|| = radius
        a = inner_product(p, p)
        b = 2.0 * inner_product(xi, p)
        c = inner_product(xi, xi) - radius * radius
        disc = max(b * b - 4.0 * a * c, 0.0)
        return (-b + np.sqrt(disc)) / (2.0 * a)

    gn = grad.norm
    if max_iters == 0:
        curv = inner_product(grad, hess(grad))
        if curv <= 0:
            return -(radius / gn) * grad, TCG_NEGATIVE_CURVATURE, 1
        tau = min(gn * gn / curv, radius / gn)
        return -tau * grad, TCG_BOUNDARY if tau >= radius / gn - 1e-15 else TCG_CAP, 1
    xi = 0.0 * grad
    res = grad
    p = -grad
    rr = gn * gn
    stop_res = gn * min(kappa, gn ** theta)
    best, since_best = gn, 0
    for step in range(1, max_iters + 1):
        hp = hess(p)
        curv = inner_product(p, hp)
        if curv <= 0:
            return xi + boundary_tau(xi, p) * p, TCG_NEGATIVE_CURVATURE, step
        alpha = rr / curv
        xi_next = xi + alpha * p
        if np.sqrt(inner_product(xi_next, xi_next)) >= radius:
            return xi + boundary_tau(xi, p) * p, TCG_BOUNDARY, step
        xi = xi_next
        res = res + alpha * hp
        rr_new = inner_product(res, res)
        res_norm = np.sqrt(rr_new)
        if res_norm <= stop_res:
            return xi, TCG_RESIDUAL, step
        if res_norm < TCG_STALL_FACTOR * best:
            best, since_best = res_norm, 0
        else:
            since_best += 1
            if since_best >= TCG_STALL_WINDOW:
                return xi, TCG_STALLED, step
        p = -res + (rr_new / rr) * p
        rr = rr_new
    return xi, TCG_CAP, max_iters


def solve_tr(problem, u0: ManifoldPoint, cfg: SolverConfig) -> SolveResult:
    """Riemannian trust region with a truncated-CG subproblem, unit step size.

    Candidates are accepted on the usual ratio test (rho > 0.1); the radius
    shrinks at rho < 0.25 and grows after boundary hits with rho > 0.75.  If
    the Hessian system of the problem fails, the iteration falls back to the
    Cauchy point.  A non-finite g (start or candidate) or gradient norm stops
    the solve with "numerical_error" at the last point whose g was finite.
    Each record carries its truncated-CG step count and stop reason.
    """
    t0 = time.perf_counter()
    point = u0
    g, cert, grad = _eval_state(problem, point)
    gn = grad.norm
    tol = cfg.grad_norm_tol * gn
    records = [IterationRecord(0, g, gn, 0.0, time.perf_counter() - t0,
                               _gap_value(problem, point, cert) if cfg.cert_every else None)]
    if not (np.isfinite(g) and np.isfinite(gn)):
        return SolveResult(point, cert, records, NUMERICAL_ERROR)
    if gn <= tol:
        return SolveResult(point, cert, records, CONVERGED)

    radius = cfg.tr_initial_radius
    max_tcg = cfg.tcg_max_iters if cfg.tcg_max_iters is not None \
        else point.d * point.r
    status = MAX_ITERS
    for it in range(1, cfg.max_outer_iters + 1):
        euc_grad = problem.euc_gradient(point, cert)

        def hess(tv):
            return riemannian_hess_vec(
                point, euc_grad, problem.euc_hess_vec(point, tv.xi, cert), tv)

        try:
            xi, tcg_stop, tcg_steps = _truncated_cg(
                grad, hess, radius, cfg.tcg_kappa, cfg.tcg_theta, max_tcg)
            model_dec = -(inner_product(grad, xi) + 0.5 * inner_product(xi, hess(xi)))
        except np.linalg.LinAlgError:
            xi, tcg_stop, tcg_steps = _truncated_cg(grad, lambda tv: 0.0 * tv, radius,
                                                    cfg.tcg_kappa, cfg.tcg_theta, 0)
            model_dec = -inner_product(grad, xi)
        hit_boundary = tcg_stop in (TCG_BOUNDARY, TCG_NEGATIVE_CURVATURE)
        step_norm = xi.norm
        accepted = False
        g_new = g
        if model_dec > 0 and step_norm > 0:
            candidate = retract(point, xi, 1.0)
            g_new, cert_new = problem.evaluate_g(candidate)
            # Regularize the ratio so floating-point cancellation in g - g_new
            # cannot collapse the radius once both decreases reach noise level.
            rho_reg = 1e3 * np.finfo(float).eps * max(1.0, abs(g))
            rho = (g - g_new + rho_reg) / (model_dec + rho_reg)
            if rho > 0.1:
                accepted = True
                point, g, cert = candidate, g_new, cert_new
                grad = project_horizontal(point, riemannian_gradient(
                    point, problem.euc_gradient(point, cert)))
                gn = grad.norm
            if rho < 0.25:
                radius *= 0.25
            elif rho > 0.75 and hit_boundary:
                radius = min(2.0 * radius, cfg.tr_max_radius)
        else:
            radius *= 0.25
        want_gap = cfg.cert_every and (it % cfg.cert_every == 0 or gn <= tol
                                       or it == cfg.max_outer_iters)
        records.append(IterationRecord(
            it, g, gn, step_norm if accepted else 0.0, time.perf_counter() - t0,
            _gap_value(problem, point, cert) if want_gap else None, tcg_steps, tcg_stop))
        if not (np.isfinite(g_new) and np.isfinite(gn)):
            status = NUMERICAL_ERROR
            break
        if gn <= tol:
            status = CONVERGED
            break
        if radius < 1e-16:
            status = STALLED
            break
    return SolveResult(point, cert, records, status)


def _fix_signs(u: np.ndarray) -> np.ndarray:
    # Deterministic sign convention: largest-magnitude entry of each column
    # is positive (first occurrence breaks ties).
    out = u.copy()
    for j in range(out.shape[1]):
        i = int(np.argmax(np.abs(out[:, j])))
        if out[i, j] < 0:
            out[:, j] = -out[:, j]
    return out


def initialize_point(problem, d: int, r: int, seed: int = 0) -> ManifoldPoint:
    """Leading left singular vectors of the zero-filled data matrix.

    Falls back to a seeded Gaussian draw when the data matrix is zero; the
    seed also fixes the start vector of the iterative SVD used for matrices
    too large to decompose densely.
    """
    rng = np.random.default_rng(seed)
    a = problem.initialization_matrix()
    is_sparse = sp.issparse(a)
    norm = spla.norm(a) if is_sparse else np.linalg.norm(a)
    if norm == 0.0:
        return normalized_point(rng.standard_normal((d, r)))
    n_cols = a.shape[1]
    k = min(r, d, n_cols)
    if min(d, n_cols) <= 800 or k >= min(d, n_cols) - 1:
        dense = a.toarray() if is_sparse else np.asarray(a, dtype=float)
        u_left, _, _ = np.linalg.svd(dense, full_matrices=False)
        basis = u_left[:, :k]
    else:
        v0 = rng.standard_normal(min(d, n_cols))
        u_left, _, _ = spla.svds(a.astype(float), k=k, v0=v0)
        basis = u_left[:, ::-1][:, :k]
    basis = _fix_signs(basis)
    if k < r:
        extra = rng.standard_normal((d, r - k))
        extra -= basis @ (basis.T @ extra)
        extra, _ = np.linalg.qr(extra)
        basis = np.hstack([basis, extra])
    return normalized_point(basis)


__all__ = [
    "SolverConfig", "IterationRecord", "SolveResult",
    "solve_cg", "solve_tr", "initialize_point",
    "CONVERGED", "MAX_ITERS", "STALLED", "NUMERICAL_ERROR", "TCG_STOP_REASONS",
]
