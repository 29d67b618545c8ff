"""Riemannian conjugate-gradient and trust-region minimization of g(U).

Both solvers walk the unit-Frobenius-sphere quotient: directions live in the
horizontal space, moves go through the renormalization retraction, and the
previous search direction is carried over by projection-based transport.
One outer loop, _minimize, owns the start, the records with their gap
cadence and the stop rules; each solver supplies only its step.
Everything is deterministic for a fixed problem, start point, and config.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .spectrahedron import (
    ManifoldPoint,
    TangentVector,
    inner_product,
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
TCG_NON_FINITE = "non_finite"
TCG_STOP_REASONS = (TCG_RESIDUAL, TCG_BOUNDARY, TCG_NEGATIVE_CURVATURE,
                    TCG_STALLED, TCG_CAP, TCG_NON_FINITE)

# Truncated CG stops as stalled once TCG_STALL_WINDOW consecutive steps fail
# to bring the residual norm below TCG_STALL_FACTOR times its value at the
# last step that did (gn at the start): near a solution the residual target
# (TCG_KAPPA below) falls below what an inexact Hessian-vector product
# resolves.  On six small Hankel instances (100, 1/2) needed no more
# outer iterations than running every pass to the d*r cap, and it leaves
# passes that still halve their residual within 100 steps alone; the sweep,
# and a wider one, are in CHANGES.md.
TCG_STALL_WINDOW = 100
TCG_STALL_FACTOR = 0.5

# Truncated CG's residual target gn * min(TCG_KAPPA, gn**TCG_THETA), fixed at
# the values of Absil, Baker and Gallivan (Found. Comput. Math. 2007): a pass
# cuts the residual tenfold far from a solution, quadratically near one.
TCG_KAPPA = 0.1
TCG_THETA = 1.0
MAX_LINE_SEARCH = 25  # Armijo trials per CG direction
ARMIJO_C1 = 1e-4  # sufficient-decrease constant of the CG line search
ARMIJO_BACKTRACK = 0.5  # step factor per rejected Armijo trial
TR_INITIAL_RADIUS = 1.0
TR_MAX_RADIUS = 100.0


@dataclass(frozen=True)
class SolverConfig:
    """Settings shared by both solvers.

    grad_norm_tol is relative to the gradient norm at the starting point;
    cert_every > 0 records the duality gap every cert_every iterations.  A
    bad field raises ValueError naming it.  The step rules are module
    constants, because no caller varied them: TCG_KAPPA, TCG_THETA,
    TCG_STALL_*, MAX_LINE_SEARCH, ARMIJO_C1, ARMIJO_BACKTRACK and
    TR_*_RADIUS; truncated CG runs at most d*r steps, one per manifold
    dimension.
    """

    max_outer_iters: int = 300
    grad_norm_tol: float = 1e-6
    cert_every: int = 0

    def __post_init__(self):
        def count(value):
            return isinstance(value, (int, np.integer)) and value >= 0

        for name, ok, what in (
                ("max_outer_iters", count(self.max_outer_iters), "an integer >= 0"),
                ("cert_every", count(self.cert_every), "an integer >= 0"),
                ("grad_norm_tol", 0 <= self.grad_norm_tol < np.inf, "nonnegative and finite")):
            if not ok:
                raise ValueError(f"{name} must be {what}, got {getattr(self, name)!r}")


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


class _State(NamedTuple):
    """An evaluated point; each field is computed once per point."""

    point: ManifoldPoint
    g: float
    cert: object
    euc_grad: np.ndarray
    grad: TangentVector
    gn: float


def _evaluate(problem, point, g, cert) -> _State:
    euc_grad = problem.euc_gradient(point, cert)
    grad = project_horizontal(point, riemannian_gradient(point, euc_grad))
    return _State(point, g, cert, euc_grad, grad, grad.norm)


class _Move(NamedTuple):
    """What one step did; _minimize records it and applies the stop rules."""

    state: _State                 # where the step ends; the current state if rejected
    step_size: float = 0.0
    stop: str | None = None       # NUMERICAL_ERROR or STALLED ends the solve
    tcg_steps: int | None = None
    tcg_stop: str | None = None


def _minimize(problem, u0: ManifoldPoint, cfg: SolverConfig, step) -> SolveResult:
    """The outer loop both solvers share.

    Evaluates u0 as iteration 0, then records the _Move that step(state)
    returns once per iteration.  The duality gap is recorded, if cert_every
    is set and the problem has duality_gap, at iteration 0, every
    cert_every-th iteration, the converged one and the budget's last.  After
    each record the solve ends, checked in this order, as

    - numerical_error: g or the gradient norm is not finite, or the step
      met a non-finite value; the point is the last one whose g was finite;
    - converged: the gradient norm fell to grad_norm_tol times the start's;
    - stalled: the step stalled (one that returns None leaves no record);
    - max_iters: max_outer_iters iterations ran out.
    """
    t0 = time.perf_counter()
    gap_fn = getattr(problem, "duality_gap", None) if cfg.cert_every else None
    state = _evaluate(problem, u0, *problem.evaluate_g(u0))
    tol = cfg.grad_norm_tol * state.gn
    records = []
    status = MAX_ITERS
    for it in range(cfg.max_outer_iters + 1):
        move = step(state) if it else _Move(state)
        if move is None:
            status = STALLED
            break
        state = move.state
        want_gap = gap_fn and state.cert is not None and (
            it % cfg.cert_every == 0 or state.gn <= tol or it == cfg.max_outer_iters)
        records.append(IterationRecord(
            it, state.g, state.gn, move.step_size, time.perf_counter() - t0,
            gap_fn(state.point, state.cert).gap if want_gap else None,
            move.tcg_steps, move.tcg_stop))
        if move.stop == NUMERICAL_ERROR or not np.isfinite([state.g, state.gn]).all():
            status = NUMERICAL_ERROR
            break
        if state.gn <= tol:
            status = CONVERGED
            break
        if move.stop is not None:
            status = move.stop
            break
    return SolveResult(state.point, state.cert, records, status)


def solve_cg(problem, u0: ManifoldPoint, cfg: SolverConfig) -> SolveResult:
    """Polak-Ribiere+ conjugate gradient with Armijo backtracking.

    Falls back to the steepest-descent direction once when the line search
    exhausts its backtracks, and reports "stalled" if that fails as well.
    A non-finite g at a trial point ends the solve as "numerical_error".
    """
    prev = prev_dir = prev_alpha = None  # the last accepted step's start, direction, size

    def step(s: _State):
        nonlocal prev, prev_dir, prev_alpha
        if prev_dir is None:
            direction = -s.grad
        else:
            beta = max(0.0, inner_product(s.grad, s.grad - transport(s.point, prev.grad))
                       / (prev.gn * prev.gn))
            direction = -s.grad + beta * transport(s.point, prev_dir)
            if inner_product(s.grad, direction) >= -1e-12 * s.gn * max(direction.norm, 1e-300):
                direction = -s.grad
        for _ in range(2):
            slope = inner_product(s.grad, direction)
            if prev_alpha is None:
                alpha = 1.0 / max(s.gn, 1e-300)
            else:
                # first trial: twice the step matching the previous decrease
                # on the linear model, capped by doubling the last accepted step
                alpha = 2.0 * prev_alpha
                decrease = prev.g - s.g
                if decrease > 0 and slope < 0:
                    alpha = min(alpha, 2.02 * decrease / (-slope))
            for _ in range(MAX_LINE_SEARCH):
                candidate = retract(s.point, direction, alpha)
                g_new, cert_new = problem.evaluate_g(candidate)
                if not np.isfinite(g_new):
                    return _Move(s, stop=NUMERICAL_ERROR)
                if g_new <= s.g + ARMIJO_C1 * alpha * slope:
                    prev, prev_dir, prev_alpha = s, direction, alpha
                    return _Move(_evaluate(problem, candidate, g_new, cert_new), alpha)
                alpha *= ARMIJO_BACKTRACK
            direction = -s.grad
            prev_alpha = None
        return None

    return _minimize(problem, u0, cfg, step)


def _truncated_cg(grad: TangentVector, hess, radius: float, max_iters: int):
    """Steihaug-Toint CG on the model <grad, xi> + <xi, H xi>/2, ||xi|| <= radius.

    Returns (step, stop, steps, model_dec): steps counts Hessian-vector
    products, stop is one of TCG_STOP_REASONS, and model_dec is the model
    decrease -(<grad, xi> + <xi, H xi>/2) at the step, read off the residual
    r = grad + H xi that CG carries as -(<grad, xi> + <r, xi>)/2, so it costs
    no further product.  The rules, checked in each CG step:

    - negative_curvature: the search direction p has <p, H p> <= 0; the
      step follows p to the boundary;
    - boundary: the next iterate would leave the trust region; the step
      stops on the boundary along p;
    - residual: the residual norm reached gn * min(TCG_KAPPA, gn**TCG_THETA);
    - stalled: the stall rule above TCG_STALL_WINDOW fired; the current
      iterate is returned, the best so far as CG iterates decrease the model;
    - cap: max_iters steps ran out;
    - non_finite: a curvature <p, H p> is not finite, or the product raised
      LinAlgError; the step and model_dec returned must not be used.
    """

    def boundary_tau(xi, p):
        # positive root of ||xi + tau p|| = radius
        a = inner_product(p, p)
        b = 2.0 * inner_product(xi, p)
        c = inner_product(xi, xi) - radius * radius
        disc = max(b * b - 4.0 * a * c, 0.0)
        return (-b + np.sqrt(disc)) / (2.0 * a)

    def done(xi, res, stop, steps):
        return xi, stop, steps, -0.5 * (inner_product(grad, xi) + inner_product(res, xi))

    gn = grad.norm
    xi = 0.0 * grad
    res = grad
    p = -grad
    rr = gn * gn
    stop_res = gn * min(TCG_KAPPA, gn ** TCG_THETA)
    best, since_best = gn, 0
    for step in range(1, max_iters + 1):
        try:
            hp = hess(p)
        except np.linalg.LinAlgError:
            return xi, TCG_NON_FINITE, step, np.nan
        curv = inner_product(p, hp)
        if not np.isfinite(curv):
            return xi, TCG_NON_FINITE, step, np.nan
        if curv <= 0:
            tau = boundary_tau(xi, p)
            return done(xi + tau * p, res + tau * hp, TCG_NEGATIVE_CURVATURE, step)
        alpha = rr / curv
        xi_next = xi + alpha * p
        if np.sqrt(inner_product(xi_next, xi_next)) >= radius:
            tau = boundary_tau(xi, p)
            return done(xi + tau * p, res + tau * hp, TCG_BOUNDARY, step)
        xi = xi_next
        res = res + alpha * hp
        rr_new = inner_product(res, res)
        res_norm = np.sqrt(rr_new)
        if res_norm <= stop_res:
            return done(xi, res, TCG_RESIDUAL, step)
        if res_norm < TCG_STALL_FACTOR * best:
            best, since_best = res_norm, 0
        else:
            since_best += 1
            if since_best >= TCG_STALL_WINDOW:
                return done(xi, res, TCG_STALLED, step)
        p = -res + (rr_new / rr) * p
        rr = rr_new
    return done(xi, res, TCG_CAP, max_iters)


def solve_tr(problem, u0: ManifoldPoint, cfg: SolverConfig) -> SolveResult:
    """Riemannian trust region with a truncated-CG subproblem, unit step size.

    Candidates are accepted on the usual ratio test (rho > 0.1), with the
    model decrease that truncated CG returns; the radius starts at
    TR_INITIAL_RADIUS, shrinks at rho < 0.25, grows up to TR_MAX_RADIUS after
    boundary hits with rho > 0.75, and the step stalls once it is below
    1e-16.  A non-finite candidate g, or a truncated-CG non_finite stop (a
    non-finite curvature, or a LinAlgError from the problem's Hessian
    system), is a numerical error at the unchanged point.  Each record
    carries its truncated-CG step count and stop reason.
    """
    radius = TR_INITIAL_RADIUS
    max_tcg = u0.d * u0.r

    def step(s: _State):
        nonlocal radius

        def hess(tv):
            return riemannian_hess_vec(
                s.point, s.euc_grad, problem.euc_hess_vec(s.point, tv.xi, s.cert), tv)

        xi, tcg_stop, tcg_steps, model_dec = _truncated_cg(s.grad, hess, radius, max_tcg)
        if tcg_stop == TCG_NON_FINITE:
            return _Move(s, stop=NUMERICAL_ERROR, tcg_steps=tcg_steps, tcg_stop=tcg_stop)
        step_norm = xi.norm
        moved = s
        if model_dec > 0 and step_norm > 0:
            candidate = retract(s.point, xi, 1.0)
            g_new, cert_new = problem.evaluate_g(candidate)
            if not np.isfinite(g_new):
                return _Move(s, stop=NUMERICAL_ERROR, tcg_steps=tcg_steps, tcg_stop=tcg_stop)
            # Regularize the ratio so floating-point cancellation in g - g_new
            # cannot collapse the radius once both decreases reach noise level.
            rho_reg = 1e3 * np.finfo(float).eps * max(1.0, abs(s.g))
            rho = (s.g - g_new + rho_reg) / (model_dec + rho_reg)
            if rho > 0.1:
                moved = _evaluate(problem, candidate, g_new, cert_new)
            if rho < 0.25:
                radius *= 0.25
            elif rho > 0.75 and tcg_stop in (TCG_BOUNDARY, TCG_NEGATIVE_CURVATURE):
                radius = min(2.0 * radius, TR_MAX_RADIUS)
        else:
            radius *= 0.25
        return _Move(moved, step_norm if moved is not s else 0.0,
                     STALLED if radius < 1e-16 else None, tcg_steps, tcg_stop)

    return _minimize(problem, u0, cfg, step)


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
