"""Inner dual solvers against closed forms and independent oracles."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.sparse as sp
import scipy.sparse.linalg as spla

from spectralr import inner, solvers
from spectralr.adapters import HankelAdapter, HankelProblem, make_completion_adapter
from spectralr.data import (
    antidiag_counts,
    antidiag_sums,
    hankel_matrix,
    synth_completion,
)
from spectralr.inner import (
    DualCertificate,
    RegularizationParams,
    apply_shifted_inverse,
    duality_gap,
    nuclear_norm_sq,
    primal_objective,
    reconstruct_primal,
    solve_column_box_cd,
    solve_column_nonneg,
    solve_column_square,
    solve_hankel,
    variational_theta_residual,
)
from spectralr.spectrahedron import random_point


def rng(seed=0):
    return np.random.default_rng(seed)


def dense_hankel_gram_apply(u, c, counts, d, t, z):
    """(I/(2C) + H* U U^T H) z through the d x t equal-share matrix of z;
    the oracle of the FFT apply."""
    s = hankel_matrix(z / counts, d, t)
    return antidiag_sums(u @ (u.T @ s)) / counts + z / (2.0 * c)


def box_cd_objective(u_rows, y, eps, z) -> float:
    """Box-dual objective <y, z> - eps*||z||_1 - 0.5*||B^T z||^2."""
    return float(y @ z - eps * np.sum(np.abs(z)) - 0.5 * np.sum((u_rows.T @ z) ** 2))


def ista_box_oracle(u_rows, y, c, eps, iters=100000):
    """Long-run proximal gradient on the box-constrained dual; the oracle
    stays independent of the active-set solver it checks.  Runs in
    blocks until the iterate stops moving (or the budget is exhausted)."""
    n = y.size
    z = np.zeros(n)
    if n == 0:
        return z
    lip = max(np.linalg.norm(u_rows @ u_rows.T, 2), 1e-12)
    step = 1.0 / lip
    block = 2000
    done = 0
    while done < iters:
        z_before = z.copy()
        for _ in range(min(block, iters - done)):
            grad = y - u_rows @ (u_rows.T @ z)
            w = z + step * grad
            w = np.sign(w) * np.maximum(np.abs(w) - step * eps, 0.0)
            z = np.clip(w, -c, c)
        done += block
        if np.max(np.abs(z - z_before)) <= 1e-13:
            break
    return z


def nonneg_enum_oracle(u, omega, y, c):
    """Active-set enumeration over all 2^d sign patterns of s."""
    from itertools import combinations

    d = u.shape[0]
    u_rows = u[omega]
    best = (-np.inf, None, None)
    for k in range(d + 1):
        for f_tuple in combinations(range(d), k):
            f = list(f_tuple)
            n, m = y.size, len(f)
            kkt = np.zeros((n + m, n + m))
            kkt[:n, :n] = np.eye(n) / (2 * c) + u_rows @ u_rows.T
            if m:
                kkt[:n, n:] = u_rows @ u[f].T
                kkt[n:, :n] = u[f] @ u_rows.T
                kkt[n:, n:] = u[f] @ u[f].T
            rhs = np.concatenate([y, np.zeros(m)])
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            z, sf = sol[:n], sol[n:]
            if m and np.min(sf) < -1e-10:
                continue
            s = np.zeros(d)
            if m:
                s[f] = np.maximum(sf, 0.0)
            mr = (u_rows.T @ z if n else np.zeros(u.shape[1])) + u.T @ s
            grad_s = -(u @ mr)
            off = s <= 1e-12
            if np.any(off) and np.max(grad_s[off]) > 1e-8:
                continue
            obj = (y @ z - z @ z / (4 * c) if n else 0.0) - 0.5 * mr @ mr
            if obj > best[0]:
                best = (obj, z, s)
    return best


class TestRegularizationParams:
    @pytest.mark.parametrize("field, value", [
        ("c", float("nan")),
        ("c", float("inf")),
        ("c", 0.0),
        ("epsilon", float("nan")),
        ("epsilon", -0.1),
        ("inner_tol", -1.0),
        ("inner_tol", float("inf")),
        ("inner_max_iters", 0),
        ("inner_max_iters", 2.5),
    ])
    def test_bad_field_named(self, field, value):
        kwargs = {"c": 1.0, field: value}
        with pytest.raises(ValueError, match=f"^{field} "):
            RegularizationParams(**kwargs)

    def test_boundary_values_accepted(self):
        params = RegularizationParams(c=1e300, epsilon=0.0, inner_tol=0.0,
                                      inner_max_iters=np.int64(1))
        assert (params.inner_tol, params.inner_max_iters) == (0.0, 1)


class TestSquareLoss:
    def test_no_overlap_gives_scaled_data(self):
        y = np.array([1.0, -2.0, 0.5])
        z, _ = solve_column_square(np.zeros((3, 2)), y, c=3.0)
        assert np.allclose(z, 6.0 * y)

    def test_single_row_scalar_formula(self):
        u_row = np.array([[0.3, -0.4]])
        q = 0.09 + 0.16
        y = np.array([2.0])
        z, _ = solve_column_square(u_row, y, c=1.5)
        assert z[0] == pytest.approx(2.0 / (1.0 / 3.0 + q), rel=1e-12)

    def test_woodbury_matches_dense_solve(self):
        g = rng(1)
        u_rows = g.standard_normal((7, 2))
        y = g.standard_normal(7)
        c = 0.8
        z, _ = solve_column_square(u_rows, y, c)
        dense = np.linalg.solve(np.eye(7) / (2 * c) + u_rows @ u_rows.T, y)
        assert np.allclose(z, dense, atol=1e-10)

    def test_kkt_residual(self):
        g = rng(2)
        u_rows = g.standard_normal((5, 3))
        y = g.standard_normal(5)
        c = 2.0
        z, _ = solve_column_square(u_rows, y, c)
        resid = y - z / (2 * c) - u_rows @ (u_rows.T @ z)
        assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(y)

    def test_empty_column(self):
        z, _ = solve_column_square(np.zeros((0, 2)), np.empty(0), c=1.0)
        assert z.size == 0


class TestBoxCoordinateDescent:
    def test_scalar_clip(self):
        u = np.array([[0.5]])
        z, _ = solve_column_box_cd(u, np.array([3.0]), c=1.0, eps=0.0,
                                   tol=1e-14, max_sweeps=100)
        assert z[0] == pytest.approx(min(3.0 / 0.25, 1.0))

    def test_zero_data_gives_zero(self):
        g = rng(3)
        z, _ = solve_column_box_cd(g.standard_normal((5, 2)), np.zeros(5),
                                   c=1.0, eps=0.0, tol=1e-14, max_sweeps=100)
        assert np.allclose(z, 0.0)

    def test_zero_row_saturates(self):
        u = np.zeros((2, 2))
        z, _ = solve_column_box_cd(u, np.array([0.5, -0.2]), c=1.5, eps=0.0,
                                   tol=1e-14, max_sweeps=10)
        assert np.allclose(z, [1.5, -1.5])

    def test_matches_projected_gradient_oracle(self):
        g = rng(4)
        u_rows = g.standard_normal((4, 2))
        y = g.standard_normal(4)
        z, _ = solve_column_box_cd(u_rows, y, c=1.0, eps=0.0,
                                   tol=1e-13, max_sweeps=100000)
        z_or = ista_box_oracle(u_rows, y, 1.0, 0.0, iters=100000)
        assert np.max(np.abs(z - z_or)) < 1e-6

    def test_sweeps_never_decrease_objective(self):
        g = rng(5)
        u_rows = g.standard_normal((6, 2))
        y = g.standard_normal(6)
        prev = -np.inf
        for sweeps in range(1, 10):
            z, _ = solve_column_box_cd(u_rows, y, c=1.0, eps=0.1,
                                       tol=0.0, max_sweeps=sweeps)
            val = box_cd_objective(u_rows, y, 0.1, z)
            assert val >= prev - 1e-12
            prev = val


def box_kkt_violation(u_rows, y, c, eps, z):
    """Largest violation of the box-dual optimality conditions at z."""
    grad = y - u_rows @ (u_rows.T @ z)
    viol = np.maximum(np.abs(z) - c, 0.0)
    viol = np.where(z == c, np.maximum(eps - grad, 0.0), viol)
    viol = np.where(z == -c, np.maximum(grad + eps, 0.0), viol)
    viol = np.where((z > 0) & (z < c), np.abs(grad - eps), viol)
    viol = np.where((z < 0) & (z > -c), np.abs(grad + eps), viol)
    viol = np.where(z == 0, np.maximum(np.abs(grad) - eps, 0.0), viol)
    return float(np.max(viol))


class TestBoxKKT:
    # Degenerate shapes: n well above r, repeated rows and zero rows make the
    # free block singular, which is where the solver has to pivot.  Warm
    # starts put coordinates on both bounds, at zero and inside the box.
    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(st.integers(1, 30), st.integers(1, 3), st.floats(0.05, 10.0),
           st.sampled_from([0.0, 0.2]), st.sampled_from(["plain", "repeat", "zero"]),
           st.booleans(), st.integers(0, 2**32 - 1))
    def test_converges_to_kkt_point(self, n, r, c, eps, shape, warm, seed):
        g = rng(seed)
        u_rows = g.standard_normal((n, r)) / np.sqrt(n)
        if shape == "repeat":
            u_rows = u_rows[g.integers(0, max(1, n // 3), size=n)]
        elif shape == "zero":
            u_rows[g.random(n) < 0.3] = 0.0
        y = g.standard_normal(n)
        z0 = None
        if warm:
            z0 = g.uniform(-1.5 * c, 1.5 * c, size=n)
            z0[g.random(n) < 0.2] = 0.0
        tol = 1e-10
        z, converged = solve_column_box_cd(u_rows, y, c, eps, tol, 10 * n + 50, z0)
        assert converged
        assert box_kkt_violation(u_rows, y, c, eps, z) <= tol * max(1.0, np.max(np.abs(y)))


class TestEpsSvr:
    def test_eps_zero_bit_identical_to_l1(self):
        g = rng(6)
        for _ in range(10):
            n = int(g.integers(1, 8))
            u_rows = g.standard_normal((n, 2))
            y = g.standard_normal(n)
            z_l1, _ = solve_column_box_cd(u_rows, y, 1.2, 0.0, 1e-12, 500)
            z_svr, _ = solve_column_box_cd(u_rows, y, 1.2, 0.0, 1e-12, 500)
            assert np.array_equal(z_l1, z_svr)

    def test_small_targets_give_zero(self):
        g = rng(7)
        u_rows = g.standard_normal((5, 2))
        y = 0.05 * g.uniform(-1, 1, size=5)
        z, _ = solve_column_box_cd(u_rows, y, c=1.0, eps=0.1,
                                   tol=1e-14, max_sweeps=100)
        assert np.allclose(z, 0.0)

    def test_primal_dual_gap(self):
        # primal: min_a 0.5||a||^2 + C sum max(|y_i - u_i.a| - eps, 0)
        g = rng(8)
        n, r = 6, 2
        u_rows = g.standard_normal((n, r))
        y = g.standard_normal(n)
        c, eps = 1.0, 0.15
        z, _ = solve_column_box_cd(u_rows, y, c, eps, 1e-13, 100000)
        dual = float(y @ z - eps * np.sum(np.abs(z))
                     - 0.5 * np.sum((u_rows.T @ z) ** 2))

        def primal(a):
            resid = np.abs(y - u_rows @ a) - eps
            return 0.5 * a @ a + c * np.sum(np.maximum(resid, 0.0))

        a = np.zeros(r)
        best = primal(a)
        step = 0.05
        for k in range(200000):
            sub = np.sign(u_rows @ a - y) * (np.abs(y - u_rows @ a) > eps)
            grad = a + c * (u_rows.T @ sub)
            a = a - step / np.sqrt(k + 1.0) * grad
            best = min(best, primal(a))
        assert abs(best - dual) < 1e-4 * max(1.0, abs(dual))

    def test_svr_matches_oracle(self):
        g = rng(9)
        u_rows = g.standard_normal((5, 2))
        y = g.standard_normal(5)
        z, _ = solve_column_box_cd(u_rows, y, 0.9, 0.2, 1e-13, 100000)
        z_or = ista_box_oracle(u_rows, y, 0.9, 0.2, iters=100000)
        assert np.max(np.abs(z - z_or)) < 1e-6


class TestNonneg:
    def test_inactive_constraint_reduces_to_square(self):
        g = rng(10)
        r = 2
        u = np.abs(g.standard_normal((4, r)))
        u /= np.linalg.norm(u)
        omega = np.arange(4)
        y = np.abs(g.standard_normal(4)) + 1.0
        z, s, _, ok = solve_column_nonneg(u, omega, y, c=1.0, tol=1e-12,
                                          max_iters=20000)
        # completion of positive data on a positive frame stays positive
        w_col = u @ (u[omega].T @ z + u.T @ s)
        if np.min(u @ (u[omega].T @ solve_column_square(u[omega], y, 1.0)[0])) >= 0:
            assert np.allclose(s, 0.0, atol=1e-8)
            z_sq, _ = solve_column_square(u[omega], y, 1.0)
            assert np.allclose(z, z_sq, atol=1e-8)
        assert ok

    def test_matches_enumeration_oracle_active_case(self):
        g = rng(11)
        u = g.standard_normal((3, 1))
        u /= np.linalg.norm(u)
        omega = np.array([0, 1, 2])
        y = g.standard_normal(3)
        c = 1.0
        z, s, _, _ = solve_column_nonneg(u, omega, y, c, 1e-12, 50000)
        obj = y @ z - z @ z / (4 * c) - 0.5 * np.sum((u[omega].T @ z + u.T @ s) ** 2)
        obj_or, z_or, s_or = nonneg_enum_oracle(u, omega, y, c)
        assert obj == pytest.approx(obj_or, rel=1e-8, abs=1e-8)
        # some coordinate must be active when the plain solve goes negative
        z_sq, _ = solve_column_square(u[omega], y, c)
        if np.min(u @ (u[omega].T @ z_sq)) < -1e-8:
            assert np.max(s) > 0.0

    def test_zero_data(self):
        u = rng(12).standard_normal((4, 2))
        u /= np.linalg.norm(u)
        z, s, _, ok = solve_column_nonneg(u, np.arange(4), np.zeros(4), 1.0,
                                          1e-12, 1000)
        assert np.allclose(z, 0.0, atol=1e-12) and np.allclose(s, 0.0, atol=1e-12)
        assert ok

    @settings(deadline=None, max_examples=150, derandomize=True)
    @given(st.integers(1, 6), st.integers(1, 3), st.floats(-1.0, 4.0),
           st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_exact_against_enumeration(self, d, r, log_c, nonneg_u, nonneg_y, seed):
        g = rng(seed)
        u = g.standard_normal((d, r))
        u = np.abs(u) if nonneg_u else u
        u /= np.linalg.norm(u)
        omega = np.sort(g.permutation(d)[:int(g.integers(0, d + 1))])
        y = g.standard_normal(omega.size)
        y = np.abs(y) if nonneg_y else y
        c, tol = 10.0 ** log_c, 1e-10
        z, s, _, ok = solve_column_nonneg(u, omega, y, c, tol, 1000)
        assert ok
        assert np.all(s >= 0.0)
        bz, us = u[omega].T @ z, u.T @ s
        kkt = np.max(np.abs(np.minimum(s, u @ (bz + us))))
        assert kkt <= tol * max(1.0, np.linalg.norm(bz) + np.linalg.norm(us))
        obj = y @ z - z @ z / (4 * c) - 0.5 * np.sum((bz + us) ** 2)
        obj_or, _, _ = nonneg_enum_oracle(u, omega, y, c)
        assert abs(obj - obj_or) <= 1e-9 * max(1.0, abs(obj_or))

    def test_iteration_cap_returns_feasible_zero(self):
        g = rng(0)
        u = g.standard_normal((5, 2))
        u /= np.linalg.norm(u)
        omega = np.array([0, 2, 4])
        y = 3.0 * g.standard_normal(3)
        z, s, factor, ok = solve_column_nonneg(u, omega, y, 1.0, 1e-10, 1000)
        assert ok and np.count_nonzero(s) == 2
        # two positive s take nnls more than one iteration
        z, s, factor, ok = solve_column_nonneg(u, omega, y, 1.0, 1e-10, 1)
        assert not ok
        assert np.array_equal(s, np.zeros(5))
        assert np.array_equal(z, apply_shifted_inverse(u[omega], factor, 1.0, y))

    def test_package_import_leaves_scipy_optimize_unloaded(self):
        # scipy.optimize costs about 15 MiB of resident memory, so only a
        # nonnegative dual solve may load it.
        import os
        import subprocess
        import sys

        import spectralr

        # the child imports the same package as this process
        env = {**os.environ,
               "PYTHONPATH": os.path.dirname(os.path.dirname(spectralr.__file__))}
        code = ("import sys, spectralr, spectralr.cli, spectralr.inner, "
                "spectralr.adapters, spectralr.solvers; "
                "print('scipy.optimize' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "False"


HANKEL_SHAPES = [(1, 1), (1, 5), (2, 2), (3, 4), (20, 20), (300, 300)]


class TestHankelInner:
    def test_fft_len_is_smallest_5_smooth(self):
        def smooth(m):
            for p in (2, 3, 5):
                while m % p == 0:
                    m //= p
            return m == 1

        for n in range(1, 2100):
            nfft = inner.hankel_fft_len(n)
            assert nfft >= n and smooth(nfft)
            assert not any(smooth(m) for m in range(n, nfft))
        assert inner.hankel_fft_len(599) == 600

    @pytest.mark.parametrize("d, t", HANKEL_SHAPES)
    @pytest.mark.parametrize("r", [1, 3, 8])
    def test_fft_gram_apply_matches_dense(self, d, t, r):
        # 300 x 300 has n = 599, a prime, so the transforms are padded; a
        # large C leaves the Gram term, not z / (2C), to be compared
        g = rng(d * 1000 + t * 10 + r)
        u = g.standard_normal((d, r))
        z = g.standard_normal(d + t - 1)
        counts = antidiag_counts(d, t)
        ref = dense_hankel_gram_apply(u, 1e8, counts, d, t, z)
        got = inner.hankel_gram_apply(u, 1e8, counts, d, t, z)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("d, t", HANKEL_SHAPES)
    @pytest.mark.parametrize("r", [1, 3, 8])
    def test_fft_hessian_matches_dense(self, d, t, r):
        # The adapter's Hessian-vector product by FFT against the dense
        # forms: its right-hand side -antidiag_sums(V K + U V^T M) / counts,
        # and the assembly from the d x t Mdot of the directional solve.
        g = rng(d * 1000 + t * 10 + r)
        adapter = HankelAdapter(HankelProblem(g.standard_normal(d + t - 1), d, t),
                                RegularizationParams(c=1.0, inner_tol=1e-12,
                                                     inner_max_iters=5000))
        u = g.standard_normal((d, r))
        u /= np.linalg.norm(u)
        v = g.standard_normal((d, r))
        _, cert = adapter.evaluate_g(u)
        solves = []
        directional = inner.hankel_directional

        def spy(*args):
            solves.append((args[2], directional(*args)))
            return solves[-1][1]

        with mock.patch.object(inner, "hankel_directional", spy):
            hv = adapter.euc_hess_vec(u, v, cert)
        (rhs, zdot), = solves
        counts = antidiag_counts(d, t)
        rhs_ref = -antidiag_sums(v @ cert.k + u @ (v.T @ cert.m)) / counts
        assert np.linalg.norm(rhs - rhs_ref) <= 1e-12 * np.linalg.norm(rhs_ref)
        hv_ref = inner.assemble_hess_vec(u, v, cert, hankel_matrix(zdot / counts, d, t))
        assert np.linalg.norm(hv - hv_ref) <= 1e-12 * np.linalg.norm(hv_ref)

    def test_directional_residual_and_one_apply_per_step(self, monkeypatch):
        g = rng(24)
        d, t, c, tol = 4, 6, 3.0, 1e-10
        u = g.standard_normal((d, 2))
        u /= np.linalg.norm(u)
        rhs = g.standard_normal(d + t - 1)
        counts = antidiag_counts(d, t)
        apply = inner.hankel_gram_apply
        calls = []
        monkeypatch.setattr(inner, "hankel_gram_apply",
                            lambda *args: calls.append(1) or apply(*args))
        z = inner.hankel_directional(u, c, rhs, tol, 1000, t, scale=0.5)
        target = tol * np.linalg.norm(rhs)
        resid = np.linalg.norm(apply(u, c, counts, d, t, z) - rhs)
        assert 0 < len(calls) < 1000
        assert resid <= target
        # A zero start needs no apply for its first residual: with tol = 0
        # every budgeted CG step runs and makes exactly one apply.
        for steps in range(1, 6):
            calls.clear()
            inner.hankel_directional(u, c, rhs, 0.0, steps, t, scale=0.5)
            assert len(calls) == steps

    def test_zero_data(self):
        u = rng(14).standard_normal((3, 2))
        u /= np.linalg.norm(u)
        z, ok = solve_hankel(u, np.zeros(6), c=1.0, tol=1e-12, max_iters=1000, t=4)
        assert np.allclose(z, 0.0) and ok

    def test_scalar_closed_form(self):
        u = np.array([[1.0]])
        y = np.array([0.7])
        c = 2.0
        z, ok = solve_hankel(u, y, c, 1e-14, 100, t=1)
        assert z[0] == pytest.approx(0.7 / (1.0 / (2 * c) + 1.0), rel=1e-10)
        assert ok

    def test_matches_dense_kkt_solve(self):
        # d=2, T=2: the reduced system in z is 3x3, solved densely here
        g = rng(15)
        u = g.standard_normal((2, 2))
        u /= np.linalg.norm(u)
        y = g.standard_normal(3)
        c = 1.0
        counts = np.array([1.0, 2.0, 1.0])
        a = np.zeros((3, 3))
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            a[:, i] = dense_hankel_gram_apply(u, c, counts, 2, 2, e)
        z_dense = np.linalg.solve(a, y)
        z, ok = solve_hankel(u, y, c, 1e-12, 1000, t=2)
        assert np.allclose(z, z_dense, atol=1e-8)
        assert ok

    def test_constraint_satisfied_and_value_monotone(self):
        g = rng(16)
        u = g.standard_normal((3, 2))
        u /= np.linalg.norm(u)
        y = g.standard_normal(6)
        c = 1.0
        counts = inner.np.bincount(
            (np.arange(3)[:, None] + np.arange(4)[None, :]).ravel()).astype(float)

        def value(z):
            s = hankel_matrix(z / counts, 3, 4)
            return z @ y - z @ z / (4 * c) - 0.5 * np.sum((u.T @ s) ** 2)

        prev = -np.inf
        for iters in (1, 2, 4, 8, 32, 128):
            z, _ = solve_hankel(u, y, c, 0.0, iters, t=4)
            s = hankel_matrix(z / counts, 3, 4)
            assert np.allclose(antidiag_sums(s), z, atol=1e-12)
            val = value(z)
            assert val >= prev - 1e-10
            prev = val


class TestMTFLInner:
    def test_orthogonal_features_give_scaled_targets(self):
        y = np.array([1.0, -0.5])
        z, _ = solve_column_square(np.zeros((2, 2)), y, c=2.5)
        assert np.allclose(z, 5.0 * y)

    def test_single_sample_scalar(self):
        g = rng(17)
        xu = g.standard_normal((1, 3))
        y = np.array([1.3])
        c = 1.0
        z, _ = solve_column_square(xu, y, c)
        assert z[0] == pytest.approx(1.3 / (0.5 + xu[0] @ xu[0]), rel=1e-12)

    def test_matches_dense_solve(self):
        g = rng(18)
        x = g.standard_normal((6, 4))
        u = g.standard_normal((4, 2))
        u /= np.linalg.norm(u)
        y = g.standard_normal(6)
        c = 1.1
        z, _ = solve_column_square(x @ u, y, c)
        q = np.eye(6) / (2 * c) + x @ u @ u.T @ x.T
        assert np.allclose(z, np.linalg.solve(q, y), atol=1e-10)


def make_cert(m, u, g_value=1.0):
    """Certificate holding M (sparse or dense) and K = U^T M at u."""
    return DualCertificate(kind="completion", g_value=g_value, m=m, k=u.T @ m, z=None)


class TestGradientAndOperators:
    def test_zero_m_gives_zero_gradient(self):
        m = sp.csc_matrix((np.zeros(6), np.tile([0, 1], 3), [0, 2, 4, 6]), shape=(4, 3))
        u = rng(19).standard_normal((4, 2))
        assert np.allclose(inner.euc_gradient(u, make_cert(m, u)), 0.0)

    def test_rank_one_dense_oracle(self):
        g = rng(20)
        a = g.standard_normal(4)
        b = g.standard_normal(3)
        m = np.outer(a, b)
        u = g.standard_normal((4, 1))
        u /= np.linalg.norm(u)
        got = inner.euc_gradient(u, make_cert(sp.csc_matrix(m), u))
        assert np.allclose(got, -m @ (m.T @ u), atol=1e-12)

    def test_certificate_m_matches_dense(self):
        params = RegularizationParams(c=2.0, epsilon=0.1, inner_tol=1e-12,
                                      inner_max_iters=50000)
        for kind in ("completion", "robust_l1", "robust_eps_svr", "nonneg_completion"):
            nonneg = kind == "nonneg_completion"
            train = synth_completion(8, 7, rank=2, sample_fraction=0.5, seed=3,
                                     nonneg=nonneg).train
            adapter = make_completion_adapter(kind, train, params)
            p = random_point(8, 3, rng(31))
            _, cert = adapter.evaluate_g(p)
            dense = np.zeros((8, 7))
            for t_idx in range(7):
                idx, _ = train.column(t_idx)
                # every kind: one flat z in CSC order
                dense[idx, t_idx] = cert.z[train.indptr[t_idx]:train.indptr[t_idx + 1]]
            if nonneg:
                assert cert.s.nnz > 0
                dense += cert.s.toarray()
            assert sp.isspmatrix_csc(cert.m)
            assert np.array_equal(cert.m.toarray(), dense), kind
            # the nonnegative gradient cancels to about 1e-10 of ||M||_F^2
            assert np.allclose(inner.euc_gradient(p.u, cert), -dense @ (dense.T @ p.u),
                               rtol=1e-12, atol=1e-13 * np.sum(dense ** 2)), kind


class TestDualityGap:
    def test_m_in_range_of_u(self):
        u = np.array([[1.0], [0.0]])
        rep = duality_gap(u, make_cert(np.array([[3.0], [0.0]]), u))
        assert rep.sigma1 == pytest.approx(3.0, abs=1e-10)
        assert rep.gap == pytest.approx(0.0, abs=1e-9)

    def test_m_orthogonal_to_u(self):
        u = np.array([[1.0], [0.0]])
        rep = duality_gap(u, make_cert(np.array([[0.0], [3.0]]), u))
        assert rep.gap == pytest.approx(4.5, abs=1e-9)

    def test_diagonal_example_vs_svd(self):
        u = np.array([[1.0], [0.0]])
        m = np.diag([3.0, 4.0])
        rep = duality_gap(u, make_cert(m, u))
        assert rep.sigma1 == pytest.approx(4.0, abs=1e-10)
        assert rep.gap == pytest.approx((16.0 - 9.0) / 2.0, abs=1e-9)

    def test_sigma1_matches_svd_on_random(self):
        g = rng(22)
        m = g.standard_normal((7, 9))
        u = g.standard_normal((7, 2)) / 10
        rep = duality_gap(u, make_cert(m, u))
        assert rep.sigma1 == pytest.approx(np.linalg.svd(m, compute_uv=False)[0],
                                           rel=1e-10)

    def test_gap_never_below_tolerance(self):
        g = rng(23)
        for seed in range(10):
            gg = np.random.default_rng(seed)
            m = gg.standard_normal((6, 8))
            u = gg.standard_normal((6, 3))
            u /= np.linalg.norm(u)
            rep = duality_gap(u, make_cert(m, u))
            assert rep.gap >= -1e-9


DENSE_MAX = inner.DENSE_SIGMA1_MAX_SIDE


def svd_sigma1_sq(m):
    dense = m.toarray() if sp.issparse(m) else m
    return np.linalg.svd(dense, compute_uv=False)[0] ** 2


class TestTopSingularValue:
    @pytest.mark.parametrize("n", [1, DENSE_MAX - 1, DENSE_MAX, DENSE_MAX + 1])
    @pytest.mark.parametrize("wide", [True, False])
    @pytest.mark.parametrize("fmt", ["csc", "ndarray"])
    def test_matches_svd_on_both_paths(self, monkeypatch, n, wide, fmt):
        g = rng(n)
        m = g.standard_normal((n, n + 9))
        m[g.random(m.shape) < 0.6] = 0.0
        m[0, 0] = 1.0
        if not wide:
            m = m.T
        if fmt == "csc":
            m = sp.csc_matrix(m)
        calls = []
        eigsh = spla.eigsh
        monkeypatch.setattr(spla, "eigsh", lambda *a, **kw: calls.append(1) or eigsh(*a, **kw))
        lam, converged = inner.top_singular_value_sq(m)
        assert converged
        assert lam == pytest.approx(svd_sigma1_sq(m), rel=1e-12)
        # Lanczos runs exactly when the smaller side exceeds the constant
        assert bool(calls) == (n > DENSE_MAX)

    def test_clustered_near_optimal_m(self):
        train = synth_completion(130, 160, rank=3, sample_fraction=0.3, seed=1).train
        adapter = make_completion_adapter(
            "completion", train, RegularizationParams(c=1e4, inner_tol=1e-12))
        u0 = solvers.initialize_point(adapter, 130, 3, 1)
        res = solvers.solve_tr(adapter, u0, solvers.SolverConfig(
            max_outer_iters=20, grad_norm_tol=1e-12))
        m = res.certificate.m
        sv = np.linalg.svd(m.toarray(), compute_uv=False)
        # near the optimum the top r = 3 singular values coincide
        assert sv[2] > (1.0 - 1e-8) * sv[0]
        lam, converged = inner.sigma1_sq_lanczos(m)
        assert converged
        for value in (lam, inner.sigma1_sq_dense(m), inner.top_singular_value_sq(m)[0]):
            assert value == pytest.approx(sv[0] ** 2, rel=1e-12)

    @pytest.mark.parametrize("shape", [(3, 5), (DENSE_MAX + 20, DENSE_MAX + 10)])
    def test_all_zero_m(self, shape):
        stored_zeros = sp.random(*shape, density=0.2, format="csc", random_state=rng(3))
        stored_zeros.data[:] = 0.0
        for m in (np.zeros(shape), sp.csc_matrix(shape), stored_zeros):
            assert inner.top_singular_value_sq(m) == (0.0, True)

    @pytest.mark.parametrize("n", [DENSE_MAX // 2, 2 * DENSE_MAX])
    def test_repeat_calls_bit_identical(self, n):
        m = sp.random(n, n + 50, density=0.1, format="csc", random_state=rng(5))
        first = inner.top_singular_value_sq(m)
        assert inner.top_singular_value_sq(m) == first

    @pytest.mark.parametrize("partial", [[], [2.5]])
    def test_arpack_no_convergence_gives_lower_bound(self, monkeypatch, partial):
        m = rng(6).standard_normal((DENSE_MAX + 1, DENSE_MAX + 5))

        def no_convergence(*args, **kwargs):
            raise spla.ArpackNoConvergence("no convergence", np.array(partial),
                                           np.empty((m.shape[0], len(partial))))

        monkeypatch.setattr(spla, "eigsh", no_convergence)
        lam, converged = inner.top_singular_value_sq(m)
        assert not converged
        assert 0.0 < lam <= svd_sigma1_sq(m)
        if partial:
            assert lam == 2.5
        u = np.eye(m.shape[0], 1)
        assert not duality_gap(u, make_cert(m, u)).power_converged


class TestReconstructAndOracles:
    def test_zero_m_gives_zero_w(self):
        u = rng(24).standard_normal((4, 2))
        u /= np.linalg.norm(u)
        factor = reconstruct_primal(u, make_cert(np.zeros((4, 3)), u, g_value=0.0))
        assert np.allclose(factor.dense(), 0.0)

    def test_rank_bound(self):
        g = rng(25)
        m = g.standard_normal((6, 8))
        u = g.standard_normal((6, 2))
        u /= np.linalg.norm(u)
        w = reconstruct_primal(u, make_cert(m, u, g_value=0.0)).dense()
        assert np.linalg.matrix_rank(w, tol=1e-10) <= 2

    def test_entries_match_dense(self):
        g = rng(26)
        m = g.standard_normal((5, 4))
        u = g.standard_normal((5, 2))
        u /= np.linalg.norm(u)
        factor = reconstruct_primal(u, make_cert(m, u, g_value=0.0))
        w = factor.dense()
        rows = np.array([0, 3, 4])
        cols = np.array([1, 0, 3])
        assert np.allclose(factor.entries(rows, cols), w[rows, cols])

    def test_nuclear_norm_sq_rank_one(self):
        g = rng(27)
        u_vec = g.standard_normal(5)
        v_vec = g.standard_normal(4)
        sigma = 2.7
        w = sigma * np.outer(u_vec / np.linalg.norm(u_vec),
                             v_vec / np.linalg.norm(v_vec))
        assert nuclear_norm_sq(w) == pytest.approx(sigma ** 2, rel=1e-12)

    def test_nuclear_norm_sq_vs_svd_sum(self):
        g = rng(28)
        w = g.standard_normal((5, 4))
        sv = np.linalg.svd(w, compute_uv=False)
        assert nuclear_norm_sq(w) == pytest.approx(np.sum(sv) ** 2, rel=1e-12)

    def test_primal_objective_zero(self):
        from spectralr.data import ColumnSparseMatrix
        m = ColumnSparseMatrix(2, 2)
        params = RegularizationParams(c=1.0)
        assert primal_objective(np.zeros((2, 2)), "completion", m, params) == 0.0

    def test_variational_identity_identity_matrix(self):
        # W = I_2: ||W||_*^2 = 4, Theta = I/2, <2W, W> = 4
        assert variational_theta_residual(np.eye(2)) == pytest.approx(0.0, abs=1e-10)

    def test_variational_identity_rank_one(self):
        g = rng(29)
        w = np.outer(g.standard_normal(4), g.standard_normal(3))
        assert variational_theta_residual(w) <= 1e-8 * nuclear_norm_sq(w)

    def test_variational_identity_random(self):
        g = rng(30)
        w = g.standard_normal((4, 3))
        assert variational_theta_residual(w) <= 1e-8 * nuclear_norm_sq(w)
