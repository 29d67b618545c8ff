"""Geometry of the unit-Frobenius-norm matrix manifold.

Points are d x r matrices U with ||U||_F = 1, viewed as a quotient under
right multiplication by r x r orthogonal matrices (U and UQ parameterize the
same unit-trace PSD matrix UU^T).  This module provides the tangent and
horizontal projectors, the renormalization retraction, and the lifts turning
Euclidean derivatives into Riemannian ones.  All operations are pure.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

# Absolute tolerances below are scaled by the Frobenius norm of the input.
TANGENCY_TOL = 1e-10
NORM_TOL = 1e-12
# Eigenvalue-sum floor for the r x r Lyapunov solve at rank-deficient U.
LYAPUNOV_FLOOR = 1e-14


class BasePointMismatchError(ValueError):
    """Raised when combining tangent vectors anchored at different points."""


def _checksum(a: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(a).tobytes())


@dataclass(frozen=True)
class ManifoldPoint:
    """A d x r matrix with unit Frobenius norm.

    Use :func:`manifold_point` to construct; it validates the norm, stores a
    read-only copy of the array, and records its checksum, which tangent
    vectors carry to show the point they belong to.
    """

    u: np.ndarray
    checksum: int = field(repr=False, default=0)

    @property
    def d(self) -> int:
        return self.u.shape[0]

    @property
    def r(self) -> int:
        return self.u.shape[1]


@dataclass(frozen=True)
class TangentVector:
    """Search direction at a base point, tracked by the point's checksum."""

    xi: np.ndarray
    base_checksum: int = field(repr=False)

    def __add__(self, other: "TangentVector") -> "TangentVector":
        _check_same_base(self, other)
        return TangentVector(self.xi + other.xi, self.base_checksum)

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        _check_same_base(self, other)
        return TangentVector(self.xi - other.xi, self.base_checksum)

    def __mul__(self, a: float) -> "TangentVector":
        return TangentVector(self.xi * a, self.base_checksum)

    __rmul__ = __mul__

    def __neg__(self) -> "TangentVector":
        return self * (-1.0)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.xi))


def _check_same_base(a: TangentVector, b: TangentVector) -> None:
    if a.base_checksum != b.base_checksum:
        raise BasePointMismatchError(
            "tangent vectors live at different base points")


def _check_base(point: ManifoldPoint, tv: TangentVector) -> None:
    if tv.base_checksum != point.checksum:
        raise BasePointMismatchError(
            "tangent vector does not belong to this base point")


def manifold_point(u: np.ndarray) -> ManifoldPoint:
    """Wrap and validate a candidate point.

    Raises ValueError unless u is d x r with d >= r >= 1 and unit Frobenius
    norm (within 1e-12 scaled by matrix size).
    """
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {u.shape}")
    d, r = u.shape
    if not (d >= r >= 1):
        raise ValueError(f"need d >= r >= 1, got d={d}, r={r}")
    nrm = np.linalg.norm(u)
    if abs(nrm - 1.0) > NORM_TOL * max(1.0, np.sqrt(d * r)):
        raise ValueError(f"||U||_F = {nrm!r}, expected 1")
    u = u.copy()
    u.flags.writeable = False
    return ManifoldPoint(u, _checksum(u))


def normalized_point(u: np.ndarray) -> ManifoldPoint:
    """Scale an arbitrary nonzero matrix onto the manifold."""
    u = np.asarray(u, dtype=float)
    nrm = np.linalg.norm(u)
    if nrm == 0.0:
        raise ValueError("cannot normalize the zero matrix")
    return manifold_point(u / nrm)


def random_point(d: int, r: int, rng: np.random.Generator) -> ManifoldPoint:
    return normalized_point(rng.standard_normal((d, r)))


def project_tangent(point: ManifoldPoint, z: np.ndarray) -> TangentVector:
    """Project an ambient d x r matrix onto the tangent space at U.

    The tangent space is {Z : trace(Z^T U) = 0}; the projector removes the
    component along U itself.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != point.u.shape:
        raise ValueError(f"shape mismatch: {z.shape} vs {point.u.shape}")
    xi = z - np.tensordot(z, point.u, axes=2) * point.u
    return TangentVector(xi, point.checksum)


def _solve_lyapunov(gram: np.ndarray, rhs_skew: np.ndarray) -> np.ndarray:
    # Solve (U^T U) L + L (U^T U) = R for skew R via the eigenbasis of the
    # Gram matrix; pairwise eigenvalue sums are floored so rank-deficient U
    # degrades gracefully instead of dividing by zero.
    w, q = np.linalg.eigh(gram)
    r_t = q.T @ rhs_skew @ q
    denom = w[:, None] + w[None, :]
    denom = np.where(np.abs(denom) < LYAPUNOV_FLOOR, LYAPUNOV_FLOOR, denom)
    return q @ (r_t / denom) @ q.T


def project_horizontal(point: ManifoldPoint, tv: TangentVector) -> TangentVector:
    """Remove the vertical component {U L : L skew} from a tangent vector.

    The correction U*Lambda uses the Lyapunov equation
    (U^T U) Lambda + Lambda (U^T U) = U^T xi - xi^T U.
    """
    _check_base(point, tv)
    u = point.u
    skew = u.T @ tv.xi - tv.xi.T @ u
    lam = _solve_lyapunov(u.T @ u, skew)
    xi = tv.xi - u @ lam
    return TangentVector(xi, point.checksum)


def retract(point: ManifoldPoint, tv: TangentVector, step: float = 1.0) -> ManifoldPoint:
    """Move from U along step*xi and renormalize back onto the manifold.

    For tangent xi, ||U + a*xi||^2 = 1 + a^2 ||xi||^2 >= 1, so the
    renormalization is always well defined.
    """
    _check_base(point, tv)
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    moved = point.u + step * tv.xi
    nrm = np.linalg.norm(moved)
    assert nrm > 0.0, "retraction hit the zero matrix; xi was not tangent"
    u = moved / nrm
    u.flags.writeable = False
    return ManifoldPoint(u, _checksum(u))


def riemannian_gradient(point: ManifoldPoint, euc_grad: np.ndarray) -> TangentVector:
    """Lift the Euclidean gradient: grad f = tangent projection of nabla f."""
    return project_tangent(point, euc_grad)


def riemannian_hess_vec(point: ManifoldPoint, euc_grad: np.ndarray,
                        euc_hess_vec: np.ndarray, tv: TangentVector) -> TangentVector:
    """Riemannian Hessian along a horizontal direction.

    euc_hess_vec must be the directional derivative of the Euclidean
    gradient along tv.xi, supplied by the problem at hand.  The raw
    second-order expression is projected to the tangent space and then to
    the horizontal space, so the output is a valid quotient direction.
    """
    _check_base(point, tv)
    u, xi = point.u, tv.xi
    g_dot_u = np.tensordot(euc_grad, u, axes=2)
    mixed = np.tensordot(euc_grad, xi, axes=2) + np.tensordot(euc_hess_vec, u, axes=2)
    raw = euc_hess_vec - g_dot_u * xi - mixed * u
    return project_horizontal(point, project_tangent(point, raw))


def inner_product(a: TangentVector, b: TangentVector) -> float:
    """Riemannian metric: the Frobenius inner product trace(xi^T eta)."""
    _check_same_base(a, b)
    return float(np.tensordot(a.xi, b.xi, axes=2))


def is_tangent(point: ManifoldPoint, tv: TangentVector) -> bool:
    scale = max(1.0, float(np.linalg.norm(tv.xi)))
    return abs(np.tensordot(tv.xi, point.u, axes=2)) <= TANGENCY_TOL * scale


def is_horizontal(point: ManifoldPoint, tv: TangentVector) -> bool:
    a = point.u.T @ tv.xi
    scale = max(1.0, float(np.linalg.norm(tv.xi)))
    return bool(np.linalg.norm(a - a.T) <= TANGENCY_TOL * scale) and is_tangent(point, tv)


def random_horizontal(point: ManifoldPoint, rng: np.random.Generator,
                      unit: bool = True) -> TangentVector:
    """Random horizontal direction, optionally normalized to unit norm."""
    tv = project_horizontal(point, project_tangent(
        point, rng.standard_normal(point.u.shape)))
    if unit and tv.norm > 0:
        tv = tv * (1.0 / tv.norm)
    return tv


def transport(new_point: ManifoldPoint, tv: TangentVector) -> TangentVector:
    """Projection-based vector transport onto the space at a new point."""
    return project_horizontal(new_point, project_tangent(new_point, tv.xi))
