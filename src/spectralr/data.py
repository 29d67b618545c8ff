"""Datasets: column-sparse matrices, triplet files, synthetic generators.

Indices are 0-based internally; triplet files on disk are 1-based.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp


# --------------------------------------------------------------------------
# column-sparse storage
# --------------------------------------------------------------------------

@dataclass
class ColumnSparseMatrix:
    """Partially observed d x T matrix in compressed sparse column layout.

    Column t holds the strictly increasing row indices
    indices[indptr[t]:indptr[t + 1]] and the matching values.
    """

    d: int
    t: int
    indptr: np.ndarray | None = None
    indices: np.ndarray | None = None
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.d < 0 or self.t < 0:
            raise ValueError("dimensions must be nonnegative")
        if self.indptr is None:
            self.indptr = np.zeros(self.t + 1, dtype=np.int64)
            self.indices = np.empty(0, dtype=np.int64)
            self.values = np.empty(0, dtype=float)
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        nnz = self.indices.size
        if (self.indptr.shape != (self.t + 1,) or self.indptr[0] != 0
                or self.indptr[-1] != nnz or np.any(np.diff(self.indptr) < 0)):
            raise ValueError("indptr must rise from 0 to nnz over t + 1 entries")
        if self.values.shape != self.indices.shape:
            raise ValueError("indices and values differ in length")
        descending = np.zeros(nnz, dtype=bool)
        descending[1:] = np.diff(self.indices) <= 0
        # the first entry of a column may lie below the last of the one before
        descending[self.indptr[:-1][self.indptr[:-1] < nnz]] = False
        checks = (
            ((self.indices < 0) | (self.indices >= self.d), "row index out of range"),
            (descending, "indices must be strictly increasing"),
            (~np.isfinite(self.values), "non-finite value"),
        )
        for bad, what in checks:
            if np.any(bad):
                col = int(np.searchsorted(self.indptr, np.argmax(bad), side="right")) - 1
                raise ValueError(f"column {col}: {what}")

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def column(self, t_idx: int):
        """(row indices, values) of column t_idx, as views."""
        lo, hi = self.indptr[t_idx], self.indptr[t_idx + 1]
        return self.indices[lo:hi], self.values[lo:hi]

    def to_coo(self):
        """Return (rows, cols, values) arrays in column-major order; rows and
        values are the stored arrays, not copies."""
        cols = np.repeat(np.arange(self.t, dtype=np.int64), np.diff(self.indptr))
        return self.indices, cols, self.values

    def to_scipy(self) -> sp.csc_matrix:
        return sp.csc_matrix((self.values, self.indices, self.indptr), shape=(self.d, self.t))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.d, self.t))
        rows, cols, vals = self.to_coo()
        out[rows, cols] = vals
        return out

    @staticmethod
    def from_triplets(rows, cols, vals, d: int, t: int) -> "ColumnSparseMatrix":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        if not rows.shape == cols.shape == vals.shape:
            raise ValueError("rows, cols and vals differ in length")
        bad = np.flatnonzero((cols < 0) | (cols >= t))
        if bad.size:
            raise ValueError(f"column index {cols[bad[0]]} outside [0, {t})")
        order = np.lexsort((rows, cols))
        indptr = np.zeros(t + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=t), out=indptr[1:])
        return ColumnSparseMatrix(d, t, indptr, rows[order], vals[order])


# --------------------------------------------------------------------------
# triplet file I/O
# --------------------------------------------------------------------------

class TripletFormatError(ValueError):
    pass


def load_triplets(path, d: int | None = None, t: int | None = None) -> ColumnSparseMatrix:
    """Read a "row col value" text file (1-based, '%'/'#' comments).

    An optional first header line "%%d T nnz" fixes the dimensions;
    otherwise they come from the arguments or, failing that, the data.
    Duplicate (row, col) pairs, out-of-range indices and non-finite values
    are errors reported with their line number.
    """
    rows, cols, vals = [], [], []
    header = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("%%"):
                if header is not None or rows:
                    raise TripletFormatError(f"line {lineno}: stray header line")
                parts = line[2:].replace(",", " ").split()
                if len(parts) != 3:
                    raise TripletFormatError(f"line {lineno}: header needs 'd T nnz'")
                header = tuple(int(p) for p in parts)
                continue
            if line.startswith("%") or line.startswith("#"):
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 3:
                raise TripletFormatError(
                    f"line {lineno}: expected 'row col value', got {line!r}")
            try:
                i, j = int(parts[0]), int(parts[1])
                v = float(parts[2])
            except ValueError as exc:
                raise TripletFormatError(f"line {lineno}: non-numeric field ({exc})") from None
            if not np.isfinite(v):
                raise TripletFormatError(f"line {lineno}: non-finite value {parts[2]!r}")
            if i < 1 or j < 1:
                raise TripletFormatError(f"line {lineno}: indices are 1-based, got ({i}, {j})")
            rows.append(i - 1)
            cols.append(j - 1)
            vals.append(v)
    if header is not None:
        d, t = header[0], header[1]
    if d is None or t is None:
        if not rows:
            raise TripletFormatError("empty file and no dimensions given")
        d = max(rows) + 1 if d is None else d
        t = max(cols) + 1 if t is None else t
    seen = {}
    for k, (i, j) in enumerate(zip(rows, cols)):
        if i >= d or j >= t:
            raise TripletFormatError(
                f"entry ({i + 1}, {j + 1}) outside declared {d} x {t} matrix")
        if (i, j) in seen:
            raise TripletFormatError(f"duplicate entry ({i + 1}, {j + 1})")
        seen[(i, j)] = k
    return ColumnSparseMatrix.from_triplets(rows, cols, vals, d, t)


def save_triplets(path, matrix: ColumnSparseMatrix, header: bool = True) -> None:
    """Write the matrix as 1-based triplets; floats keep 17 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"%%{matrix.d} {matrix.t} {matrix.nnz}\n")
        for i, j, v in zip(*matrix.to_coo()):
            fh.write(f"{i + 1} {j + 1} {v:.17g}\n")


# --------------------------------------------------------------------------
# synthetic completion data
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GroundTruth:
    """Low-rank ground truth Y = L R^T held in factored form."""

    left: np.ndarray   # d x r
    right: np.ndarray  # T x r

    def entries(self, rows, cols) -> np.ndarray:
        return np.sum(self.left[np.asarray(rows)] * self.right[np.asarray(cols)], axis=1)

    def dense(self) -> np.ndarray:
        return self.left @ self.right.T

    def rms(self) -> float:
        return float(np.sqrt(np.mean(self.dense() ** 2)))


def _sample_without_replacement(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    # Fisher-Yates (via permutation) when the index space fits in memory,
    # rejection sampling of linear indices otherwise.
    if k > n:
        raise ValueError("cannot sample more entries than exist")
    if n <= 10_000_000:
        return rng.permutation(n)[:k]
    chosen: set[int] = set()
    out = np.empty(k, dtype=np.int64)
    filled = 0
    while filled < k:
        draw = rng.integers(0, n, size=max(1024, k - filled))
        for x in draw:
            xi = int(x)
            if xi not in chosen:
                chosen.add(xi)
                out[filled] = xi
                filled += 1
                if filled == k:
                    break
    return out


@dataclass(frozen=True)
class SynthCompletion:
    train: ColumnSparseMatrix
    test: ColumnSparseMatrix
    truth: GroundTruth


def synth_completion(d: int, t: int, rank: int, sample_fraction: float,
                     noise_sigma: float = 0.0, seed: int = 0,
                     nonneg: bool = False) -> SynthCompletion:
    """Low-rank matrix from standard-normal factors, uniformly sampled entries.

    Train and test sets are disjoint and each hold round(sample_fraction*d*t)
    entries (test capped by what remains).  With nonneg=True the factors are
    folded to |N(0,1)| so the product is entrywise nonnegative.  Noise is
    additive Gaussian on observed entries only.
    """
    if not (0 < sample_fraction <= 1):
        raise ValueError("sample_fraction must be in (0, 1]")
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((d, rank))
    right = rng.standard_normal((t, rank))
    if nonneg:
        left, right = np.abs(left), np.abs(right)
    truth = GroundTruth(left, right)

    n_train = int(round(sample_fraction * d * t))
    n_test = min(n_train, d * t - n_train)
    dof = rank * (d + t - rank)
    if n_train < dof:
        warnings.warn(
            f"underdetermined: {n_train} samples < {dof} degrees of freedom "
            f"for rank {rank}", stacklevel=2)
    flat = _sample_without_replacement(d * t, n_train + n_test, rng)
    tr_flat, te_flat = flat[:n_train], flat[n_train:]

    def build(flat_idx, noisy):
        rows, cols = np.unravel_index(flat_idx, (d, t))
        vals = truth.entries(rows, cols)
        if noisy and noise_sigma > 0:
            vals = vals + noise_sigma * rng.standard_normal(vals.size)
        return ColumnSparseMatrix.from_triplets(rows, cols, vals, d, t)

    train = build(tr_flat, noisy=True)
    test = build(te_flat, noisy=False)
    return SynthCompletion(train, test, truth)


# --------------------------------------------------------------------------
# Hankel structure helpers and LTI impulse-response generator
# --------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _antidiag_index(d: int, t: int) -> np.ndarray:
    """Read-only d x t grid holding i + j, the anti-diagonal of each cell."""
    grid = np.arange(d)[:, None] + np.arange(t)[None, :]
    grid.setflags(write=False)
    return grid


def hankel_matrix(y: np.ndarray, d: int, t: int) -> np.ndarray:
    """d x t Hankel matrix with H[i, j] = y[i + j]; y has length d + t - 1."""
    y = np.asarray(y, dtype=float)
    if y.size != d + t - 1:
        raise ValueError(f"need len(y) = d + t - 1 = {d + t - 1}, got {y.size}")
    return y[_antidiag_index(d, t)]


def antidiag_sums(s: np.ndarray) -> np.ndarray:
    """Sum of each anti-diagonal of a d x t matrix (length d + t - 1)."""
    d, t = s.shape
    return np.bincount(_antidiag_index(d, t).ravel(), weights=s.ravel(),
                       minlength=d + t - 1)


def antidiag_spread(v: np.ndarray, d: int, t: int) -> np.ndarray:
    """Adjoint of antidiag_sums: place v[k] on every cell of anti-diagonal k."""
    return np.asarray(v, dtype=float)[_antidiag_index(d, t)]


def antidiag_counts(d: int, t: int) -> np.ndarray:
    """Number of cells on each anti-diagonal of a d x t matrix."""
    k = np.arange(d + t - 1)
    return np.minimum(np.minimum(k + 1, d + t - 1 - k), min(d, t)).astype(float)


def antidiag_means(w: np.ndarray) -> np.ndarray:
    """Average each anti-diagonal; the orthogonal projection onto Hankel form."""
    d, t = w.shape
    return antidiag_sums(w) / antidiag_counts(d, t)


@dataclass(frozen=True)
class LTISystemSpec:
    """Random stable discrete-time LTI system whose impulse response we sample."""

    order: int
    d: int
    t: int
    noise_sigma: float = 0.05
    spectral_radius_cap: float = 0.9

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if not (0 < self.spectral_radius_cap < 1):
            raise ValueError("spectral radius cap must lie in (0, 1)")


def synth_hankel(spec: LTISystemSpec, seed: int = 0,
                 max_retries: int = 10) -> tuple[np.ndarray, np.ndarray]:
    """Impulse response y_k = c^T A^k b, k = 1..d+t-1 (first sample skipped).

    The state matrix is Gaussian rescaled to the spectral radius cap.  The
    d x t Hankel matrix of the clean signal has rank <= order; draws whose
    singular-value drop at the order is below 1e6 are rejected and redrawn.
    Returns (y_true, y_noisy) with y_noisy = y_true + sigma * N(0, 1).
    """
    rng = np.random.default_rng(seed)
    n = spec.d + spec.t - 1
    for _ in range(max_retries):
        a = rng.standard_normal((spec.order, spec.order))
        rho = np.max(np.abs(np.linalg.eigvals(a)))
        if rho == 0:
            continue
        a *= spec.spectral_radius_cap / rho
        b = rng.standard_normal(spec.order)
        c = rng.standard_normal(spec.order)
        y = np.empty(n)
        state = a @ b
        for k in range(n):
            y[k] = c @ state
            state = a @ state
        sv = np.linalg.svd(hankel_matrix(y, spec.d, spec.t), compute_uv=False)
        if spec.order >= min(spec.d, spec.t):
            break
        if sv[spec.order] == 0 or sv[spec.order - 1] / max(sv[spec.order], 1e-300) >= 1e6:
            break
    else:
        raise RuntimeError("could not draw a well-conditioned low-order system")
    noise = rng.standard_normal(n)
    return y, y + spec.noise_sigma * noise


# --------------------------------------------------------------------------
# train/test splitting
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float
    seed: int = 0
    folds: int = 1

    def __post_init__(self):
        if not (0 < self.train_fraction < 1):
            raise ValueError("train_fraction must be in (0, 1)")
        if self.folds < 1:
            raise ValueError("folds must be >= 1")


def split(matrix: ColumnSparseMatrix, spec: SplitSpec):
    """Independent seeded train/test partitions of the observed entries.

    Every fold partitions the full observation set (disjoint, exhaustive),
    sampling uniformly over entries with no per-column balancing.
    """
    rows, cols, vals = matrix.to_coo()
    n = rows.size
    n_train = int(round(spec.train_fraction * n))
    out = []
    for fold in range(spec.folds):
        rng = np.random.default_rng(np.random.SeedSequence([spec.seed, fold]))
        perm = rng.permutation(n)
        tr, te = perm[:n_train], perm[n_train:]
        out.append((
            ColumnSparseMatrix.from_triplets(rows[tr], cols[tr], vals[tr], matrix.d, matrix.t),
            ColumnSparseMatrix.from_triplets(rows[te], cols[te], vals[te], matrix.d, matrix.t),
        ))
    return out
