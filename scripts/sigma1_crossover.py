"""Time the two sigma_1(M)^2 paths of the duality-gap certificate across sizes.

For each n in --sizes this builds two seeded n x (ratio * n) matrices: a
sparse CSC one with Gaussian values on a random pattern of the given
density, and a dense one whose top --cluster singular values lie within
1e-9 relative of each other, as the top singular values of M do near an
optimum.  It times inner.sigma1_sq_dense (eigvalsh of the smaller-side
Gram) and inner.sigma1_sq_lanczos (ARPACK from a seeded start) on both,
as the median of --repeats calls, and checks both values against
np.linalg.svd.  It exits 1 when a value is off by more than 1e-12
relative or a Lanczos solve did not converge.  inner.DENSE_SIGMA1_MAX_SIDE
is set from the size where Lanczos starts to win.  Pin BLAS to one thread
to match the benchmark:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/sigma1_crossover.py
"""

import argparse
import os
import statistics
import sys
import time

import numpy as np
import scipy.sparse as sp

from spectralr import inner

RTOL = 1e-12


def sparse_case(n, t, density, rng):
    return sp.random(n, t, density=density, format="csc", random_state=rng,
                     data_rvs=rng.standard_normal)


def clustered_case(n, t, cluster, rng):
    left, _ = np.linalg.qr(rng.standard_normal((n, n)))
    right, _ = np.linalg.qr(rng.standard_normal((t, n)))
    sv = np.sort(rng.uniform(0.0, 0.9, n))[::-1]
    top = min(cluster, n)
    sv[:top] = 1.0 + 1e-9 * np.arange(top)
    return (left * sv) @ right.T


def median_time(fn, repeats):
    times, value = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), value


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sizes", type=int, nargs="+",
                    default=[32, 64, 96, 128, 160, 192, 256, 384, 512])
    ap.add_argument("--ratio", type=float, default=2.0, help="T / n")
    ap.add_argument("--density", type=float, default=0.25)
    ap.add_argument("--cluster", type=int, default=5)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if min(args.sizes) < 2:
        ap.error("--sizes: Lanczos needs n >= 2")

    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}, "
          f"DENSE_SIGMA1_MAX_SIDE={inner.DENSE_SIGMA1_MAX_SIDE}")
    print(f"{'case':>9} {'n':>5} {'T':>6} {'dense_ms':>9} {'lanczos_ms':>10} "
          f"{'faster':>8} {'dense_err':>9} {'lanczos_err':>11}")
    failures = 0
    for n in args.sizes:
        t = max(n, int(round(args.ratio * n)))
        rng = np.random.default_rng([args.seed, n])
        cases = (("sparse", sparse_case(n, t, args.density, rng)),
                 ("clustered", clustered_case(n, t, args.cluster, rng)))
        for name, m in cases:
            dense_m = m.toarray() if sp.issparse(m) else m
            exact = np.linalg.svd(dense_m, compute_uv=False)[0] ** 2
            dense_s, dense_lam = median_time(lambda: inner.sigma1_sq_dense(m),
                                             args.repeats)
            lanczos_s, (lanczos_lam, ok) = median_time(
                lambda: inner.sigma1_sq_lanczos(m), args.repeats)
            dense_err = abs(dense_lam - exact) / exact
            lanczos_err = abs(lanczos_lam - exact) / exact
            bad = not ok or max(dense_err, lanczos_err) > RTOL
            failures += bad
            faster = "dense" if dense_s <= lanczos_s else "lanczos"
            print(f"{name:>9} {n:5d} {t:6d} {1e3 * dense_s:9.2f} {1e3 * lanczos_s:10.2f} "
                  f"{faster:>8} {dense_err:9.1e} {lanczos_err:11.1e}"
                  + ("  FAIL" if bad else ""))
    if failures:
        print(f"{failures} case(s) disagree with the SVD or did not converge",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
