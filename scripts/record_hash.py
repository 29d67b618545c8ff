"""Hash the seed-0 solve records of benchmark workloads.

Usage, from the root of a checkout:

    python3 scripts/record_hash.py --workload completion_tr_cert --workload robust_l1

BLAS is pinned to one thread, spectralr is imported from the checkout's
src/, and each workload is built by benchmark/workloads.py (imported, not
edited) at run seed 0 and solved with its own solver settings.  One line
per workload gives the last iteration, the status and a SHA-256 over every
IterationRecord field except elapsed_seconds, the final U's bytes and the
status.  Records are deterministic for one BLAS thread count, so a change
that keeps every solve's arithmetic prints the same lines as its parent,
and one that moves the round-off of any record prints another hash.

--workload mtfl_tr is an 8-task multi-task trust-region solve, which no
benchmark workload covers.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MTFL = "mtfl_tr"


def _bootstrap():
    """Pin BLAS to one thread, then import from the checkout (before numpy)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]


def _mtfl_solve():
    import numpy as np

    from spectralr import adapters, inner, solvers

    rng = np.random.default_rng(0)
    basis = np.linalg.qr(rng.standard_normal((12, 3)))[0]
    tasks = []
    for n in (9, 14, 6, 20, 11, 8, 17, 13):
        x = rng.standard_normal((n, 12))
        tasks.append((x, x @ (basis @ rng.standard_normal(3)) + 0.1 * rng.standard_normal(n)))
    adapter = adapters.MTFLAdapter(adapters.MTFLTaskSet(tasks),
                                   inner.RegularizationParams(c=10.0, inner_tol=1e-12))
    u0 = solvers.initialize_point(adapter, 12, 4, seed=0)
    cfg = solvers.SolverConfig(max_outer_iters=60, grad_norm_tol=1e-12, cert_every=5)
    return solvers.solve_tr(adapter, u0, cfg)


def _workload_solve(name):
    import workloads

    from spectralr import solvers

    w = workloads.WORKLOADS[name]
    inst = workloads.build(w, 0)
    solve = solvers.solve_tr if w.solver == "tr" else solvers.solve_cg
    cfg = solvers.SolverConfig(max_outer_iters=w.max_outer, grad_norm_tol=w.grad_tol,
                               cert_every=w.cert_every)
    return solve(inst.adapter, inst.u0, cfg)


def record_hash(result) -> str:
    import numpy as np

    h = hashlib.sha256()
    for rec in result.records:
        fields = tuple(getattr(rec, f.name) for f in dataclasses.fields(rec)
                       if f.name != "elapsed_seconds")
        h.update(repr(fields).encode())  # repr round-trips every float exactly
    h.update(np.ascontiguousarray(result.point.u).tobytes())
    h.update(result.status.encode())
    return h.hexdigest()


def main(argv=None) -> int:
    _bootstrap()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True,
                        choices=sorted(workloads.WORKLOADS) + [MTFL])
    args = parser.parse_args(argv)
    for name in args.workload:
        result = _mtfl_solve() if name == MTFL else _workload_solve(name)
        print(f"{name} iterations={result.records[-1].iteration} "
              f"status={result.status} sha256={record_hash(result)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
