"""Command-line driver.

Subcommands: complete, robust-complete, nn-complete, hankel, mtfl, synth,
check-cert.  Runs write summary.json, trace.csv, and model.npz into the
output directory.  Exit codes: 0 converged, 1 input error, 2 stall,
non-convergence or numerical error (for check-cert: a gap above --gap-tol,
or a sigma_1 that Lanczos did not converge).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
import zipfile

import numpy as np
import scipy
import scipy.sparse as sp

from . import adapters, data, inner, solvers

METRIC_KIND = {"completion": "rmse", "robust_l1": "rmse", "robust_eps_svr": "rmse",
               "nonneg_completion": "rmse", "hankel": "rmse", "mtfl": "nmse"}


class CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad input; the contract here is exit 1
    # with the offending flag named, so route errors through CliError.
    def error(self, message):
        raise CliError(message)


def fmt_float(x) -> str:
    return f"{float(x):.17g}"


def _json_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    raise TypeError(f"not serializable: {type(x)}")


def write_summary(path, payload: dict) -> None:
    # Floats carry 17 significant digits for reproducibility audits.
    def convert(obj):
        if isinstance(obj, float):
            return float(fmt_float(obj))
        if isinstance(obj, dict):
            return {k: convert(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [convert(v) for v in obj]
        return obj

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(convert(payload), fh, indent=2, default=_json_default)
        fh.write("\n")


def write_trace(path, records) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("iter,g,gradnorm,step,elapsed_s,duality_gap\n")
        for rec in records:
            gap = fmt_float(rec.duality_gap) if rec.duality_gap is not None else ""
            fh.write(f"{rec.iteration},{fmt_float(rec.g_value)},{fmt_float(rec.grad_norm)},"
                     f"{fmt_float(rec.step_size)},{fmt_float(rec.elapsed_seconds)},{gap}\n")


def save_model(path, u_mat, cert: inner.DualCertificate) -> None:
    """Write U, the kind, g and M: CSC arrays for sparse M, else m_dense."""
    payload = {"u": u_mat, "kind": np.array(cert.kind), "g_value": np.array(cert.g_value)}
    m = cert.m
    if sp.issparse(m):
        payload["m_indices"] = m.indices
        payload["m_values"] = m.data
        payload["m_offsets"] = m.indptr
        payload["shape"] = np.array(m.shape)
    else:
        payload["m_dense"] = m
    np.savez(path, **payload)


def _model_array(blob: dict, key: str, ndim: int) -> np.ndarray:
    if key not in blob:
        raise CliError(f"model_dir: model.npz has no {key!r} array")
    try:
        arr = np.asarray(blob[key], dtype=float)
    except (TypeError, ValueError):
        raise CliError(f"model_dir: {key!r} is not numeric") from None
    if arr.ndim != ndim:
        raise CliError(f"model_dir: {key!r} must be {ndim}-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise CliError(f"model_dir: {key!r} holds non-finite values")
    return arr


def _read_npz(path, flag) -> dict:
    """Every array of an npz archive; CliError("<flag>: ...") if unreadable."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            return {key: npz[key] for key in npz.files}
    except (OSError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        # an .npy file loads as a bare array, which is no context manager
        raise CliError(f"{flag}: cannot read {path!r} as an npz archive: {exc}") from None


def load_model(path):
    """Read U and M back from model.npz; raises CliError("model_dir: ...")
    for missing keys, shapes that disagree, inconsistent CSC arrays and
    non-finite values."""
    blob = _read_npz(path, "model_dir")
    if "kind" not in blob:
        raise CliError("model_dir: model.npz has no 'kind' array")
    kind = str(blob["kind"])
    u = _model_array(blob, "u", ndim=2)
    g_value = _model_array(blob, "g_value", ndim=0)
    if "m_dense" in blob:
        m = _model_array(blob, "m_dense", ndim=2)
    elif "m_values" not in blob:
        raise CliError("model_dir: model.npz holds no M ('m_dense' or 'm_values')")
    else:
        values = _model_array(blob, "m_values", ndim=1)
        shape = _model_array(blob, "shape", ndim=1)
        if shape.size != 2:
            raise CliError(f"model_dir: 'shape' must hold two counts, got {shape.tolist()}")
        for key in ("m_indices", "m_offsets"):
            if key not in blob:
                raise CliError(f"model_dir: model.npz has no {key!r} array")
        try:
            m = sp.csc_matrix((values, blob["m_indices"], blob["m_offsets"]),
                              shape=tuple(int(x) for x in shape))
            m.check_format(full_check=True)
        except (TypeError, ValueError) as exc:
            raise CliError(f"model_dir: inconsistent CSC arrays for M: {exc}") from None
    if m.shape[0] != u.shape[0]:
        raise CliError(f"model_dir: M has {m.shape[0]} rows but U has {u.shape[0]}")
    return u, inner.DualCertificate(kind=kind, g_value=float(g_value), m=m,
                                    k=u.T @ m, z=None)


def git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def numeric_environment() -> dict:
    """numpy/scipy versions and the BLAS thread variables (None when unset),
    which can change round-off and with it the iteration counts."""
    env = {"numpy": np.__version__, "scipy": scipy.__version__}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = os.environ.get(var)
    return env


def parse_kv_spec(text: str, flag: str, required=()) -> dict:
    out = {}
    for part in text.split(","):
        if not part:
            continue
        if "=" not in part:
            raise CliError(f"{flag}: expected key=value pairs, got {part!r}")
        key, value = part.split("=", 1)
        try:
            out[key.strip()] = float(value)
        except ValueError:
            raise CliError(f"{flag}: non-numeric value for {key!r}: {value!r}") from None
    for key in required:
        if key not in out:
            raise CliError(f"{flag}: missing key {key!r}")
    return out


def _synth_completion(spec: dict, seed: int):
    return data.synth_completion(
        int(spec["d"]), int(spec["T"]), int(spec["r"]), spec["frac"],
        noise_sigma=spec.get("sigma", 0.0), seed=seed, nonneg=bool(spec.get("nonneg", 0)))


def _lti_spec(spec: dict):
    return data.LTISystemSpec(int(spec["r0"]), int(spec["d"]), int(spec["T"]),
                              noise_sigma=spec.get("sigma", 0.05))


def _add_solver_flags(p):
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--C", type=float, required=True, dest="c")
    p.add_argument("--epsilon", type=float, default=0.0)
    p.add_argument("--solver", choices=["cg", "tr"], default="tr")
    p.add_argument("--max-outer", type=int, default=300)
    p.add_argument("--grad-tol", type=float, default=1e-6)
    p.add_argument("--inner-tol", type=float, default=1e-10)
    p.add_argument("--inner-iters", type=int, default=2000)
    p.add_argument("--cert-every", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output-dir", default=".")
    p.add_argument("--verbose", action="store_true")


def _add_matrix_inputs(p):
    p.add_argument("--data", help="triplet file with the training observations")
    p.add_argument("--test-data", help="triplet file with held-out entries")
    p.add_argument("--synth", help="synthetic spec, e.g. d=100,T=200,r=5,frac=0.25")
    p.add_argument("--d", type=int, help="row count for --data files without a header")
    p.add_argument("--T", type=int, dest="t_dim", help="column count for --data files")


def build_parser() -> _Parser:
    parser = _Parser(prog="spectra-lr",
                     description="Structured low-rank matrix learning")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("complete", "robust-complete", "nn-complete", "hankel"):
        p = sub.add_parser(name)
        _add_matrix_inputs(p)
        _add_solver_flags(p)
        if name == "robust-complete":
            p.add_argument("--loss", choices=["l1", "eps-svr"], default="l1")
    p = sub.add_parser("mtfl")
    p.add_argument("--data", required=True,
                   help="npz archive with arrays X0,y0,X1,y1,...")
    p.add_argument("--test-data", help="npz archive with matching test tasks")
    p.add_argument("--standardize", action="store_true",
                   help="z-score each task's features by its training mean and "
                        "deviation, test features by the same")
    _add_solver_flags(p)

    p = sub.add_parser("synth")
    p.add_argument("--completion", help="d=..,T=..,r=..,frac=..[,sigma=..,nonneg=1]")
    p.add_argument("--hankel", help="r0=..,d=..,T=..[,sigma=..]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output-dir", default=".")

    p = sub.add_parser("check-cert")
    p.add_argument("model_dir", help="directory holding model.npz")
    p.add_argument("--gap-tol", type=float, default=1e-6)
    return parser


def _load_completion_data(args):
    if args.synth:
        spec = parse_kv_spec(args.synth, "--synth", ("d", "T", "r", "frac"))
        synth = _synth_completion(spec, args.seed)
        train, test = synth.train, synth.test
        if spec.get("outfrac", 0.0) > 0:
            train = _plant_outliers(train, spec["outfrac"], spec.get("outmag", 10.0),
                                    args.seed)
        return train, test
    if not args.data:
        raise CliError("one of --data or --synth is required")
    try:
        train = data.load_triplets(args.data, args.d, args.t_dim)
    except (OSError, data.TripletFormatError) as exc:
        raise CliError(f"--data: {exc}") from None
    test = None
    if args.test_data:
        try:
            test = data.load_triplets(args.test_data, train.d, train.t)
        except (OSError, data.TripletFormatError) as exc:
            raise CliError(f"--test-data: {exc}") from None
        if (test.d, test.t) != (train.d, train.t):
            raise CliError(f"--test-data: a {test.d} x {test.t} matrix does not fit the "
                           f"{train.d} x {train.t} training matrix")
    return train, test


def _plant_outliers(matrix, fraction, magnitude, seed):
    rows, cols, vals = matrix.to_coo()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xC0]))
    k = int(round(fraction * vals.size))
    hit = rng.permutation(vals.size)[:k]
    vals = vals.copy()
    vals[hit] *= magnitude
    return data.ColumnSparseMatrix.from_triplets(rows, cols, vals, matrix.d, matrix.t)


def _run_solver(adapter, args, d):
    cfg = solvers.SolverConfig(
        max_outer_iters=args.max_outer, grad_norm_tol=args.grad_tol,
        cert_every=args.cert_every)
    u0 = solvers.initialize_point(adapter, d, args.rank, args.seed)
    solve = solvers.solve_tr if args.solver == "tr" else solvers.solve_cg
    t_start = time.perf_counter()
    result = solve(adapter, u0, cfg)
    wall = time.perf_counter() - t_start
    if args.verbose:
        for rec in result.records:
            gap = "" if rec.duality_gap is None else f" gap={rec.duality_gap:.3e}"
            tcg = "" if rec.tcg_stop is None else f" tcg={rec.tcg_steps}/{rec.tcg_stop}"
            print(f"iter {rec.iteration:4d}  g={rec.g_value:.9e} "
                  f"|grad|={rec.grad_norm:.3e}{gap}{tcg}", file=sys.stderr)
    return result, wall


def _finish_run(args, adapter, result, wall, test_metric):
    os.makedirs(args.output_dir, exist_ok=True)
    gap = adapter.duality_gap(result.point, result.certificate)
    summary = {
        "schema": 1,
        "command": args.command,
        "status": result.status,
        "g": result.g_value,
        "grad_norm": result.grad_norm,
        "duality_gap": gap.gap,
        "relative_gap": gap.relative_gap,
        "sigma1": gap.sigma1,
        "power_converged": gap.power_converged,
        "tcg_stops": {reason: sum(rec.tcg_stop == reason for rec in result.records)
                      for reason in solvers.TCG_STOP_REASONS},
        "tcg_steps": sum(rec.tcg_steps or 0 for rec in result.records),
        "test_metric": test_metric,
        "metric_kind": METRIC_KIND[adapter.kind],
        "wall_time_s": wall,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "build": git_describe(),
        "environment": numeric_environment(),
    }
    write_summary(os.path.join(args.output_dir, "summary.json"), summary)
    write_trace(os.path.join(args.output_dir, "trace.csv"), result.records)
    save_model(os.path.join(args.output_dir, "model.npz"),
               result.point.u, result.certificate)
    print(f"{args.command}: {result.status}, g={fmt_float(result.g_value)}, "
          f"relative gap={gap.relative_gap:.3e}, "
          f"power_converged={str(gap.power_converged).lower()}"
          + (f", test {METRIC_KIND[adapter.kind]}={test_metric:.6g}"
             if test_metric is not None else ""))
    return 0 if result.status == solvers.CONVERGED else 2


def cmd_completion_family(args) -> int:
    kind = {"complete": "completion", "nn-complete": "nonneg_completion"}.get(args.command)
    if kind is None:
        kind = "robust_l1" if args.loss == "l1" else "robust_eps_svr"
    train, test = _load_completion_data(args)
    params = inner.RegularizationParams(args.c, args.epsilon,
                                        args.inner_tol, args.inner_iters)
    adapter = adapters.make_completion_adapter(kind, train, params)
    result, wall = _run_solver(adapter, args, train.d)
    test_metric = None
    if test is not None and test.nnz:
        factor = adapter.reconstruct(result.point, result.certificate)
        rows, cols, vals = test.to_coo()
        test_metric = adapters.metrics(vals, factor.entries(rows, cols), "rmse")
    return _finish_run(args, adapter, result, wall, test_metric)


def cmd_hankel(args) -> int:
    if args.synth:
        lti = _lti_spec(parse_kv_spec(args.synth, "--synth", ("r0", "d", "T")))
        y_true, y_noisy = data.synth_hankel(lti, args.seed)
        problem = adapters.HankelProblem(y_noisy, lti.d, lti.t)
    elif args.data:
        if args.d is None or args.t_dim is None:
            raise CliError("--d and --T are required with --data for hankel")
        y_true = None
        try:
            problem = adapters.HankelProblem(np.loadtxt(args.data, ndmin=1),
                                             args.d, args.t_dim)
        except (OSError, ValueError) as exc:
            raise CliError(f"--data: {exc}") from None
    else:
        raise CliError("one of --data or --synth is required")
    params = inner.RegularizationParams(args.c, inner_tol=args.inner_tol,
                                        inner_max_iters=args.inner_iters)
    adapter = adapters.HankelAdapter(problem, params)
    result, wall = _run_solver(adapter, args, problem.d)
    test_metric = None
    if y_true is not None:
        factor = adapter.reconstruct(result.point, result.certificate)
        recovered = adapters.hankel_recover_signal(factor.dense())
        test_metric = adapters.metrics(y_true, recovered, "rmse")
    return _finish_run(args, adapter, result, wall, test_metric)


def _load_tasks_npz(path, flag):
    blob = _read_npz(path, flag)
    tasks = []
    while f"X{len(tasks)}" in blob:
        i = len(tasks)
        if f"y{i}" not in blob:
            raise CliError(f"{flag}: X{i} has no matching y{i} in {path}")
        tasks.append((blob[f"X{i}"], blob[f"y{i}"]))
    if not tasks:
        raise CliError(f"{flag}: no X0/y0 arrays found in {path}")
    try:
        return adapters.MTFLTaskSet(tasks)
    except (TypeError, ValueError) as exc:
        raise CliError(f"{flag}: {exc}") from None


def _standardize(taskset, test_set):
    """Z-score each training task's features by its own mean and deviation,
    and the matching test task's features by the same statistics (the model
    has no intercept, so the test set must be shifted as the training set
    was).  In place: the arrays were read from the archives alone."""
    test_x = [] if test_set is None else [x for x, _ in test_set.tasks]
    for t_idx, (x_t, _) in enumerate(taskset.tasks):
        mean, sd = x_t.mean(axis=0), x_t.std(axis=0)
        sd = np.where(sd > 0, sd, 1.0)
        for x in [x_t] + test_x[t_idx:t_idx + 1]:
            x -= mean
            x /= sd


def cmd_mtfl(args) -> int:
    taskset = _load_tasks_npz(args.data, "--data")
    test_set = None
    if args.test_data:
        test_set = _load_tasks_npz(args.test_data, "--test-data")
        if test_set.d != taskset.d or test_set.t > taskset.t:
            raise CliError(f"--test-data: {test_set.t} tasks of {test_set.d} features do not "
                           f"fit the {taskset.t} training tasks of {taskset.d} features")
    if args.standardize:
        _standardize(taskset, test_set)
    params = inner.RegularizationParams(args.c, inner_tol=args.inner_tol,
                                        inner_max_iters=args.inner_iters)
    adapter = adapters.MTFLAdapter(taskset, params)
    result, wall = _run_solver(adapter, args, taskset.d)
    test_metric = None
    if test_set is not None:
        factor = adapter.reconstruct(result.point, result.certificate)
        y_all, pred_all = [], []
        for t_idx, (x_t, y_t) in enumerate(test_set.tasks):
            y_all.append(y_t)
            pred_all.append((x_t @ factor.u) @ factor.k[:, t_idx])
        test_metric = adapters.metrics(np.concatenate(y_all),
                                       np.concatenate(pred_all), "nmse")
    return _finish_run(args, adapter, result, wall, test_metric)


def cmd_synth(args) -> int:
    os.makedirs(args.output_dir, exist_ok=True)
    if args.completion:
        spec = parse_kv_spec(args.completion, "--completion", ("d", "T", "r", "frac"))
        synth = _synth_completion(spec, args.seed)
        data.save_triplets(os.path.join(args.output_dir, "train.txt"), synth.train)
        data.save_triplets(os.path.join(args.output_dir, "test.txt"), synth.test)
        print(f"synth: wrote train.txt ({synth.train.nnz} entries) and "
              f"test.txt ({synth.test.nnz} entries)")
        return 0
    if args.hankel:
        lti = _lti_spec(parse_kv_spec(args.hankel, "--hankel", ("r0", "d", "T")))
        y_true, y_noisy = data.synth_hankel(lti, args.seed)
        np.savetxt(os.path.join(args.output_dir, "y_true.txt"), y_true, fmt="%.17g")
        np.savetxt(os.path.join(args.output_dir, "y_noisy.txt"), y_noisy, fmt="%.17g")
        print(f"synth: wrote y_true.txt and y_noisy.txt ({y_true.size} samples)")
        return 0
    raise CliError("synth requires --completion or --hankel")


def cmd_check_cert(args) -> int:
    path = os.path.join(args.model_dir, "model.npz")
    if not os.path.exists(path):
        raise CliError(f"model_dir: no model.npz under {args.model_dir!r}")
    u, cert = load_model(path)
    nrm = np.linalg.norm(u)
    if abs(nrm - 1.0) > 1e-8 * max(1.0, np.sqrt(u.size)):
        raise CliError(f"model_dir: stored U has Frobenius norm {nrm!r}, expected 1")
    report = inner.duality_gap(u, cert)
    print(f"duality_gap={fmt_float(report.gap)}")
    print(f"sigma1={fmt_float(report.sigma1)}")
    print(f"relative_gap={fmt_float(report.relative_gap)}")
    print(f"power_converged={str(report.power_converged).lower()}")
    # an unconverged Lanczos solve under-reports sigma1, so its gap proves nothing
    return 0 if report.power_converged and report.relative_gap <= args.gap_tol else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command in ("complete", "robust-complete", "nn-complete"):
            return cmd_completion_family(args)
        if args.command == "hankel":
            return cmd_hankel(args)
        if args.command == "mtfl":
            return cmd_mtfl(args)
        if args.command == "synth":
            return cmd_synth(args)
        if args.command == "check-cert":
            return cmd_check_cert(args)
        raise CliError(f"unknown command {args.command!r}")
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
