"""Workload definitions, input generation, the timed solve, checks and metrics.

Every call into spectralr goes through a module attribute (data.*,
adapters.*, solvers.*) looked up at call time, so the tracer's wrappers
apply in a traced repetition.

Seeds.  Each workload solves one fixed instance: by default the one the
acceptance suite builds.  The run seed relabels that instance without
changing the solver's arithmetic: for completion it shuffles the order of
the observed triplets handed to ColumnSparseMatrix.from_triplets, for
Hankel odd seeds negate the signal.  The spread between seeds is then
measurement noise, not instance difficulty; relabellings that do change
the arithmetic (row permutations, a reversed Hankel signal) move the
Hankel work by 2x and the certified gap by 4x.  Fresh instances are
reached with instance_seed; the acceptance limits of the default instance
do not apply to them.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

from spectralr import adapters, data, inner, solvers
from tracer import FLAGGED, Tracer

SETUP_MIN_SECONDS = 1.0    # extra set-ups per run, at least SETUP_MIN_REPEATS
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 200
CERT_MIN_SECONDS = 0.5     # repeat the final certificate until this much time
CERT_MAX_CALLS = 50
TEST_ERR_FLOOR = 1e-6      # criterion 1 calls this relative error exact
REL_GAP_FLOOR = 1e-8       # row-relabelled copies of completion_tr_cert end between 1.3e-9 and 5.3e-9
FAILED_FRAC_FLOOR = 1e-3   # keeps the metric nonzero; reads as "no failure"
OUTLIER_SEED = 99
OUTLIER_SCALE = 10.0
KNOWN_STATUSES = ("converged", "max_iters", "stalled")

END_TO_END_UNITS = {
    "solve_s": "s", "cert_s": "s", "setup_s": "s", "iter_ms_p50": "ms",
    "outer_iters": "count", "test_err": "rmse", "rel_gap": "ratio",
    "peak_rss_mb": "MiB", "failed_frac": "ratio",
}


@dataclass(frozen=True)
class Workload:
    name: str
    family: str           # "completion" (adapter kind in loss) or "hankel"
    size: tuple           # completion: (d, T, rank, frac); hankel: (order, d, T, sigma)
    instance_seed: int
    rank: int
    c: float
    inner_tol: float
    inner_max_iters: int
    solver: str           # "tr" or "cg"
    max_outer: int
    grad_tol: float
    cert_every: int = 0
    loss: str = "completion"
    outliers: float = 0.0  # share of training values scaled by OUTLIER_SCALE
    limits: tuple = ()     # (metric, upper limit) checked on the default instance


WORKLOADS = {w.name: w for w in (
    Workload("completion_tr_cert", "completion", (100, 200, 5, 0.25), 5, 5, 1e8,
             1e-12, 2000, "tr", 150, 1e-14, cert_every=1,
             limits=(("test_err", 1e-6), ("rel_gap", 1e-6))),
    Workload("completion_cg_large", "completion", (1000, 2000, 10, 0.05), 5, 10, 1e6,
             1e-12, 2000, "cg", 100, 1e-12),
    Workload("robust_l1", "completion", (60, 80, 3, 0.35), 3, 3, 10.0,
             1e-10, 20000, "tr", 60, 1e-10, loss="robust_l1", outliers=0.05),
    Workload("hankel", "hankel", (5, 300, 300, 0.05), 1, 8, 1e2,
             1e-12, 200000, "tr", 80, 1e-12, limits=(("test_err", 0.05),)),
)}

# Sizes for the self-test: the same code paths in well under a second each.
TINY = {
    "completion_tr_cert": dict(size=(20, 30, 2, 0.5), rank=2, max_outer=20),
    "completion_cg_large": dict(size=(40, 60, 3, 0.3), rank=3, max_outer=10),
    "robust_l1": dict(size=(15, 20, 2, 0.5), rank=2, max_outer=5, inner_max_iters=2000),
    "hankel": dict(size=(2, 20, 20, 0.05), rank=3, max_outer=20, inner_max_iters=20000),
}


def tiny(name: str) -> Workload:
    return replace(WORKLOADS[name], limits=(), **TINY[name])


@dataclass
class Instance:
    adapter: object
    u0: object
    reference: object     # completion: held-out (rows, cols, vals); hankel: true signal
    err_scale: float      # test_err = test RMSE / err_scale


def build(w: Workload, seed: int, instance_seed: int | None = None) -> Instance:
    """Inputs for one repetition: data, adapter and start point."""
    iseed = w.instance_seed if instance_seed is None else instance_seed
    params = inner.RegularizationParams(c=w.c, inner_tol=w.inner_tol,
                                        inner_max_iters=w.inner_max_iters)
    if w.family == "hankel":
        order, d, t, sigma = w.size
        y_true, y_noisy = data.synth_hankel(data.LTISystemSpec(order, d, t, sigma), seed=iseed)
        sign = -1.0 if seed % 2 else 1.0
        adapter = adapters.HankelAdapter(adapters.HankelProblem(sign * y_noisy, d, t), params)
        reference, err_scale = sign * y_true, 1.0
    else:
        d, t, rank, frac = w.size
        synth = data.synth_completion(d, t, rank=rank, sample_fraction=frac, seed=iseed)
        rows, cols, vals = synth.train.to_coo()
        if w.outliers:
            hit = np.random.default_rng(OUTLIER_SEED).permutation(vals.size)
            vals = vals.copy()
            vals[hit[:int(round(w.outliers * vals.size))]] *= OUTLIER_SCALE
        order = np.random.default_rng(seed).permutation(vals.size)
        train = data.ColumnSparseMatrix.from_triplets(
            rows[order], cols[order], vals[order], d, t)
        adapter = adapters.make_completion_adapter(w.loss, train, params)
        test_rows, test_cols, test_vals = synth.test.to_coo()
        reference = (test_rows, test_cols, test_vals)
        err_scale = float(np.sqrt(np.mean(vals ** 2)))
    u0 = solvers.initialize_point(adapter, d, w.rank, seed=iseed)
    return Instance(adapter, u0, reference, err_scale)


@dataclass
class Rep:
    setup_s: float
    solve_s: float
    cert_s: float
    iter_s: list
    outer_iters: int
    g_final: float
    status: str
    test_err: float       # completion: held-out RMSE / training RMS; hankel: true-signal RMSE
    test_rmse: float
    rel_gap: float
    power_converged: bool
    accepted: int
    problems: list


def solve_once(w: Workload, seed: int, instance_seed: int | None = None,
               cert_min_seconds: float = CERT_MIN_SECONDS) -> Rep:
    t0 = time.perf_counter()
    inst = build(w, seed, instance_seed)
    setup_s = time.perf_counter() - t0
    solve = solvers.solve_tr if w.solver == "tr" else solvers.solve_cg
    cfg = solvers.SolverConfig(max_outer_iters=w.max_outer, grad_norm_tol=w.grad_tol,
                               cert_every=w.cert_every)
    t1 = time.perf_counter()
    result = solve(inst.adapter, inst.u0, cfg)
    solve_s = time.perf_counter() - t1
    cert_times = []
    while not cert_times or (sum(cert_times) < cert_min_seconds
                             and len(cert_times) < CERT_MAX_CALLS):
        t2 = time.perf_counter()
        gap = inst.adapter.duality_gap(result.point, result.certificate)
        cert_times.append(time.perf_counter() - t2)
    factor = inst.adapter.reconstruct(result.point, result.certificate)
    if w.family == "hankel":
        truth, predicted = inst.reference, adapters.hankel_recover_signal(factor.dense())
    else:
        rows, cols, truth = inst.reference
        predicted = factor.entries(rows, cols)
    test_rmse = adapters.metrics(truth, predicted, "rmse")
    records = result.records
    elapsed = [r.elapsed_seconds for r in records]
    rep = Rep(
        setup_s=setup_s, solve_s=solve_s, cert_s=statistics.median(cert_times),
        iter_s=[b - a for a, b in zip(elapsed, elapsed[1:])],
        outer_iters=records[-1].iteration, g_final=float(result.g_value),
        status=result.status, test_err=float(test_rmse / inst.err_scale),
        test_rmse=float(test_rmse),
        rel_gap=float(gap.relative_gap), power_converged=bool(gap.power_converged),
        accepted=sum(1 for r in records[1:] if r.step_size > 0), problems=[])
    rep.problems = check(w, rep, [r.g_value for r in records],
                         instance_seed in (None, w.instance_seed))
    return rep


def check(w: Workload, rep: Rep, g_values: list, default_instance: bool) -> list:
    """Descriptions of every check the repetition fails; empty when it passes."""
    problems = []
    if not all(math.isfinite(g) for g in g_values):
        problems.append("g is not finite")
    eps = np.finfo(float).eps
    for k, (a, b) in enumerate(zip(g_values, g_values[1:]), start=1):
        # the trust-region ratio test regularizes with the same round-off margin
        if b > a + 1e3 * eps * max(1.0, abs(a)):
            problems.append(f"g increased at iteration {k}: {a!r} -> {b!r}")
            break
    if rep.status not in KNOWN_STATUSES:
        problems.append(f"unknown status {rep.status!r}")
    if not rep.power_converged:
        problems.append("final certificate: power iteration did not converge")
    if default_instance:
        for metric, limit in w.limits:
            value = getattr(rep, metric)
            if not value <= limit:
                problems.append(f"{metric} {value:.3e} above {limit:.0e}")
    return problems


@dataclass
class Outcome:
    metrics: dict         # name -> (value, unit)
    attempted: int
    failed: int
    info: dict


def _attempt(reps: list, problems: list, fn) -> Rep | None:
    """Run one repetition; a raised exception or a failed check is a failure."""
    try:
        rep = fn()
    except Exception:  # a failing solve is counted, not fatal
        problems.append(traceback.format_exc(limit=4))
        print(problems[-1], file=sys.stderr)
        reps.append(None)
        return None
    if reps and reps[0] is not None and (rep.outer_iters, rep.g_final) != (
            reps[0].outer_iters, reps[0].g_final):
        rep.problems.append("repetitions of one input disagree (nondeterministic)")
    problems.extend(rep.problems)
    reps.append(rep)
    return rep


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(w: Workload, seed: int, seconds: float,
            instance_seed: int | None = None) -> Outcome:
    """Untraced run: repeat whole solves for `seconds`, report medians."""
    setups = []
    while len(setups) < SETUP_MIN_REPEATS or (sum(setups) < SETUP_MIN_SECONDS
                                             and len(setups) < SETUP_MAX_REPEATS):
        t0 = time.perf_counter()
        build(w, seed, instance_seed)
        setups.append(time.perf_counter() - t0)
    reps, problems = [], []
    start = time.perf_counter()
    while not reps or time.perf_counter() - start < seconds:
        _attempt(reps, problems, lambda: solve_once(w, seed, instance_seed))
    good = [r for r in reps if r is not None]
    failed = sum(1 for r in reps if r is None or r.problems)
    info = {"reps": len(reps), "problems": problems}
    metrics = {}
    if good:
        setups += [r.setup_s for r in good]
        iter_ms = [1e3 * s for r in good for s in r.iter_s]
        last = good[-1]
        values = {
            "solve_s": statistics.median(r.solve_s for r in good),
            "cert_s": statistics.median(r.cert_s for r in good),
            "setup_s": statistics.median(setups),
            "iter_ms_p50": statistics.median(iter_ms),
            "outer_iters": last.outer_iters,
            "test_err": max(last.test_err, TEST_ERR_FLOOR),
            "rel_gap": max(last.rel_gap, REL_GAP_FLOOR),
            "peak_rss_mb": _peak_rss_mib(),
            "failed_frac": max(failed / len(reps), FAILED_FRAC_FLOOR),
        }
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        info.update({
            "iter_samples": len(iter_ms),
            "setup_samples": len(setups),
            "status": last.status, "g_final": last.g_final,
            "test_rmse": last.test_rmse, "rel_gap_raw": last.rel_gap,
            "solve_s_all": [r.solve_s for r in good],
        })
    return Outcome(metrics, len(reps), failed, info)


def measure_traced(w: Workload, seed: int, instance_seed: int | None = None,
                   spans_path=None) -> Outcome:
    """Traced run: one untraced and one traced repetition of the same input.

    Their solve_s difference is the tracing overhead.  The final certificate
    is computed once in the traced repetition, so every count repeats.
    """
    reps, problems = [], []
    plain = _attempt(reps, problems, lambda: solve_once(w, seed, instance_seed))
    tracer = Tracer()
    with tracer:
        traced = _attempt(reps, problems,
                          lambda: solve_once(w, seed, instance_seed, cert_min_seconds=0.0))
    if spans_path is not None:
        tracer.write_spans(spans_path)
    failed = sum(1 for r in reps if r is None or r.problems)
    info = {"reps": len(reps), "problems": problems, "absent": tracer.absent}
    metrics = {}
    if traced is not None:
        for name in tracer.names:
            metrics[f"{name}.calls"] = (tracer.calls[name], "count")
            metrics[f"{name}.self_s"] = (tracer.self_ns[name] / 1e9, "s")
        for name in FLAGGED:
            metrics[f"{name}.converged_ratio"] = (
                _ratio(tracer.converged[name], tracer.calls[name]), "ratio")
        evals = tracer.calls["adapters.evaluate_g"]
        iters = traced.outer_iters
        metrics["solvers.accept_ratio"] = (_ratio(traced.accepted, evals - 1), "ratio")
        metrics["solvers.hv_per_iter"] = (_ratio(tracer.calls["adapters.euc_hess_vec"], iters), "count")
        metrics["solvers.evals_per_iter"] = (_ratio(evals, iters), "count")
        info["traced_solve_s"] = traced.solve_s
        info["layer_share_of_solve"] = _shares(tracer, traced.solve_s)
        if plain is not None:
            overhead = traced.solve_s - plain.solve_s
            metrics["trace.overhead_s"] = (overhead, "s")
            metrics["trace.overhead_frac"] = (overhead / plain.solve_s, "ratio")
            info["untraced_solve_s"] = plain.solve_s
        info["outer_iters"] = iters
    return Outcome(metrics, len(reps), failed, info)


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 when the base is empty (the layer was not called)."""
    return num / den if den > 0 else 0.0


def _shares(tracer: Tracer, solve_s: float) -> dict:
    """Self time of each layer inside the solve span, as a share of solve_s."""
    inside = dict.fromkeys(tracer.names, 0)
    spans = tracer.spans
    solve_idx = {k for k, s in enumerate(spans) if s[0] == "solvers.solve"}
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for k, (name, start, end, parent) in enumerate(spans):
        p = k
        while p >= 0 and p not in solve_idx:
            p = spans[p][3]
        if p >= 0:
            inside[name] += end - start - child_ns[k]
    return {name: ns / 1e9 / solve_s for name, ns in inside.items() if ns}
