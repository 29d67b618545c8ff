"""Tiny-size self-test of the benchmark harness; finishes in seconds.

    python3 benchmark/selftest.py

Runs all four workloads at tiny sizes in one process and checks that
  * the untraced run reports exactly BENCHMARK.json's end-to-end metrics,
    with their units, and the traced run exactly its per-layer metrics;
  * outer_iters and every .calls count repeat exactly, across two traced
    runs of one seed and across other seeds (seeds relabel the input
    without changing the arithmetic);
  * the tracer reports a dotted name that no longer resolves as absent.
Exits 1 and lists the failures otherwise.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, bootstrap


def counts(outcome) -> dict:
    out = {k: v for k, (v, unit) in outcome.metrics.items() if k.endswith(".calls")}
    out["outer_iters"] = outcome.info.get("outer_iters")
    return out


def main() -> int:
    bootstrap()
    import workloads
    from tracer import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    errors = []
    for name in workloads.WORKLOADS:
        w = workloads.tiny(name)
        plain = workloads.measure(w, seed=0, seconds=0.0)
        got = {k: unit for k, (_, unit) in plain.metrics.items()}
        if got != end_to_end:
            errors.append(f"{name}: end-to-end metrics {sorted(got.items())} "
                          f"!= BENCHMARK.json {sorted(end_to_end.items())}")
        if plain.failed:
            errors.append(f"{name}: untraced run failed: {plain.info['problems']}")
        seeds = (0, 0, 1, 2)
        runs = [workloads.measure_traced(w, seed=s) for s in seeds]
        for seed, traced in zip(seeds, runs):
            got = {k: unit for k, (_, unit) in traced.metrics.items()}
            if got != per_layer:
                missing, extra = per_layer.keys() - got.keys(), got.keys() - per_layer.keys()
                errors.append(f"{name} seed {seed}: per-layer metrics differ "
                              f"(missing {sorted(missing)}, extra {sorted(extra)})")
            if traced.failed:
                errors.append(f"{name} seed {seed}: traced run failed: {traced.info['problems']}")
            if traced.info.get("absent"):
                errors.append(f"{name}: absent layers {traced.info['absent']}")
        reference = counts(runs[0])
        for seed, traced in zip(seeds[1:], runs[1:]):
            diff = {k: (reference[k], v) for k, v in counts(traced).items() if reference.get(k) != v}
            if diff:
                errors.append(f"{name} seed {seed}: counts differ from seed 0: {diff}")
        print(f"{name}: {len(plain.metrics)} end-to-end and {len(runs[0].metrics)} "
              f"per-layer metrics, outer_iters {reference['outer_iters']}", file=sys.stderr)

    gone = Tracer(targets=(("inner.no_such_function", ("inner.no_such_function",), None),
                           ("gone.function", ("no_such_module.function",), None)))
    with gone:
        pass
    if gone.absent != ["inner.no_such_function", "gone.function"]:
        errors.append(f"tracer absent names: {gone.absent}")

    for err in errors:
        print("SELFTEST FAIL:", err, file=sys.stderr)
    print("SELFTEST", "FAIL" if errors else "PASS", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
