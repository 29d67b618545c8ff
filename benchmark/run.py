"""Solve-and-certify benchmark for spectralr.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload completion_tr_cert --seed 0 --seconds 10 --trace 0

Each invocation runs one workload in its own process with BLAS pinned to
one thread, through the library's public API, against the package in the
checkout's src/ (never an installed copy).  With --trace 0 it repeats whole
solves for --seconds and reports the end-to-end metrics; with --trace 1 it
runs one untraced and one traced repetition and reports per-layer counts,
self times, useful-to-attempted ratios and the tracing overhead.

Standard output ends with two JSON lines: {"info": ...} with the machine
facts, seed and diagnostics, then the result object
{"correct", "attempted", "failed", "metrics"}.  The same data, and in
traced runs the spans, are written under benchmark/out/.  Workloads,
metrics and the layer predictions are described in BENCHMARK.json and
benchmark/predictions.json; benchmark/selftest.py is a tiny-size check of
the harness itself.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def bootstrap() -> None:
    """Pin BLAS to one thread and import spectralr from the checkout.

    Must run before numpy is imported.  Exits with status 2 when the
    checkout holds no src/spectralr.
    """
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    src = ROOT / "src"
    if not (src / "spectralr" / "__init__.py").is_file():
        print(f"benchmark: no spectralr package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))


def _blas_threads():
    """Threads OpenBLAS reports it uses, or None where it cannot be asked."""
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_describe() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unavailable"
    return out.stdout.strip()


def machine_facts() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": int(BLAS_THREADS),
        "blas_threads_reported": _blas_threads(),
        "git_describe": _git_describe(),
    }


def main(argv=None) -> int:
    bootstrap()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="relabels the input without changing the arithmetic: "
                             "triplet order (completion), sign on odd seeds (hankel)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measure whole solves for this long (at least one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instance-seed", type=int, default=None,
                        help="draw a fresh instance with this data seed "
                             "(default: the acceptance-suite instance)")
    args = parser.parse_args(argv)

    import spectralr
    if Path(spectralr.__file__).resolve().parent != ROOT / "src" / "spectralr":
        print(f"benchmark: imported spectralr from {spectralr.__file__}", file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    instance = "" if args.instance_seed is None else f"-instance{args.instance_seed}"
    stem = f"{w.name}-seed{args.seed}{instance}-trace{args.trace}"
    if args.trace:
        outcome = workloads.measure_traced(w, args.seed, args.instance_seed,
                                           spans_path=OUT_DIR / f"{stem}-spans.json")
    else:
        outcome = workloads.measure(w, args.seed, args.seconds, args.instance_seed)

    info = {"workload": w.name, "seed": args.seed,
            "instance_seed": w.instance_seed if args.instance_seed is None else args.instance_seed,
            "trace": args.trace, "seconds": args.seconds,
            "machine": machine_facts(), **outcome.info}
    result = {
        "correct": outcome.failed == 0 and bool(outcome.metrics),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()},
    }
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)
    return 0 if outcome.metrics else 1


if __name__ == "__main__":
    sys.exit(main())
