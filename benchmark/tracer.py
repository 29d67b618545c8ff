"""Outside-in span tracer for the traced benchmark run.

The tracer wraps spectralr functions by dotted name from the benchmark's
own files; nothing inside the package is edited.  A wrapper replaces the
module or class attribute while a traced repetition runs and the original
is put back afterwards.  Each call records a span (name, start, end,
parent) in memory; self time is a span's duration minus the part its child
spans cover.  A dotted name that no longer resolves is reported as absent,
so the benchmark survives refactors that delete or rename functions.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

PACKAGE = "spectralr"

# (layer name, dotted paths under the package, index of the converged flag
# in the return value or None).  "*" matches every class of the module that
# defines the attribute itself.  Spectrahedron functions are wrapped where
# solvers imports them, so only the solvers' calls count.
TARGETS = (
    ("data.synth_completion", ("data.synth_completion",), None),
    ("data.synth_hankel", ("data.synth_hankel",), None),
    ("data.ColumnSparseMatrix.from_triplets", ("data.ColumnSparseMatrix.from_triplets",), None),
    ("data.ColumnSparseMatrix.to_scipy", ("data.ColumnSparseMatrix.to_scipy",), None),
    ("spectrahedron.retract", ("solvers.retract",), None),
    ("spectrahedron.project_horizontal", ("solvers.project_horizontal",), None),
    ("spectrahedron.riemannian_gradient", ("solvers.riemannian_gradient",), None),
    ("spectrahedron.riemannian_hess_vec", ("solvers.riemannian_hess_vec",), None),
    ("spectrahedron.transport", ("solvers.transport",), None),
    ("inner.solve_column_square", ("inner.solve_column_square",), None),
    ("inner.apply_shifted_inverse", ("inner.apply_shifted_inverse",), None),
    ("inner.solve_column_box_cd", ("inner.solve_column_box_cd",), 1),
    ("inner.zdot_column_box", ("inner.zdot_column_box",), None),
    ("inner.solve_hankel", ("inner.solve_hankel",), 1),
    ("inner.hankel_directional", ("inner.hankel_directional",), None),
    ("inner.euc_gradient", ("inner.euc_gradient",), None),
    ("inner.assemble_hess_vec", ("inner.assemble_hess_vec",), None),
    ("inner.top_singular_value_sq", ("inner.top_singular_value_sq",), 1),
    ("adapters.evaluate_g", ("adapters.*.evaluate_g",), None),
    ("adapters.euc_gradient", ("adapters.*.euc_gradient",), None),
    ("adapters.euc_hess_vec", ("adapters.*.euc_hess_vec",), None),
    ("adapters.duality_gap", ("adapters.*.duality_gap",), None),
    ("solvers.initialize_point", ("solvers.initialize_point",), None),
    ("solvers.solve", ("solvers.solve_tr", "solvers.solve_cg"), None),
)

# Layers whose return value carries a converged flag.
FLAGGED = tuple(name for name, _, flag in TARGETS if flag is not None)


def _owners(path: str):
    """(owner, attribute) pairs a dotted path names; empty when it is gone."""
    *parts, attr = path.split(".")
    try:
        obj = importlib.import_module(f"{PACKAGE}.{parts[0]}")
    except ImportError:
        return []
    owners = [obj]
    for part in parts[1:]:
        if part == "*":
            owners = [cls for mod in owners for cls in vars(mod).values()
                      if isinstance(cls, type) and cls.__module__ == mod.__name__]
        else:
            owners = [getattr(o, part) for o in owners if hasattr(o, part)]
    # Only attributes an owner defines itself, so that an inherited method
    # is wrapped once, on the class that defines it.
    return [(o, attr) for o in owners if attr in vars(o)]


class Tracer:
    """Wraps the target functions and keeps per-layer counts and spans."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names = [name for name, _, _ in targets]
        self.calls = dict.fromkeys(self.names, 0)
        self.self_ns = dict.fromkeys(self.names, 0)
        self.converged = dict.fromkeys(self.names, 0)
        self.absent: list[str] = []
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []

    def __enter__(self):
        for name, paths, flag in self.targets:
            found = False
            for path in paths:
                for owner, attr in _owners(path):
                    found = True
                    raw = vars(owner)[attr]
                    if isinstance(raw, (staticmethod, classmethod)):
                        patched = type(raw)(self._wrap(name, raw.__func__, flag))
                    else:
                        patched = self._wrap(name, raw, flag)
                    setattr(owner, attr, patched)
                    self._patches.append((owner, attr, raw))
            if not found:
                self.absent.append(name)
        return self

    def __exit__(self, *exc):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _wrap(self, name: str, fn, flag):
        spans, stack = self.spans, self._stack
        calls, self_ns, converged = self.calls, self.self_ns, self.converged
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            frame = [0]  # nanoseconds covered by child spans
            parent = stack[-1][1] if stack else -1
            spans.append(None)
            stack.append((frame, index))
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                spans[index] = (name, start, end, parent)
                calls[name] += 1
                self_ns[name] += duration - frame[0]
                if stack:
                    stack[-1][0][0] += duration
            if flag is not None and out[flag]:
                converged[name] += 1
            return out

        return wrapper

    def write_spans(self, path) -> None:
        """Spans as columns; times in nanoseconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0
        index = {name: k for k, name in enumerate(self.names)}
        cols = {"names": self.names, "name": [], "start_ns": [], "end_ns": [], "parent": []}
        for name, start, end, parent in self.spans:
            cols["name"].append(index[name])
            cols["start_ns"].append(start - origin)
            cols["end_ns"].append(end - origin)
            cols["parent"].append(parent)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cols, fh, separators=(",", ":"))
