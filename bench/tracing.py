"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the dampedwave layers at the sites where
their callers look them up, records one span per call (name, start, end,
parent, thread id, thread CPU time) in memory, and restores every attribute
on exit. Untraced repetitions never import this module.
"""

from __future__ import annotations

import gzip
import json
import threading
import time

SPAN_FIELDS = ("name", "start", "end", "parent", "thread", "cpu_s", "info", "error")

# Per-layer metrics that count work rather than time it; a deterministic
# study repeats them exactly from one traced run to the next.
COUNTERS = (
    "sparse.diagonal.calls", "sparse.cg.solves", "sparse.cg.iters",
    "sparse.cg.iters_mean", "sparse.cg.iters_max", "sparse.cg.failures",
    "sparse.matvec.calls", "sparse.matvec.flop", "sparse.matvec.bytes",
    "sparse.eig.iters", "stepper.step.calls", "stepper.step.matvecs_per_step",
    "diagnostics.energy.calls", "harness.exact_energy.calls",
    "fem.assemble.calls", "fem.field_norms.calls", "mesh.build.calls",
)


def _cg_info(args, kwargs, result):
    return result[1].iterations


def _eig_info(args, kwargs, result):
    return result[2]


def _matvec_info(args, kwargs, result):
    mat = args[0]
    return [mat.nnz, mat.dim]


def patch_plan():
    """(owner, attribute, span name, info extractor) for every wrapped call.

    Functions imported by name are patched in the importing module, because
    that binding is the one the caller looks up. ``SparseMatrix.__matmul__``
    is an alias bound at class creation and is deliberately left alone.
    """
    from dampedwave import diagnostics, fem, harness, sparse, stepper
    from dampedwave.fdm import FdOperator
    from dampedwave.sparse import SparseMatrix

    return [
        (sparse, "cg_solve", "sparse.cg", _cg_info),
        (stepper, "cg_solve", "sparse.cg", _cg_info),
        (diagnostics, "cg_solve", "sparse.cg", _cg_info),
        (fem, "cg_solve", "sparse.cg", _cg_info),
        (SparseMatrix, "matvec", "sparse.matvec", _matvec_info),
        (SparseMatrix, "diagonal", "sparse.diagonal", None),
        (harness, "smallest_generalized_eigenpair", "sparse.eig", _eig_info),
        (stepper, "step", "stepper.step", None),
        (stepper, "init_state", "stepper.init", None),
        (stepper, "assemble_mass", "fem.assemble", None),
        (stepper, "assemble_stiffness", "fem.assemble", None),
        (harness, "run", "stepper.run", None),
        (harness, "steady_state", "stepper.steady_state", None),
        (harness, "make_fem_backend", "stepper.backend", None),
        (harness, "make_fd_backend", "stepper.backend", None),
        (FdOperator, "gram_matrix", "fdm.assemble", None),
        (FdOperator, "mass_matrix", "fdm.assemble", None),
        (diagnostics, "discrete_energy", "diagnostics.energy", None),
        (diagnostics, "energy_cross_term", "diagnostics.energy", None),
        (diagnostics, "energy_EA", "diagnostics.energy", None),
        (harness, "fit_decay_rate", "diagnostics.fit", None),
        (harness, "error_norms", "fem.error_norms", None),
        (harness, "field_l2_norm", "fem.field_norms", None),
        (harness, "field_h1_seminorm", "fem.field_norms", None),
        (harness, "build_tri_mesh", "mesh.build", None),
        (harness.SeparableExact, "energy", "harness.exact_energy", None),
        (harness, "check_residual", "harness.residual_guard", None),
    ]


class Tracer:
    """Context manager: installs the wrappers on entry, removes them on exit.

    Spans live in ``self.spans`` as lists in SPAN_FIELDS order. A span's
    parent is the innermost open span of the same thread, or the root span
    (the study call) for work started on a pool thread.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []
        self._root: int | None = None

    def __enter__(self):
        for owner, attr, name, info in patch_plan():
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, name, info))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def wrap(self, fn, name, info=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)
        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, args=(), kwargs=None, info=None):
        kwargs = kwargs or {}
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._root
        with self._lock:
            idx = len(self.spans)
            self.spans.append(None)
        if self._root is None:
            self._root = idx
        stack.append(idx)
        error = None
        extra = None
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if info is not None:
                extra = info(args, kwargs, result)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            stack.pop()
            self.spans[idx] = [name, t0, t1, parent, threading.get_ident(),
                               c1 - c0, extra, error]

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh)


def leaked_patches() -> list[str]:
    """Attributes of the patch plan that still hold a tracing wrapper."""
    out = []
    for owner, attr, _, _ in patch_plan():
        if hasattr(getattr(owner, attr), "__wrapped__"):
            out.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return out


def self_times(spans) -> list[float]:
    """Span duration minus the time covered by its same-thread children.

    Children on one thread run one after another, so their durations add.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        parent = s[3]
        if parent is not None and spans[parent][4] == s[4]:
            out[parent] -= s[2] - s[1]
    return out


# 2 flops per stored entry; bytes assume each entry reads its value, its int64
# column index and the gathered x entry once, and each row reads its row
# pointer and writes y once. Both are computed from nnz and dim, not measured.
def _matvec_flop(nnz, dim):
    return 2 * nnz


def _matvec_bytes(nnz, dim):
    return 24 * nnz + 16 * dim


def layer_metrics(spans, study_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced study call (see the README table)."""
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name):
        return sum(spans[i][2] - spans[i][1] for i in by_name.get(name, ()))

    selfs = self_times(spans)
    # a span is inside a step when any ancestor is a step span; parents are
    # allocated before their children, so one forward pass suffices
    in_step = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[3]
        in_step[i] = p is not None and (spans[p][0] == "stepper.step" or in_step[p])

    cg_ok = [spans[i][6] for i in by_name.get("sparse.cg", ()) if spans[i][7] is None]
    cg_iters = sum(cg_ok)
    steps = calls("stepper.step")
    matvecs = [spans[i][6] for i in by_name.get("sparse.matvec", ())]
    matvecs_in_step = sum(in_step[i] for i in by_name.get("sparse.matvec", ()))
    runs = by_name.get("stepper.run", ())
    run_wall = sum(spans[i][2] - spans[i][1] for i in runs)
    run_busy = sum(spans[i][5] for i in runs)

    return {
        "sparse.diagonal.calls": calls("sparse.diagonal"),
        "sparse.diagonal.s": total("sparse.diagonal"),
        "sparse.cg.solves": calls("sparse.cg"),
        "sparse.cg.iters": cg_iters,
        "sparse.cg.iters_mean": cg_iters / len(cg_ok) if cg_ok else 0.0,
        "sparse.cg.iters_max": max(cg_ok, default=0),
        "sparse.cg.s": total("sparse.cg"),
        "sparse.cg.s_per_iter": total("sparse.cg") / cg_iters if cg_iters else 0.0,
        "sparse.cg.failures": calls("sparse.cg") - len(cg_ok),
        "sparse.matvec.calls": len(matvecs),
        "sparse.matvec.s": total("sparse.matvec"),
        "sparse.matvec.flop": sum(_matvec_flop(*m) for m in matvecs),
        "sparse.matvec.bytes": sum(_matvec_bytes(*m) for m in matvecs),
        "sparse.eig.iters": sum(spans[i][6] or 0 for i in by_name.get("sparse.eig", ())),
        "sparse.eig.s": total("sparse.eig"),
        "stepper.step.calls": steps,
        "stepper.step.s": total("stepper.step"),
        "stepper.step.self_s": sum(selfs[i] for i in by_name.get("stepper.step", ())),
        "stepper.step.matvecs_per_step": matvecs_in_step / steps if steps else 0.0,
        "stepper.init.s": total("stepper.init"),
        "stepper.steady_state.s": total("stepper.steady_state"),
        "stepper.backend.s": total("stepper.backend"),
        "diagnostics.energy.calls": calls("diagnostics.energy"),
        "diagnostics.energy.s": total("diagnostics.energy"),
        "diagnostics.fit.s": total("diagnostics.fit"),
        "harness.exact_energy.calls": calls("harness.exact_energy"),
        "harness.exact_energy.s": total("harness.exact_energy"),
        "harness.residual_guard.s": total("harness.residual_guard"),
        "harness.levels.busy_s": run_busy,
        "harness.levels.wait_s": run_wall - run_busy,
        "harness.levels.overlap": run_wall / study_wall_s,
        "fdm.assemble.s": total("fdm.assemble"),
        "fem.assemble.calls": calls("fem.assemble"),
        "fem.assemble.s": total("fem.assemble"),
        "fem.error_norms.s": total("fem.error_norms"),
        "fem.field_norms.calls": calls("fem.field_norms"),
        "fem.field_norms.s": total("fem.field_norms"),
        "mesh.build.calls": calls("mesh.build"),
        "mesh.build.s": total("mesh.build"),
    }
