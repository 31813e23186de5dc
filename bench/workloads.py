"""The four benchmark workloads: one study of the paper each, with the checks
that decide whether a repetition succeeded.

Every input is fixed by the built-in experiments; nothing is random. Each
workload calls the public ``harness`` function that the matching
``dampedwave <cmd>`` subcommand calls, at the sizes below.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Outputs must match the reference recorded at the seed commit to within this
# relative tolerance (absolute part scaled by the series' largest value).
# Each implicit step solves to a relative residual of STEP_RTOL = 1e-10, and
# the scheme is dissipative, so solver-level changes (summation order,
# preconditioner, warm start) move the outputs by a small multiple of
# STEP_RTOL; 1e4 * STEP_RTOL leaves that margin while any change to the
# discretisation (>= 1e-3 relative on these outputs) still fails.
REF_RTOL = 1e-6

# A reference series keeps about this many evenly strided samples plus its
# last value, so the recorded file stays small.
REF_SAMPLES = 64

# Problem sizes: each study is a few seconds on 2 cores at the seed, so a
# run holds about ten repetitions, each bracketed by calibrations.
CONVERGE_NS = (5, 10, 15, 20)
EX3II_N = 16
FORCING_N = 16
TIMEVAR_FD_N = 24

CONVERGE_RATE_WINDOW = (1.85, 2.2)
CONVERGE_H1_WINDOW = (0.85, 1.2)
# The paper's L2 error of ex1 at N = 30; the finest level is compared with
# it scaled by h^2.
EX1_L2_AT_30 = 2.3671e-4


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable  # (harness module, experiments) -> study result
    outputs: Callable  # result -> {name: float or 1-d array}
    check: Callable  # (result, experiments) -> list of problems
    sizes: Callable  # (result, experiments) -> {"ndof": [...], "steps": int}


def _window(name, values, lo, hi):
    values = np.asarray(values)
    if np.all((values >= lo) & (values <= hi)):
        return []
    return [f"{name} {np.round(values, 4).tolist()} outside [{lo}, {hi}]"]


def _flags(**flags):
    return [f"{name} failed" for name, ok in flags.items() if not ok]


# --- converge-ex1 --------------------------------------------------------

def _converge_outputs(tab):
    return {"l2": tab.l2, "linf": tab.linf, "h1": tab.h1}


def _converge_check(tab, exps):
    problems = _window("last two L2 rates", tab.rate_l2[-2:], *CONVERGE_RATE_WINDOW)
    problems += _window("last two Linf rates", tab.rate_linf[-2:], *CONVERGE_RATE_WINDOW)
    problems += _window("H1 rates", tab.rate_h1[1:], *CONVERGE_H1_WINDOW)
    n = int(tab.n_values[-1])
    l2, want = float(tab.l2[-1]), EX1_L2_AT_30 * (30 / n) ** 2
    if not want / 3 <= l2 <= 3 * want:
        problems.append(f"L2 at N={n} is {l2:.4e}, not within 3x of {want:.4e}")
    return problems


def _converge_sizes(tab, exps):
    exp = exps["ex1"]
    ns = [int(n) for n in tab.n_values]
    steps = sum(round(exp.T / exp.time_step(n)) - 1 for n in ns)
    return {"ndof": [(n - 1) ** 2 for n in ns], "steps": steps}


# --- decay workloads -----------------------------------------------------

def _decay_outputs(rep):
    out = {"lambda1": rep.lambda1, "delta_fit": rep.delta_fit,
           "t": rep.trace.t, "energy": rep.trace.energy, "cross": rep.trace.cross}
    if rep.trace.continuous is not None:
        out["continuous"] = rep.trace.continuous
    return out


def _decay_gates(rep):
    return _flags(monotone=rep.monotone_ok, sandwich=rep.sandwich_ok,
                  bound=rep.bound_ok)


def _ex3ii_check(rep, exps):
    problems = _decay_gates(rep) + _flags(dk_admissible=rep.dk_admissible)
    if abs(rep.delta_fit - math.pi) > 0.05 * math.pi:
        problems.append(f"delta_fit {rep.delta_fit:.4f} not within 5% of pi")
    return problems


def _timevar_fd_check(rep, exps):
    from dampedwave.fdm import fd_eigenvalue
    from dampedwave.mesh import build_fd_grid

    problems = _decay_gates(rep)
    closed = fd_eigenvalue(build_fd_grid(exps["timevar"].domain, rep.n), 1, 1)
    if abs(rep.lambda1 - closed) > 1e-8 * closed:
        problems.append(f"lambda1 {rep.lambda1!r} != closed form {closed!r}")
    return problems


def _decay_sizes(rep, exps):
    return {"ndof": [(rep.n - 1) ** 2], "steps": rep.trace.t.size - 1}


# --- steady-forcing ------------------------------------------------------

def _steady_outputs(rep):
    return {"distances": rep.distances, "u_inf": rep.u_inf}


def _steady_check(rep, exps):
    problems = _flags(monotone=rep.monotone_ok())
    d = rep.distances
    if not d[-1] <= 1e-8 * d[0]:
        problems.append(f"distance fell only to {d[-1] / d[0]:.3e} of its start")
    return problems


def _steady_sizes(rep, exps):
    return {"ndof": [(rep.n - 1) ** 2], "steps": rep.distances.size - 1}


WORKLOADS = {w.name: w for w in (
    Workload(
        "converge-ex1",
        lambda harness, exps: harness.run_convergence(exps["ex1"], n_values=CONVERGE_NS),
        _converge_outputs, _converge_check, _converge_sizes),
    Workload(
        "decay-ex3ii",
        lambda harness, exps: harness.run_decay(exps["ex3ii"], EX3II_N),
        _decay_outputs, _ex3ii_check, _decay_sizes),
    Workload(
        "steady-forcing",
        lambda harness, exps: harness.run_steady(exps["forcing"], FORCING_N),
        _steady_outputs, _steady_check, _steady_sizes),
    Workload(
        "decay-timevar-fd",
        lambda harness, exps: harness.run_decay(exps["timevar"], TIMEVAR_FD_N,
                                              backend="fd"),
        _decay_outputs, _timevar_fd_check, _decay_sizes),
)}


def digest(outputs) -> str:
    """SHA-256 over the exact float64 bytes of every output, in key order."""
    h = hashlib.sha256()
    for key in sorted(outputs):
        h.update(key.encode())
        h.update(np.ascontiguousarray(outputs[key], dtype=np.float64).tobytes())
    return h.hexdigest()


def reference_entry(outputs) -> dict:
    """The recorded form of a workload's outputs: scalars and strided samples."""
    entry = {}
    for key, val in outputs.items():
        arr = np.atleast_1d(np.asarray(val, dtype=np.float64))
        stride = max(1, arr.size // REF_SAMPLES)
        entry[key] = {"size": arr.size, "stride": stride,
                      "values": arr[::stride].tolist() + [float(arr[-1])]}
    return entry


def compare_reference(outputs, reference: dict) -> list[str]:
    """Problems found comparing outputs with a recorded reference entry."""
    problems = []
    if sorted(outputs) != sorted(reference):
        return [f"outputs {sorted(outputs)} differ from reference {sorted(reference)}"]
    for key, val in outputs.items():
        ref = reference[key]
        arr = np.atleast_1d(np.asarray(val, dtype=np.float64))
        if arr.size != ref["size"]:
            problems.append(f"{key}: {arr.size} values, reference has {ref['size']}")
            continue
        got = np.concatenate([arr[::ref["stride"]], arr[-1:]])
        want = np.asarray(ref["values"])
        atol = REF_RTOL * float(np.max(np.abs(want)))
        bad = np.abs(got - want) > REF_RTOL * np.abs(want) + atol
        if np.any(bad):
            i = int(np.argmax(bad))
            problems.append(f"{key}[sample {i}] = {got[i]!r}, reference {want[i]!r}")
    return problems
