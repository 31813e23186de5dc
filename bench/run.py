"""Benchmark of the dampedwave studies, run from the root of a checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-reference

One closed loop: the runner starts one repetition at a time, each in a fresh
process (bench/study.py) that pays what a ``dampedwave <cmd>`` user pays,
and starts the next only when the previous one has ended. It keeps starting
repetitions while the next one is expected to finish within S seconds (at
least one always runs). With --trace 1 it alternates untraced and traced
repetitions and reports the per-layer metrics instead of the end-to-end ones.

Between repetitions the runner times a fixed calibration kernel of its own
(see calibrate()); each repetition's set-up, wall and CPU times are scaled by
CAL_REF_S over the mean of the calibrations just before and just after it,
so those metrics read as seconds on a machine where a calibration round
takes CAL_REF_S. The raw times are kept in the run record.

The inputs are the paper's built-in experiments and involve no randomness,
so --seed only labels the run. The last line of standard output is the
result object; the line before it is the run record.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

CHILD_TIMEOUT_S = 170

# The calibration kernel does the kinds of work the program does (a Python
# loop of small numpy calls per matrix row, CSR products, vector updates) on
# a fixed CSR matrix of CAL_DIM rows, CAL_SWEEPS times per round; a
# calibration is the mean of CAL_ROUNDS rounds. It calls no dampedwave
# code, so a change to the program cannot move it.
CAL_DIM = 529
CAL_SWEEPS = 20
CAL_ROUNDS = 10
# About the median calibration round on the 2-vCPU VM the benchmark was
# written on.
CAL_REF_S = 0.04


def _calibration_matrix():
    rng = np.random.default_rng(0)
    cols = np.stack([np.arange(CAL_DIM)]
                    + [rng.integers(0, CAL_DIM, CAL_DIM) for _ in range(4)], axis=1)
    cols = np.sort(cols, axis=1).ravel()
    ptr = np.arange(0, cols.size + 1, 5)
    return ptr, cols, rng.random(cols.size) + 1.0, rng.random(CAL_DIM)


_CAL_MATRIX = _calibration_matrix()


def _calibration_round() -> float:
    ptr, cols, vals, x0 = _CAL_MATRIX
    acc = 0.0
    for _ in range(CAL_SWEEPS):
        d = np.zeros(CAL_DIM)
        for i in range(CAL_DIM):
            lo, hi = ptr[i], ptr[i + 1]
            row = cols[lo:hi]
            hit = np.searchsorted(row, i)
            if hit < row.size and row[hit] == i:
                d[i] = vals[lo + hit]
        x = x0.copy()
        for _ in range(10):
            y = np.add.reduceat(vals * x[cols], ptr[:-1])
            x = x + 1e-3 * (y / d - x)
        acc += float(x @ x)
    return acc


def calibrate() -> float:
    """Seconds per calibration round, the mean of CAL_ROUNDS rounds."""
    t0 = time.perf_counter()
    for _ in range(CAL_ROUNDS):
        _calibration_round()
    return (time.perf_counter() - t0) / CAL_ROUNDS


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout's own .git, read without running git; None when
    the checkout is not a repository."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_child(*args: str, deadline: float) -> dict:
    """Run bench/study.py once and return its JSON line, or a failed record."""
    env = dict(os.environ)
    env.pop("DWL_THREADS", None)  # the program's default pool size
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "study.py"), *args],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"problems": [f"repetition killed after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"problems": [f"repetition exited {proc.returncode}: {tail[0]}"]}
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    """Median, sample count and samples, plus the highest of p90/p99 that
    has at least ten samples beyond it."""
    if not values:
        return {"median": None, "n": 0, "values": []}
    out = {"median": statistics.median(values), "n": len(values), "values": values}
    for p in (99, 90):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def measure(workload: str, seconds: float, trace: bool, seed: int,
            reference: str | None = None) -> tuple[dict, dict]:
    """Run one benchmark run; returns (run record, result object)."""
    start = time.monotonic()
    deadline = start + 175.0
    run_child("--setup-only", deadline=deadline)  # compiles bytecode; untimed
    calibrate()  # warms the kernel; untimed
    cals = [calibrate()]

    def child(*args: str) -> dict:
        """One child between two calibrations, with its speed scale."""
        rep = run_child(*args, deadline=deadline)
        cals.append(calibrate())
        rep["scale"] = CAL_REF_S / ((cals[-2] + cals[-1]) / 2)
        return rep

    plain, traced = [], []
    longest = 0.0
    OUT.mkdir(exist_ok=True)
    ref_args = ("--reference", reference) if reference else ()
    while True:
        t0 = time.monotonic()
        use_trace = trace and len(traced) < len(plain)
        if use_trace:
            spans = OUT / f"spans-{workload}-seed{seed}-{len(traced)}.json.gz"
            traced.append(child("--workload", workload, "--spans", str(spans), *ref_args))
        else:
            plain.append(child("--workload", workload, *ref_args))
        longest = max(longest, time.monotonic() - t0)
        enough = plain and (traced or not trace)
        if enough and time.monotonic() - start + longest > seconds:
            break

    reps = plain + traced
    failed = [r for r in reps if r["problems"]]
    problems = sorted({p for r in failed for p in r["problems"]})
    if len({r["digest"] for r in reps if "digest" in r}) > 1:
        problems.append("outputs differ between repetitions")

    def raw(key, rs):
        return [r[key] for r in rs if key in r]

    def scaled(key, rs):
        return [r[key] * r["scale"] for r in rs if key in r]

    timed = {"setup_s": reps, "wall_s": plain, "cpu_s": plain}
    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "env": {"nproc": os.cpu_count(), "python": sys.version.split()[0],
                "numpy": metadata.version("numpy"), "git_sha": git_sha(ROOT)},
        "sizes": next((r["sizes"] for r in reps if "sizes" in r), None),
        "attempted": len(reps), "failed": len(failed),
        "fail_frac": len(failed) / len(reps), "problems": problems,
        **{k: summary(scaled(k, rs)) for k, rs in timed.items()},
        "peak_rss_mb": summary(raw("peak_rss_mb", plain)),
        "raw": {k: summary(raw(k, rs)) for k, rs in timed.items()},
        "calibration_s": summary(cals),
    }
    if trace:
        layers = [r["layers"] for r in traced if "layers" in r]
        counters = [{k: m[k] for k in tracing.COUNTERS} for m in layers]
        record["cg"] = {k: layers[0][k] for k in ("sparse.cg.solves", "sparse.cg.iters")} \
            if layers else None
        if any(c != counters[0] for c in counters):
            problems.append("counters differ between traced repetitions")
        metrics = {}
        if layers and record["wall_s"]["n"]:
            for key in layers[0]:
                metrics[key] = statistics.median(m[key] for m in layers)
            metrics["trace.overhead_s"] = \
                statistics.median(scaled("wall_s", traced)) - record["wall_s"]["median"]
    else:
        metrics = {k: record[k]["median"]
                   for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
    result = {
        "correct": not problems and not failed,
        "attempted": len(reps),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    return record, result


def unit_of(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    units = {"sparse.cg.iters_mean": "iter", "sparse.cg.iters_max": "iter",
             "sparse.cg.iters": "iter", "sparse.eig.iters": "iter",
             "sparse.cg.s_per_iter": "s/iter",
             "sparse.matvec.flop": "flop-computed",
             "sparse.matvec.bytes": "B-computed",
             "stepper.step.matvecs_per_step": "matvec/step",
             "harness.levels.overlap": "ratio"}
    return units.get(metric, "count")


def record_reference() -> int:
    """Run every workload once in this process and write bench/reference.json."""
    sys.path.insert(0, str(SRC))
    from dampedwave import harness

    exps = harness.builtin_experiments()
    entries = {}
    for name, wl in workloads.WORKLOADS.items():
        result = wl.run(harness, exps)
        problems = wl.check(result, exps)
        if problems:
            print(f"{name}: {problems}", file=sys.stderr)
            return 1
        entries[name] = workloads.reference_entry(wl.outputs(result))
    (BENCH / "reference.json").write_text(json.dumps(entries, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "dampedwave" / "__init__.py").is_file():
        print(f"error: no dampedwave sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    record, result = measure(args.workload, args.seconds, bool(args.trace), args.seed)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
