"""One benchmark repetition in a fresh process.

    python3 bench/study.py --workload NAME [--spans PATH] [--reference PATH]
    python3 bench/study.py --setup-only

Times the import of dampedwave plus builtin_experiments() (set-up), then the
study call itself, checks the outputs, and prints one JSON line. With
--spans the study runs under the tracer, which writes its spans to PATH and
adds the per-layer metrics; without it no wrapper is installed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--spans", help="trace the study and write spans here")
    parser.add_argument("--reference", default=str(BENCH / "reference.json"))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    from dampedwave import harness
    exps = harness.builtin_experiments()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from dampedwave.sparse import CgError, EigError
    from dampedwave.stepper import StepError

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    reference = json.loads(Path(args.reference).read_text())
    out = {"setup_s": setup_s, "problems": []}
    try:
        c0 = time.process_time()
        t1 = time.perf_counter()
        try:
            if args.spans:
                import tracing

                with tracing.Tracer() as tracer:
                    result = tracer.call("study", wl.run, (harness, exps))
            else:
                result = wl.run(harness, exps)
        finally:
            out["wall_s"] = time.perf_counter() - t1
            out["cpu_s"] = time.process_time() - c0
    except (CgError, StepError, EigError) as exc:
        result = None
        out["problems"].append(f"{type(exc).__name__}: {exc}")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if result is not None:
        outputs = wl.outputs(result)
        out["digest"] = workloads.digest(outputs)
        out["sizes"] = wl.sizes(result, exps)
        out["problems"] += wl.check(result, exps)
        out["problems"] += workloads.compare_reference(outputs, reference[wl.name])
    if args.spans:
        tracer.write(args.spans)
        out["layers"] = tracing.layer_metrics(tracer.spans, out["wall_s"])
        leaked = tracing.leaked_patches()
        if leaked:
            out["problems"].append(f"patched attributes survived: {leaked}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
