"""The benchmark's tracer wraps functions of the package by name; a rename
in the package must fail here rather than silently break a traced run. The
benchmark's workloads run here too, with their own checks and reference,
so a change that breaks a paper gate or moves an output past REF_RTOL
fails the suite."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from dampedwave import harness

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    """bench/<name>.py as the module bench_<name>; it is registered before it
    runs, as dataclasses look up their module."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_bench("workloads")


def test_every_traced_name_resolves_to_a_callable():
    plan = load_bench("tracing").patch_plan()
    assert plan
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in plan
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"traced names not found: {missing}"


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_passes_its_checks_and_matches_the_reference(name):
    workload = WORKLOADS.WORKLOADS[name]
    reference = json.loads((BENCH / "reference.json").read_text())[name]
    exps = harness.builtin_experiments()
    result = workload.run(harness, exps)
    assert workload.check(result, exps) == []
    assert WORKLOADS.compare_reference(workload.outputs(result), reference) == []
