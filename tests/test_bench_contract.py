"""The benchmark's tracer wraps functions of the package by name; a rename
in the package must fail here rather than silently break a traced run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_to_a_callable():
    plan = load_tracing().patch_plan()
    assert plan
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in plan
               if not callable(getattr(owner, attr, None))]
    assert not missing, f"traced names not found: {missing}"
