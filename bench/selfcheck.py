"""Tests of the benchmark itself. Run from the root of a checkout:

    python3 bench/selfcheck.py [-k PATTERN]

The workload tests run every workload once untraced and twice traced, about
a minute on 2 cores on the seed; the name avoids pytest's test_*.py
pattern so the repository's test suite does not pick it up.
"""

from __future__ import annotations

import json
import sys
import unittest

import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))


class TracerTests(unittest.TestCase):
    def test_no_patched_attribute_survives(self):
        plan = tracing.patch_plan()
        before = [getattr(owner, attr) for owner, attr, _, _ in plan]
        with self.assertRaises(RuntimeError):
            with tracing.Tracer():
                self.assertEqual(len(tracing.leaked_patches()), len(plan))
                raise RuntimeError("study failed")
        after = [getattr(owner, attr) for owner, attr, _, _ in plan]
        self.assertEqual(tracing.leaked_patches(), [])
        for b, a in zip(before, after):
            self.assertIs(a, b)

    def test_self_time_subtracts_same_thread_children(self):
        # root [0, 10] on thread 1 with a child [2, 5] on thread 1 and one
        # [1, 9] on thread 2 that ran in parallel
        spans = [["root", 0.0, 10.0, None, 1, 0.0, None, None],
                 ["a", 2.0, 5.0, 0, 1, 0.0, None, None],
                 ["b", 1.0, 9.0, 0, 2, 0.0, None, None]]
        self.assertEqual(tracing.self_times(spans), [7.0, 3.0, 8.0])


class WorkloadTests(unittest.TestCase):
    def _check(self, name):
        deadline = run.time.monotonic() + 600
        run.OUT.mkdir(exist_ok=True)
        plain = run.run_child("--workload", name, deadline=deadline)
        traced = [run.run_child("--workload", name, "--spans",
                                str(run.OUT / f"selfcheck-{name}-{i}.json.gz"),
                                deadline=deadline) for i in range(2)]
        for rep in [plain] + traced:
            self.assertEqual(rep["problems"], [])
        # tracing must not perturb a single bit of the outputs
        self.assertEqual({r["digest"] for r in traced}, {plain["digest"]})
        counts = [{k: r["layers"][k] for k in tracing.COUNTERS} for r in traced]
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["stepper.step.calls"], 0)

    def test_converge_ex1(self):
        self._check("converge-ex1")

    def test_decay_ex3ii(self):
        self._check("decay-ex3ii")

    def test_steady_forcing(self):
        self._check("steady-forcing")

    def test_decay_timevar_fd(self):
        self._check("decay-timevar-fd")

    def test_wrong_reference_counts_as_failure(self):
        ref = json.loads((run.BENCH / "reference.json").read_text())
        energy = ref["decay-ex3ii"]["energy"]["values"]
        energy[0] *= 1.0 + 100 * workloads.REF_RTOL
        run.OUT.mkdir(exist_ok=True)
        path = run.OUT / "selfcheck-wrong-reference.json"
        path.write_text(json.dumps(ref))
        record, result = run.measure("decay-ex3ii", 0, False, 0, reference=str(path))
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertEqual(record["fail_frac"], 1.0)
        self.assertTrue(any("energy" in p for p in record["problems"]))


class CalibrationTests(unittest.TestCase):
    def test_kernel_runs_no_program_code(self):
        # a change to dampedwave must not move the speed scale
        code = ("import sys; import run; run.calibrate(); "
                "print(any(m.startswith('dampedwave') for m in sys.modules))")
        out = run.subprocess.run([sys.executable, "-c", code], cwd=run.BENCH,
                                 capture_output=True, text=True, check=True)
        self.assertEqual(out.stdout.strip(), "False")

    def test_every_timed_child_gets_a_scale(self):
        record, result = run.measure("decay-timevar-fd", 0, False, 0)
        self.assertTrue(result["correct"])
        # one calibration before the repetition and one after it
        self.assertEqual(record["calibration_s"]["n"], 2)
        cals = record["calibration_s"]["values"]
        scale = run.CAL_REF_S / ((cals[0] + cals[1]) / 2)
        for key in ("setup_s", "wall_s", "cpu_s"):
            self.assertEqual(record[key]["n"], 1)
            self.assertAlmostEqual(record[key]["values"][0],
                                   record["raw"][key]["values"][0] * scale)


if __name__ == "__main__":
    unittest.main()
