"""Self-tests of the benchmark on reduced-size workloads.

    python3 perfbench/selftest.py

Run from the root of the repository.  Every workload runs one reduced pass,
untraced and traced, through the real entry point; the emitted metrics must
be exactly those named in BENCHMARK.json, with their units.  The output
checks must not be vacuous: a planted wrong reference and a planted witness
that does not re-evaluate are each counted as failed operations.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

run.use_checkout_source()

import refs  # noqa: E402
from holonorm import interp  # noqa: E402

WORKLOADS = ("matrix-1d", "sweep-2d")


def _bench(*args, cwd=run.ROOT) -> subprocess.CompletedProcess:
    script = os.path.join(cwd, "perfbench", "run.py")
    return subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def _small_run(name: str, references: dict) -> dict:
    return run.run_workload(name, seed=7, seconds=0, trace=False, references=references,
                            small=True)


class MetricsEmitted(unittest.TestCase):
    def test_every_metric_with_its_unit(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[group]}
            for name in WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    proc = _bench("--workload", name, "--seed", "7", "--seconds", "0",
                                  "--trace", trace, "--small")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], proc.stderr)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for v in result["metrics"].values():
                        self.assertIsInstance(v["value"], (int, float))


class ChecksBite(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.refs = {name: refs.compute(name, small=True) for name in WORKLOADS}

    def test_unplanted_runs_pass(self):
        for name in WORKLOADS:
            result = _small_run(name, self.refs[name])
            self.assertEqual(result["failed"], 0, result["errors"])
            self.assertEqual(result["metrics"]["ok_frac"], 1.0)

    def test_wrong_reference_is_a_failure(self):
        for name in WORKLOADS:
            planted = json.loads(json.dumps(self.refs[name]))
            first, second = sorted(planted)[:2]
            terms = planted[first]["terms"]
            term = next(t for t, v in terms.items() if v > 0)
            terms[term] *= 0.5  # the computed term now exceeds its "exact" value
            planted[second]["status"] = "violation"
            result = _small_run(name, planted)
            expect = 2 if name == "matrix-1d" else len({k.rsplit("/", 1)[0]
                                                        for k in (first, second)})
            self.assertEqual(result["failed"], expect, result["errors"])
            self.assertLess(result["metrics"]["ok_frac"], 1.0)

    def test_witness_that_does_not_reevaluate_is_a_failure(self):
        real_sup_norm = interp.sup_norm

        def planted_sup_norm(u):
            rep = real_sup_norm(u)
            at = np.unravel_index(int(np.abs(u.values).argmin()), u.values.shape)
            rep.witness = {**rep.witness, "node": [int(v) for v in at]}
            return rep

        interp.sup_norm = planted_sup_norm
        try:
            result = _small_run("matrix-1d", self.refs["matrix-1d"])
        finally:
            interp.sup_norm = real_sup_norm
        sup_checks = [k for k in self.refs["matrix-1d"] if k.endswith(("/2.3.1", "/2.3.3"))]
        self.assertEqual(result["failed"], len(sup_checks), result["errors"])
        self.assertTrue(all("witness" in e for e in result["errors"]))


class Contract(unittest.TestCase):
    def test_fails_without_the_program(self):
        """In a directory holding only the benchmark, no result is printed."""
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = _bench("--workload", "sweep-2d", "--seed", "1", "--seconds", "1",
                          "--trace", "0", cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
