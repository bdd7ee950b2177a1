"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

They run a few small CLI jobs from the ``src`` tree next to this
directory, so they need it present.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import unittest
from collections import Counter
from pathlib import Path

import checks
import jobs
import run

SK_JOB = {"id": "t-sk", "kind": "sk", "argv": ["sk", "-A", "{1,3}", "-K", "2", "-N", "30",
                                              "--route", "all"], "set": [1, 3], "K": 2, "N": 30}
SCAN_JOB = {"id": "t-scan", "kind": "enumerate",
            "argv": ["enumerate", "-N", "6", "--horizon", "40", "--jobs", "1"],
            "N": 6, "horizon": 40}
CYCLO_JOB = {"id": "t-cyclo", "kind": "cyclotomic", "argv": ["nonperiodic", "-p", "1,1,1"],
             "poly": [1, 1, 1], "exact": False}
SET_JOB = {"id": "t-set", "kind": "nonperiodic",
           "argv": ["nonperiodic", "-A", "{2,3}", "--exact"],
           "set": [2, 3], "exact": True, "expect_exact": True}


def _flip(data: bytes, pos: int) -> bytes:
    """Change one byte: a digit to another digit, anything else to 'x'."""
    c = data[pos:pos + 1]
    new = b"7" if c == b"3" else b"3" if c.isdigit() else b"x"
    return data[:pos] + new + data[pos + 1:]


class CliJobs(unittest.TestCase):
    """Checks and the failure count, on real outputs of small jobs."""

    @classmethod
    def setUpClass(cls):
        cls.scratch = run.ROOT / ".perfbench_tmp"
        cls.scratch.mkdir(exist_ok=True)
        cls.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=cls.scratch))
        cls.runner = run.Runner(cls.tmp)
        cls.results = {job["id"]: cls.runner.cli(job["argv"])
                       for job in (SK_JOB, SCAN_JOB, CYCLO_JOB, SET_JOB)}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)
        try:
            cls.scratch.rmdir()
        except OSError:  # a benchmark run still uses it
            pass

    def _check(self, job, code=None, out=None):
        res = self.results[job["id"]]
        return checks.check(job, res["code"] if code is None else code,
                            res["out"] if out is None else out)

    def test_real_outputs_pass(self):
        for job in (SK_JOB, SCAN_JOB, CYCLO_JOB, SET_JOB):
            self.assertIsNone(self._check(job), job["id"])

    def test_flipped_byte_fails(self):
        for job in (SK_JOB, SCAN_JOB):
            out = self.results[job["id"]]["out"]
            for pos in range(0, len(out), max(1, len(out) // 40)):
                self.assertIsNotNone(self._check(job, out=_flip(out, pos)),
                                     f"{job['id']} byte {pos}")
        # a certifier report is pinned down exactly in its verdict and
        # polynomial; root digits are only checked to numpy's accuracy
        out = self.results[CYCLO_JOB["id"]]["out"]
        for field in (b'"verdict": "', b'"poly": [\n    "'):
            pos = out.index(field) + len(field)
            self.assertIsNotNone(self._check(CYCLO_JOB, out=_flip(out, pos)), field)

    def test_wrong_exit_code_fails(self):
        self.assertIsNotNone(self._check(SK_JOB, code=1))
        self.assertIsNotNone(self._check(SCAN_JOB, code=3))
        # Inconclusive with exit 0, and any verdict with exit 1
        self.assertIsNotNone(self._check(CYCLO_JOB, code=0))
        self.assertIsNotNone(self._check(SET_JOB, code=1))

    def test_cyclotomic_certified_fails(self):
        blob = json.loads(self.results[CYCLO_JOB["id"]]["out"])
        blob.update(verdict=checks.NEP, reasons=[])
        forged = (json.dumps(blob, indent=2, sort_keys=True) + "\n").encode()
        self.assertIn("cyclotomic", self._check(CYCLO_JOB, code=0, out=forged))

    def test_each_failure_is_counted(self):
        job_list = [SK_JOB, SCAN_JOB, CYCLO_JOB, SET_JOB]
        good = [dict(self.results[j["id"]]) for j in job_list]
        for res in good:
            res["sha256"] = hashlib.sha256(res["out"]).hexdigest()
        self.assertEqual(run.failures(job_list, [(False, good), (False, good)]), [])

        bad = [dict(res) for res in good]
        bad[0]["out"] = _flip(bad[0]["out"], len(bad[0]["out"]) // 2)
        bad[1]["code"] = 1
        blob = json.loads(bad[2]["out"])
        blob.update(verdict=checks.NEP, reasons=[])
        bad[2]["out"] = (json.dumps(blob, indent=2, sort_keys=True) + "\n").encode()
        bad[2]["code"] = 0
        self.assertEqual(len(run.failures(job_list, [(False, bad)])), 3)

        # a later pass that differs from the first counts as well
        later = [dict(res) for res in good]
        later[3]["sha256"] = "0" * 64
        self.assertEqual(len(run.failures(job_list, [(False, good), (True, later)])), 1)

    def test_traced_run_prints_the_same_bytes(self):
        for job in (SK_JOB, SCAN_JOB):
            traced = self.runner.traced(job["argv"])
            plain = self.results[job["id"]]
            self.assertEqual((traced["code"], traced["out"]), (plain["code"], plain["out"]))
            layers = traced["layers"]
            self.assertGreater(layers["process.overhead_s"], 0)
            self.assertEqual(layers["cli.main.calls"], 1)
        self.assertEqual(layers["backend.first_violation.calls"], 1 << SCAN_JOB["N"])


class JobLists(unittest.TestCase):
    def test_same_seed_same_list(self):
        for workload in jobs.WORKLOADS:
            self.assertEqual(jobs.job_list(workload, 7), jobs.job_list(workload, 7))

    def test_other_seed_other_inputs_same_mix(self):
        for workload in jobs.WORKLOADS:
            a, b = jobs.job_list(workload, 1), jobs.job_list(workload, 2)
            self.assertNotEqual(sorted(j["argv"] for j in a), sorted(j["argv"] for j in b))
            self.assertEqual(Counter(j["kind"] for j in a), Counter(j["kind"] for j in b))

    def test_generated_jobs_are_accepted_inputs(self):
        for seed in range(20):
            for job in jobs.job_list("certify", seed):
                if job["kind"] == "nonperiodic":
                    self.assertTrue(any(a % 2 == 0 for a in job["set"]), job["argv"])
                else:
                    self.assertEqual(job["poly"][0], 1)
                    self.assertGreaterEqual(len(job["poly"]) - 1, 2)


class Trace(unittest.TestCase):
    def test_self_time_subtracts_children_once(self):
        spans = [["cli.main", 0.0, 10.0, -1], ["a", 1.0, 3.0, 0], ["b", 4.0, 8.0, 0],
                 ["c", 5.0, 6.0, 2]]
        self.assertEqual(run.self_times(spans), [4.0, 2.0, 3.0, 1.0])

    def test_import_times(self):
        stderr = (b"import time: self [us] | cumulative | imported package\n"
                  b"import time:       100 |        300 |   numpy\n"
                  b"import time:        50 |        800 | compsigns.cli\n"
                  b"import time:        10 |         20 | compsigns\n"
                  b"import time:         5 |         40 |   compsigns._backend\n")
        got = run.import_times(stderr)
        self.assertAlmostEqual(got["import.compsigns_s"], 820e-6)
        self.assertAlmostEqual(got["import.numpy_s"], 300e-6)
        self.assertEqual(got["import.mpmath_s"], 0.0)


if __name__ == "__main__":
    unittest.main()
