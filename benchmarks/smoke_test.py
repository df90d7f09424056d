"""Smoke test of the benchmark itself, at tiny sizes:

    python3 benchmarks/smoke_test.py

Every workload runs in both modes and must print every metric that
BENCHMARK.json names; every output check must flag a wrong answer; and the
benchmark must refuse to run without the library's sources.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
import unittest

import run

run.import_library()

from workloads import WORKLOADS, AdversaryCli, GreedyMid, SweepExact  # noqa: E402

CONTRACT = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    w.name: w
    for w in (
        SweepExact(ns=(3, 4), trials=2, pool=12),
        GreedyMid(sizes=(4, 6), pool=8),
        AdversaryCli(
            specs=(
                ("--name", "thm2", "--rounds", "1", "--algo", "first_fit"),
                ("--name", "thm1", "--n", "4", "--algo", "barycenter"),
                ("--name", "fig8", "--n", "4", "--algo", "barycenter"),
            ),
            pool=6,
        ),
    )
}


@contextlib.contextmanager
def tiny_settings():
    saved = dict(WORKLOADS), run.MIN_JOBS, run.SETUP_REPS
    WORKLOADS.update(TINY)
    run.MIN_JOBS, run.SETUP_REPS = 1, 1
    try:
        yield
    finally:
        WORKLOADS.update(saved[0])
        run.MIN_JOBS, run.SETUP_REPS = saved[1], saved[2]


def first_result(workload):
    job = workload.plan(3, 1)[0]
    return job, workload.call(job)


class BenchmarkSmokeTest(unittest.TestCase):
    def test_every_named_metric_is_printed(self):
        for name in TINY:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace), tiny_settings():
                    out = io.StringIO()
                    argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
                    with contextlib.redirect_stdout(out):
                        self.assertEqual(run.main(argv), 0)
                    lines = out.getvalue().splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"], "\n".join(lines[:-1]))
                    self.assertEqual(result["failed"], 0)
                    expected = {m["name"]: m["unit"] for m in CONTRACT[section]}
                    self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, expected)
                    for metric in expected:
                        self.assertTrue(any(line.split()[:1] == [metric] for line in lines), metric)
                    self.assertTrue(any(line.split()[:1] == ["failed_frac"] for line in lines))
                    if not trace:
                        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_sweep_check_flags_a_wrong_optimum(self):
        w = TINY["sweep-exact"]
        job, result = first_result(w)
        self.assertEqual(w.check(job, result)[1], [])
        rec = result.trials[0]
        bad_report = dataclasses.replace(rec.report, opt_crossings=rec.report.opt_crossings + 1)
        bad = dataclasses.replace(result, trials=(dataclasses.replace(rec, report=bad_report),) + result.trials[1:])
        self.assertTrue(w.check(job, bad)[1])

    def test_greedy_check_flags_a_wrong_total(self):
        w = TINY["greedy-mid"]
        job, (report, trace) = first_result(w)
        self.assertEqual(w.check(job, (report, trace))[1], [])
        bad = dataclasses.replace(report, alg_crossings=report.alg_crossings + 1)
        self.assertTrue(w.check(job, (bad, trace))[1])

    def test_adversary_check_flags_a_wrong_ratio_and_exit_code(self):
        w = TINY["adversary-cli"]
        job, (code, out, err) = first_result(w)
        self.assertEqual(w.check(job, (code, out, err))[1], [])
        self.assertTrue(w.check(job, (code, out.replace("ratio=", "ratio=9", 1), err))[1])
        self.assertTrue(w.check(job, (1, out, err))[1])
        self.assertTrue(w.check(job, (code, out.replace("opt basis", "basis"), err))[1])

    def test_a_raising_job_counts_as_failed(self):
        class Broken(GreedyMid):
            def call(self, job):
                raise RuntimeError("deliberate")

        names = [m["name"] for m in CONTRACT["end_to_end"]]
        _, _, attempted, failed, problems = run.measure(Broken(sizes=(4, 6), pool=4), 3, 0, 0, names, 1, 1)
        self.assertEqual(failed, attempted)
        self.assertIn("deliberate", problems[0])

    def test_refuses_to_run_without_the_library(self):
        bare = run.OUT_DIR / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy2(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(run.ROOT / "benchmarks", bare / "benchmarks",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        try:
            proc = subprocess.run(
                [sys.executable, "benchmarks/run.py", "--workload", "greedy-mid",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(any(line.startswith("{") for line in proc.stdout.splitlines()))


if __name__ == "__main__":
    unittest.main()
