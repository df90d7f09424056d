"""Runs the benchmark's own smoke test, so a library change that breaks the
benchmark's workloads or output checks fails the test suite too."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_test_passes():
    proc = subprocess.run(
        [sys.executable, "benchmarks/smoke_test.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
