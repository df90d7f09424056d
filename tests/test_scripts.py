"""The scripts run: those whose output the docs quote reproduce the quoted
numbers, and the A/B script runs a pair end to end."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_double_cross_rates_match_the_quoted_table():
    # README and `audit_no_double_cross` quote the double-cross columns,
    # README the gap columns.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "scripts/double_cross_rates.py", "10:400", "20:200"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    rows = result.stdout.splitlines()[2:]
    assert rows == [
        "| 10 | 0..399 | 5/400 | 8 | 0/400 | 0 |",
        "| 20 | 0..199 | 67/200 | 186 | 0/200 | 0 |",
    ]


def test_ab_runs_one_pair_against_the_same_tree():
    # This checkout as its own parent: both runs of the pair do the same
    # work, so their digests agree, and the script writes nothing under
    # benchmarks/.
    before = sorted((ROOT / "benchmarks").rglob("*"))
    result = subprocess.run(
        [sys.executable, "scripts/ab.py", str(ROOT), "--workload", "adversary-cli",
         "--pairs", "1", "--seconds", "0.1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    lines = result.stdout.splitlines()
    assert "pair 1 (parent first)" in lines
    runs = [line for line in lines if line.startswith(("  parent seed 1", "  change seed 1"))]
    assert len(runs) == 2
    assert len({line.rsplit("digest ", 1)[1] for line in runs}) == 1
    assert any(line.startswith("  change/parent  games_per_s=") for line in lines)
    start = next(i for i, line in enumerate(lines) if line.startswith("summary of adversary-cli"))
    summary = [line.split()[0] for line in lines[start + 1:] if line]
    assert summary == ["games_per_s", "job_ms_p50", "job_ms_p90", "peak_rss_mb", "setup_s"]
    assert "DIGEST MISMATCH" not in result.stdout
    assert sorted((ROOT / "benchmarks").rglob("*")) == before
