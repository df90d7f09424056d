"""The scripts whose output the docs quote reproduce the quoted numbers."""

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
