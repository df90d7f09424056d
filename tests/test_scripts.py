"""The scripts run: those whose output the docs quote reproduce the quoted
numbers, and the A/B script runs a pair end to end."""

import importlib.util
import json
import os
import re
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


def test_ab_runs_one_pair_against_the_same_tree(tmp_path):
    # This checkout as its own parent: both runs of the pair do the same
    # work, so their digests agree, and the script writes nothing under
    # benchmarks/.
    before = sorted((ROOT / "benchmarks").rglob("*"))
    record = tmp_path / "ab.json"
    result = subprocess.run(
        [sys.executable, "scripts/ab.py", str(ROOT), "--workload", "adversary-cli",
         "--pairs", "1", "--seconds", "0.1", "--record", str(record)],
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
    summary = [line for line in lines[start + 1:] if line]
    names = ["games_per_s", "job_ms_p50", "job_ms_p90", "peak_rss_mb", "setup_s"]
    assert [line.split()[0] for line in summary] == names
    # One pair is too few for a claim, and one parent run has no spread.
    assert all(re.search(r"  too few pairs, (within|worse than) bound \(\d+%\)$", line)
               for line in summary)
    assert "DIGEST MISMATCH" not in result.stdout
    assert sorted((ROOT / "benchmarks").rglob("*")) == before
    data = json.loads(record.read_text())["workloads"]["adversary-cli"]
    assert [len(data["runs"][side]) for side in ("parent", "change")] == [1, 1]
    assert data["runs"]["parent"][0]["digest"] == data["runs"]["change"][0]["digest"]
    assert list(data["ratios"][0]) == list(data["metrics"]) == names
    assert data["metrics"]["peak_rss_mb"]["bound"] == 0.1
    assert data["metrics"]["games_per_s"]["claim"] == "too few pairs"
    assert data["digest_mismatches"] == 0


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_verdicts_on_hand_valued_runs():
    verdicts = load_script("ab").verdicts
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    # Lower is better: 9 of 10 wins, medians 1.00 -> 0.90 against a parent
    # quartile distance of 0.035.
    change = [0.90] * 9 + [1.05]
    assert verdicts(parent, change, "lower", 0.2) == {
        "wins": 9, "pairs": 10, "claim": "claim holds", "regression": "within bound"}
    # 8 of 10 wins is too few; so is a median gain inside the parent's spread.
    assert verdicts(parent, [0.90] * 8 + [1.05] * 2, "lower", 0.2)["claim"] == "claim not met"
    assert verdicts(parent, [p - 0.01 for p in parent], "lower", 0.2)["claim"] == "claim not met"
    # The same runs read as throughput: the change lost, by 10%.
    assert verdicts(parent, change, "higher", 0.2)["regression"] == "within bound"
    assert verdicts(parent, change, "higher", 0.08)["regression"] == "worse than bound"
    assert verdicts(parent[:3], change[:3], "lower", 0.2)["claim"] == "too few pairs"
    # A parent spread (0.97-1.03, 6%) wider than the bound leaves it
    # unresolved, unless every change run reads better than every parent run.
    assert verdicts(parent, [1.2] * 10, "lower", 0.05)["regression"] == "unresolved"
    assert verdicts(parent, [0.5] * 10, "lower", 0.05)["regression"] == "within bound"
    assert verdicts(parent, [1.2] * 10, "lower", 0.1)["regression"] == "worse than bound"


CODE_LINES_SAMPLE = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps its line

# a comment-only line


class Board:
    """A class docstring."""

    size = 3

    def place(self):
        """A function docstring."""
        # an indented comment-only line
        text = """a string that is
not a docstring"""
        return text
'''


def test_code_lines_skips_docstrings_comment_only_lines_and_blanks():
    # Counted: the import, the class and def lines, `size`, the two lines
    # of the string that is not a docstring and the return.
    assert load_script("code_lines").code_lines(CODE_LINES_SAMPLE) == 7
