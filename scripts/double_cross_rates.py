"""How many random greedy games end up with a double-cross or a gap finding.

Plays greedy on `random_two_regular(n, seed)` for seed = 0, 1, ..., count - 1
at each size through `oscm.harness.run_experiment`, which audits each game
on the board that plays it, and counts per audit, in the report's
findings, the games with at least one finding and the findings in all:
double crosses (`oscm.propagation.audit_no_double_cross`, findings worded
"arrows [") and gaps (a 4-0 or 3-0 pair with a free slot between, worded
"<KIND> pair ("). Deterministic; run from the repository root:

    PYTHONPATH=src python3 scripts/double_cross_rates.py
    PYTHONPATH=src python3 scripts/double_cross_rates.py 10:400 20:200
"""

from __future__ import annotations

import sys

from oscm import GREEDY, random_two_regular, run_experiment

DEFAULT = ((10, 400), (20, 200), (40, 100), (80, 50), (160, 20), (320, 10))
KINDS = (": arrows [", " pair (")


def rate(n: int, count: int) -> list[tuple[int, int]]:
    """Per kind in `KINDS`, (games with a finding, findings) over seeds
    0..count-1 at size n."""
    totals = [[0, 0] for _ in KINDS]
    for seed in range(count):
        findings = run_experiment(GREEDY, random_two_regular(n, seed))[0].audit_findings
        for total, kind in zip(totals, KINDS):
            found = sum(kind in f for f in findings)
            total[0] += found > 0
            total[1] += found
    return [tuple(total) for total in totals]


def main(argv: list[str]) -> None:
    plan = [tuple(map(int, arg.split(":"))) for arg in argv] or DEFAULT
    print(
        "| n | seeds | games with a double cross | double crosses"
        " | games with a gap | gaps |"
    )
    print("|---:|---:|---:|---:|---:|---:|")
    for n, count in plan:
        cells = " | ".join(f"{games}/{count} | {found:,}" for games, found in rate(n, count))
        print(f"| {n} | 0..{count - 1} | {cells} |", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
