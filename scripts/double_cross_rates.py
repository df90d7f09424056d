"""How many random greedy games end up with a double-cross finding.

Plays greedy on `random_two_regular(n, seed)` for seed = 0, 1, ..., count - 1
at each size and counts the games whose trace has at least one finding of
the double-cross audit (`oscm.propagation.audit_no_double_cross`), and the
findings in all. Deterministic; run from the repository root:

    PYTHONPATH=src python3 scripts/double_cross_rates.py
    PYTHONPATH=src python3 scripts/double_cross_rates.py 10:400 20:200
"""

from __future__ import annotations

import sys

from oscm import GREEDY, audit_trace, play, random_two_regular

DEFAULT = ((10, 400), (20, 200), (40, 100), (80, 50), (160, 20), (320, 10))


def rate(n: int, count: int) -> tuple[int, int]:
    """(games with a finding, findings) over seeds 0..count-1 at size n."""
    games = findings = 0
    for seed in range(count):
        trace = play(random_two_regular(n, seed), GREEDY)
        found = len(audit_trace(trace, frozenset({"double_cross"})))
        games += found > 0
        findings += found
    return games, findings


def main(argv: list[str]) -> None:
    plan = [tuple(map(int, arg.split(":"))) for arg in argv] or DEFAULT
    print("| n | seeds | games with a finding | findings |")
    print("|---:|---:|---:|---:|")
    for n, count in plan:
        games, findings = rate(n, count)
        print(f"| {n} | 0..{count - 1} | {games}/{count} | {findings:,} |", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
