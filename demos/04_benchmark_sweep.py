"""Benchmark sweep: competitive ratios of all three algorithms on random
2-regular games, with pair-kind histograms and a CSV report.

Every trial plays one random instance online, solves the same instance
exactly offline, audits the trace, and records the ratio. The sweep is
fully deterministic for a fixed seed. The per-trial rows of the greedy
sweep are written to greedy_sweep.csv in the current directory.

Run: python3 demos/04_benchmark_sweep.py
"""

from oscm.algorithms import ALGORITHMS
from oscm.harness import sweep, write_csv


def main() -> None:
    trials, seed, sizes = 200, 7, range(4, 10)
    print(f"{trials} random games each, sizes {sizes.start}..{sizes.stop - 1}, seed {seed}")
    print(f"{'algorithm':12} {'max ratio':>9} {'mean ratio':>10} {'audit findings':>14}")
    results = {}
    for name in sorted(ALGORITHMS):
        # Flow balance holds for everyone; the double-cross and gap shapes
        # are greedy-specific, so audit only the identity here.
        res = sweep(ALGORITHMS[name], sizes, trials=trials, seed=seed,
                    audits=frozenset({"equator"}))
        results[name] = res
        print(f"{name:12} {res.max_ratio:>9.3f} {res.mean_ratio:>10.3f} "
              f"{res.violation_count:>14}")

    print()
    print("pair-kind histogram, final layouts (greedy sweep):")
    for kind, count in sorted(results["greedy"].histogram.items()):
        print(f"  {kind:12} {count}")

    out = "greedy_sweep.csv"
    write_csv(results["greedy"], out)
    print(f"\nwrote per-trial rows to {out}")


if __name__ == "__main__":
    main()
