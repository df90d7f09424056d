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
    # Both trace audits run on every game; each finding's wording names its
    # audit. The gap and double-cross shapes are invariants greedy is meant
    # to keep (it nearly does; the README has its rates). first_fit and
    # barycenter place without regard to the arrows, so their double
    # crosses are expected.
    kinds = {"gaps": " pair (", "double crosses": ": arrows ["}
    print(f"{'algorithm':12} {'max ratio':>9} {'mean ratio':>10} "
          + " ".join(f"{label:>15}" for label in kinds))
    results = {}
    for name in sorted(ALGORITHMS):
        res = sweep(ALGORITHMS[name], sizes, trials=trials, seed=seed)
        results[name] = res
        findings = [f for rec in res.trials for f in rec.report.audit_findings]
        counts = [sum(word in f for f in findings) for word in kinds.values()]
        print(f"{name:12} {res.max_ratio:>9.3f} {res.mean_ratio:>10.3f} "
              + " ".join(f"{count:>15}" for count in counts))

    print()
    print("greedy's findings:")
    for rec in results["greedy"].trials:
        for finding in rec.report.audit_findings:
            print(f"  {rec.report.source_id}: {finding}")

    print()
    print("pair-kind histogram, final layouts (greedy sweep):")
    for kind, count in sorted(results["greedy"].histogram.items()):
        print(f"  {kind:12} {count}")

    out = "greedy_sweep.csv"
    write_csv(results["greedy"], out)
    print(f"\nwrote per-trial rows to {out}")


if __name__ == "__main__":
    main()
