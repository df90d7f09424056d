"""A/B of the benchmark's end-to-end metrics: a parent checkout against this one.

For each workload, runs

    python3 benchmarks/run.py --workload W --seed i --seconds S

from PARENT_DIR and from this checkout, for pairs i = 1..--pairs. Odd pairs
run the parent first and even pairs this checkout first, as the side that
runs second tends to read faster. One warm-up run per side (seed 0) comes
first and is discarded. Each run imports the `src/` of its own checkout,
as `run.py` does, and caches its bytecode in a temporary directory, so
nothing is written under either checkout's `benchmarks/`.

It prints every run's end-to-end metrics and digest, each pair's
change/parent ratio per metric, and per metric the change's win count (the
pairs where it reads better, in the direction BENCHMARK.json gives), the
median and quartiles of each side and two verdicts (`verdicts`):

- a gain: `claim holds` when the change wins at least nine tenths of the
  pairs and the medians differ, in its favour, by more than the distance
  between the parent's quartiles; `claim not met` otherwise, and `too few
  pairs` below ten pairs;
- a regression: `worse than bound` when the change's median is worse than
  the parent's by more than the metric's BENCHMARK.json bound, `within
  bound` otherwise; `unresolved` when the parent's own runs spread (max -
  min, over their median) wider than the bound and not every change run
  reads better than every parent run.

A pair whose two runs print different digests did different work; it is
flagged, and the exit status is 1. `--record PATH` writes every run, the
ratios and the verdicts as JSON. From the repository root:

    python3 scripts/ab.py ../parent --workload all --pairs 10 --seconds 20 --record BENCH.json
    python3 scripts/ab.py ../parent --workload adversary-cli --pairs 1 --seconds 0.1
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(checkout: Path, workload: str, seed: int, seconds: float, env: dict) -> dict:
    """One benchmark run in `checkout`: its end-to-end metric values, its
    digest and its failed-job count. A run that exits non-zero or prints no
    JSON line stops the script."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.exit(f"error: {' '.join(argv[1:])} in {checkout} failed"
                 f" (exit {proc.returncode}):\n{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    digest = re.search(r"^\s*digest (\w+)", proc.stdout, re.MULTILINE)
    return {
        "values": {name: m["value"] for name, m in result["metrics"].items()},
        "digest": digest[1] if digest else "?",
        "failed": result["failed"],
    }


def describe(label: str, seed: int, r: dict, metrics: list[str]) -> str:
    values = "  ".join(f"{name}={r['values'][name]:.4f}" for name in metrics)
    return f"  {label:6s} seed {seed}  {values}  failed={r['failed']}  digest {r['digest'][:12]}"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of `values`, inclusive quartiles; a single value is
    all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdicts(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The change's win count over the pairs (parent[i] against change[i])
    and its two verdicts on one metric, as the module docstring states
    them. `better` is "higher" or "lower"; `bound` is a fraction of the
    parent's median."""
    sign = 1 if better == "higher" else -1
    pairs = len(parent)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if pairs < 10:
        claim = "too few pairs"
    elif 10 * wins >= 9 * pairs and sign * (cm - pm) > p3 - p1:
        claim = "claim holds"
    else:
        claim = "claim not met"
    if all(sign * (c - p) > 0 for c in change for p in parent):
        regression = "within bound"
    elif pm and (max(parent) - min(parent)) / abs(pm) > bound:
        regression = "unresolved"
    elif pm and sign * (cm - pm) / abs(pm) < -bound:
        regression = "worse than bound"
    else:
        regression = "within bound"
    return {"wins": wins, "pairs": pairs, "claim": claim, "regression": regression}


def ab(parent: Path, workload: str, pairs: int, seconds: float,
       contract: dict[str, dict], env: dict) -> dict:
    """Run and print one workload's pairs; returns its record: every run,
    each pair's ratios, each metric's summary and verdicts, and how many
    pairs' digests differ."""
    metrics = list(contract)
    sides = {"parent": parent, "change": ROOT}
    print(f"workload {workload}: {pairs} pair(s) of {seconds:g} s runs,"
          f" parent {parent}, change {ROOT}")
    for checkout in sides.values():
        run(checkout, workload, 0, seconds, env)
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    ratios = []
    mismatches = 0
    for seed in range(1, pairs + 1):
        order = ["parent", "change"] if seed % 2 else ["change", "parent"]
        got = {label: run(sides[label], workload, seed, seconds, env) for label in order}
        print(f"pair {seed} ({order[0]} first)")
        for label in order:
            print(describe(label, seed, got[label], metrics))
            runs[label].append({"seed": seed, "first": label == order[0], **got[label]})
        pair = {
            name: got["change"]["values"][name] / got["parent"]["values"][name]
            if got["parent"]["values"][name] else None
            for name in metrics
        }
        ratios.append(pair)
        print("  change/parent  " + "  ".join(
            f"{name}={'nan' if ratio is None else format(ratio, '.3f')}"
            for name, ratio in pair.items()))
        if got["parent"]["digest"] != got["change"]["digest"]:
            mismatches += 1
            print(f"  DIGEST MISMATCH: parent {got['parent']['digest']}"
                  f" vs change {got['change']['digest']}")
    print(f"summary of {workload} over {pairs} pair(s): wins are pairs where the change reads better")
    summary = {}
    for name in metrics:
        better, bound = contract[name]["better"], contract[name]["bound"]
        parent_values = [r["values"][name] for r in runs["parent"]]
        change_values = [r["values"][name] for r in runs["change"]]
        p1, pm, p3 = quartiles(parent_values)
        c1, cm, c3 = quartiles(change_values)
        verdict = verdicts(parent_values, change_values, better, bound)
        summary[name] = {
            "better": better, "bound": bound,
            "parent": {"q1": p1, "median": pm, "q3": p3},
            "change": {"q1": c1, "median": cm, "q3": c3},
            **verdict,
        }
        print(f"  {name:12s} ({better} is better)  wins {verdict['wins']}/{pairs}"
              f"  parent median {pm:.4f} [{p1:.4f}, {p3:.4f}]"
              f"  change median {cm:.4f} [{c1:.4f}, {c3:.4f}]"
              f"  {verdict['claim']}, {verdict['regression']} ({bound:.0%})")
    if mismatches:
        print(f"  {mismatches} pair(s) with different digests")
    print()
    return {"pairs": pairs, "seconds": seconds, "runs": runs, "ratios": ratios,
            "metrics": summary, "digest_mismatches": mismatches}


def main(argv: list[str] | None = None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, metavar="PARENT_DIR",
                        help="a checkout of the parent commit")
    parser.add_argument("--workload", default="all", choices=[*names, "all"])
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--record", type=Path, metavar="PATH",
                        help="write every run, the ratios and the verdicts here as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    if not (args.parent / "benchmarks" / "run.py").is_file():
        parser.error(f"{args.parent} has no benchmarks/run.py")
    metrics = {m["name"]: m for m in contract["end_to_end"]}
    record = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as cache:
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        env["PYTHONPYCACHEPREFIX"] = cache
        for workload in names if args.workload == "all" else [args.workload]:
            record["workloads"][workload] = ab(args.parent.resolve(), workload, args.pairs,
                                               args.seconds, metrics, env)
    if args.record:
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    mismatches = sum(w["digest_mismatches"] for w in record["workloads"].values())
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
