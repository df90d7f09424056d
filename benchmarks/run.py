"""oscm benchmark.

One workload per process, one client thread, closed loop: the next job
starts when the previous one returns. Whole cycles of jobs run until
``--seconds`` have passed and at least 100 jobs are done, so the 90th
percentile has ten samples beyond it.

    python3 benchmarks/run.py --workload greedy-mid --seed 1 --seconds 10 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 10 --runs 10

The last line of a single-workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. A traced run first repeats the untraced measurement, then
plays the same jobs again with every layer wrapped (see tracing.py), and
writes its spans under benchmarks/out/.

``--workload all`` runs every workload in its own process ``--runs`` times
with seeds seed, seed+1, ..., plus one traced run each, prints each
end-to-end metric's median and quartile spread, and writes a record
(environment, workload composition, layer map, results) to ``--record``.

The library is imported from ``src/`` of the checkout this file sits in and
nowhere else; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "benchmarks" / "out"
MIN_JOBS = 100
SETUP_REPS = 5
DIGEST_JOBS = 100
# Warm-up jobs come from a fixed seed, so set-up costs the same for every
# run seed; the timed jobs come from the run seed.
WARMUP_SEED = -1

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = {
    "offline.brute_force_opt.*": "all e2e metrics on sweep-exact; 0 calls elsewhere",
    "algorithms.choose.*, model.apply.calls, propagation.arrows.*, crossings.pair_crossings.calls":
        "games_per_s and job_ms_p90 on greedy-mid; a little on sweep-exact; none on adversary-cli",
    "algorithms.play.*, crossings.total_crossings.*": "games_per_s on adversary-cli",
    "harness.audit_trace.*, propagation.audit_*": "adversary-cli mostly, then greedy-mid and sweep-exact",
    "cli.main.self_s, algorithms.play.calls (2 per job)": "adversary-cli",
    "harness.run_experiment.self_s, harness.pair_type_histogram.*, harness.sweep.self_s, "
    "offline.sorted_order_value.*, adversaries.next_request.*": "the workload that calls them",
    "trace_overhead_frac": "none; traced wall time / untraced wall time - 1",
}


def import_library() -> float:
    """Import oscm from this checkout's src/ and the modules that drive it;
    returns the seconds the imports took."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = perf_counter()
    try:
        import oscm
        import tracing  # noqa: F401  (imported here so setup_s counts it)
        import workloads  # noqa: F401
    except ImportError as exc:
        sys.exit(f"error: cannot import oscm from {src}: {exc}")
    if not Path(oscm.__file__).resolve().is_relative_to(src):
        sys.exit(f"error: oscm was imported from {oscm.__file__}, not from {src}")
    return perf_counter() - start


@dataclass
class Phase:
    """One closed-loop pass over consecutive pool jobs."""

    job_s: list[float] = field(default_factory=list)
    games: int = 0
    failed: int = 0
    wall_s: float = 0.0
    problems: list[str] = field(default_factory=list)
    digest: str = ""


def run_jobs(workload, pool, seconds, min_jobs, recorder=None) -> Phase:
    """Run whole cycles of pool jobs, in order, until `seconds` have passed
    and at least `min_jobs` jobs are done, checking every output.

    The digest covers the outputs of the first DIGEST_JOBS jobs. A job
    that repeats an earlier job must repeat its output too."""
    phase = Phase()
    digest = hashlib.sha256()
    seen: dict = {}
    index = 0
    t0 = perf_counter()
    while True:
        for _ in range(workload.cycle):
            job = pool[index % len(pool)]
            call = functools.partial(workload.call, job)
            error = None
            ts = perf_counter()
            try:
                result = recorder.job_span(index, call) if recorder else call()
            except Exception:
                error = traceback.format_exc()
            phase.job_s.append(perf_counter() - ts)
            if error is None:
                try:
                    text, problems = workload.check(job, result)
                except Exception:
                    text, problems = None, [traceback.format_exc()]
                if text is not None and seen.setdefault(job, text) != text:
                    problems.append("output differs from an earlier run of the same job")
            else:
                text, problems = None, [error]
            if problems:
                phase.failed += 1
                phase.problems.append(f"job {index} {job!r:.120}: " + "; ".join(problems))
            else:
                phase.games += workload.games_per_job
            if len(phase.job_s) <= DIGEST_JOBS:
                digest.update(f"{index}\n{text}\n".encode())
            index += 1
        phase.wall_s = perf_counter() - t0
        if phase.wall_s >= seconds and len(phase.job_s) >= min_jobs:
            break
    phase.digest = digest.hexdigest()
    return phase


def set_up(workload, seed, reps):
    """Build the job pool and warm up on one cycle of jobs, `reps` times;
    returns the pool, the median seconds per repetition and the warm-ups."""
    seconds, warmups = [], []
    for _ in range(reps):
        t0 = perf_counter()
        pool = workload.plan(seed, workload.pool)
        warm = workload.plan(WARMUP_SEED, workload.cycle)
        warmups.append(run_jobs(workload, warm, 0, workload.cycle))
        seconds.append(perf_counter() - t0)
    return pool, statistics.median(seconds), warmups


def layer_value(name, summary, recorder) -> float:
    """A per-layer metric ``<span>.<field>``; a span name also covers the
    spans beneath it, so ``algorithms.choose`` sums all three algorithms."""
    span, stat = name.rsplit(".", 1)
    if stat == "scaling_exp":
        return recorder.scaling_exponent(span)
    rows = [row for key, row in summary.items() if key == span or key.startswith(span + ".")]
    if not rows:
        raise KeyError(f"per-layer metric {name!r} names no traced function")
    return sum(row[stat] for row in rows)


def measure(workload, seed, seconds, trace, metric_names, min_jobs, setup_reps,
            import_s=0.0, spans_path=None):
    """Set up, measure and check one workload; returns (report lines,
    values of `metric_names`, jobs attempted, jobs failed, problems)."""
    import tracing

    pool, setup_s, warmups = set_up(workload, seed, setup_reps)
    timed = run_jobs(workload, pool, seconds, min_jobs)
    phases = warmups + [timed]
    lines = [
        f"workload {workload.name}  seed {seed}  trace {trace}",
        f"  composition: {workload.describe()}",
        f"  closed loop, 1 client thread: {len(timed.job_s)} jobs, {timed.games} games"
        f" in {timed.wall_s:.3f} s",
        f"  failed_frac {timed.failed / len(timed.job_s):.6f} ratio"
        f" ({timed.failed} of {len(timed.job_s)} jobs)",
        f"  digest {timed.digest} (first {min(DIGEST_JOBS, len(timed.job_s))} jobs)",
    ]
    if not trace:
        job_ms = sorted(s * 1000 for s in timed.job_s)
        measured = {
            "games_per_s": timed.games / timed.wall_s,
            # The upper median: whole cycles give every size class the same
            # number of jobs, so the averaged median would fall in the gap
            # between two classes and swing with their extreme jobs.
            "job_ms_p50": statistics.median_high(job_ms),
            "job_ms_p90": statistics.quantiles(job_ms, n=10, method="inclusive")[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": import_s + setup_s,
        }
        values = {name: measured[name] for name in metric_names}
    else:
        recorder = tracing.Recorder()
        uninstall = recorder.install()
        try:
            traced = run_jobs(workload, pool, 0, len(timed.job_s), recorder)
        finally:
            uninstall()
        phases.append(traced)
        if traced.digest != timed.digest:
            traced.problems.append("traced outputs differ from untraced outputs")
            traced.failed += 1
        summary = recorder.summary()
        extra = {
            "traced_jobs": len(traced.job_s),
            "traced_wall_s": traced.wall_s,
            "trace_overhead_frac": traced.wall_s / timed.wall_s - 1,
        }
        values = {name: extra[name] if name in extra else layer_value(name, summary, recorder)
                  for name in metric_names}
        lines.append(f"  traced: {len(traced.job_s)} jobs in {traced.wall_s:.3f} s;"
                     " self time by span (share of traced wall time):")
        for name, row in sorted(summary.items(), key=lambda kv: -kv[1].get("self_s", 0)):
            self_s = row.get("self_s")
            share = f"{self_s:10.4f} s {100 * self_s / traced.wall_s:5.1f} %" if self_s is not None else " " * 20
            lines.append(f"    {name:38s} {share} {row['calls']:>10d} calls")
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            recorder.write(spans_path)
            lines.append(f"  spans written to {spans_path}")
    attempted = sum(len(p.job_s) for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [msg for p in phases for msg in p.problems]
    return lines, values, attempted, failed, problems


def run_one(args, contract) -> int:
    import_s = import_library()
    from workloads import WORKLOADS

    # The oracle's size bound is an environment setting; fix it at its default.
    os.environ.pop("OSCM_BRUTE_FORCE_MAX_N", None)
    section = contract["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz" if args.trace else None
    lines, values, attempted, failed, problems = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, args.trace, list(units),
        MIN_JOBS, SETUP_REPS, import_s=import_s, spans_path=spans_path,
    )
    for line in lines:
        print(line)
    for name, value in values.items():
        print(f"  {name:40s} {value:14.6f} {units[name]}")
    for msg in problems[:20]:
        print(f"  FAILED {msg}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def run_all(args, contract) -> int:
    """Each workload in its own process: `runs` untraced runs, one traced."""
    import_library()
    from workloads import WORKLOADS

    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    record = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "run_seconds": args.seconds,
        "seeds": list(range(args.seed, args.seed + args.runs)),
        "end_to_end_metrics": contract["end_to_end"],
        "per_layer_metrics": contract["per_layer"],
        "layer_map": LAYER_MAP,
        "workloads": {},
    }
    status = 0
    for entry in contract["workloads"]:
        name = entry["name"]
        runs = []
        for trace, seed in [(0, args.seed + r) for r in range(args.runs)] + [(1, args.seed)]:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr)
                print(f"{name} seed {seed} trace {trace}: exit code {proc.returncode}")
                status = 1
                continue
            out = proc.stdout.splitlines()
            result = json.loads(out[-1])
            digest = re.search(r"digest (\w+)", proc.stdout)[1]
            runs.append({"seed": seed, "trace": trace, "digest": digest, **result})
            if not result["correct"]:
                print("\n".join(out[:-1]))
                status = 1
            print(f"{name} seed {seed} trace {trace}: {result['attempted']} jobs,"
                  f" {result['failed']} failed, digest {digest[:16]}")
        untraced = [r for r in runs if r["trace"] == 0]
        stats = {}
        for metric in units:
            values = [r["metrics"][metric]["value"] for r in untraced]
            if not values:
                continue
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
            stats[metric] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "bound": bounds[metric]}
        attempted = sum(r["attempted"] for r in untraced)
        failed = sum(r["failed"] for r in untraced)
        record["workloads"][name] = {
            "why": entry["why"],
            "composition": WORKLOADS[name].describe(),
            "jobs_per_cycle": WORKLOADS[name].cycle,
            "failed_frac": failed / attempted if attempted else None,
            "end_to_end": stats,
            "runs": runs,
        }
        print(f"\n{name}: {len(untraced)} untraced runs")
        print(f"  failed_frac  {failed / attempted if attempted else float('nan'):.6f} ratio"
              f" ({failed} of {attempted} jobs)")
        for metric, s in stats.items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- spread above bound/3"
            print(f"  {metric:12s} median {s['median']:12.4f} {units[metric]:8s}"
                  f" q1 {s['q1']:12.4f} q3 {s['q3']:12.4f} spread {100 * s['spread']:6.2f} %"
                  f" (bound {100 * s['bound']:.0f} %){flag}")
        print()
    args.record.parent.mkdir(parents=True, exist_ok=True)
    args.record.write_text(json.dumps(record, indent=2) + "\n")
    print(f"record written to {args.record}")
    return status


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--runs", type=int, default=1, help="untraced runs per workload (all)")
    parser.add_argument("--record", type=Path, default=OUT_DIR / "record.json",
                        help="where --workload all writes its record")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args, contract)
    return run_one(args, contract)


if __name__ == "__main__":
    sys.exit(main())
