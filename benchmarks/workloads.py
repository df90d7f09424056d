"""The three benchmark workloads.

Each workload turns a seed into a pool of jobs, calls one public entry point
of oscm per job, and checks the job's output against references written
here, independently of the library's own counters. A job is one call into
oscm; a game is one online game played and scored.

Library names are resolved at call time (``harness.sweep``,
``algorithms.ALGORITHMS[...]``, ``cli.main``) so the traced run can wrap
them in place.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass

from oscm import algorithms, cli, harness, model, offline

# Captured before any wrapping, so output checks never add spans.
_random_two_regular = model.random_two_regular


def plain_crossings(placed) -> int:
    """Crossings of (slot, request) pairs, counted straight from the
    definition: (v1, s1) and (v2, s2) cross when (v1 - v2)(s1 - s2) < 0."""
    items = list(placed)
    total = 0
    for i, (s1, r1) in enumerate(items):
        for s2, r2 in items[i + 1:]:
            for v1 in (r1.a, r1.b):
                for v2 in (r2.a, r2.b):
                    if (v1 - v2) * (s1 - s2) < 0:
                        total += 1
    return total


def plain_sorted_order(inst) -> int:
    """Crossings when requests sit in lexicographic (a, b) order; equal
    requests share both endpoints, so their relative order cannot matter."""
    return plain_crossings(enumerate(sorted(inst.requests), start=1))


def _histogram_problem(hist: dict, n: int) -> list[str]:
    pairs = n * (n - 1) // 2
    total = sum(hist.values())
    return [] if total == pairs else [f"histogram sums to {total}, expected {pairs}"]


@dataclass(frozen=True)
class SweepExact:
    """``harness.sweep`` over random 2-regular games, scored against the
    exact oracle with all audits; the algorithm rotates per job."""

    name: str = "sweep-exact"
    algs: tuple[str, ...] = ("greedy", "barycenter", "first_fit")
    ns: tuple[int, ...] = tuple(range(4, 10))
    trials: int = 20
    pool: int = 1200

    @property
    def cycle(self) -> int:
        return len(self.algs)

    def describe(self) -> str:
        return (
            f"harness.sweep(alg, range({self.ns[0]}, {self.ns[-1] + 1}), trials={self.trials}, seed)"
            f" rotating {', '.join(self.algs)}; exact oracle, all audits"
        )

    def plan(self, seed: int, count: int) -> list:
        rng = random.Random(seed)
        return [(self.algs[i % self.cycle], rng.randrange(2**32)) for i in range(count)]

    @property
    def games_per_job(self) -> int:
        return self.trials

    def call(self, job):
        alg, sweep_seed = job
        return harness.sweep(algorithms.ALGORITHMS[alg], self.ns, trials=self.trials, seed=sweep_seed)

    def check(self, job, result) -> tuple[str, list[str]]:
        problems = []
        if result.alg_name != job[0] or len(result.trials) != self.trials:
            problems.append(f"sweep of {result.alg_name} has {len(result.trials)} trials")
        lines = [f"{result.alg_name} max={result.max_ratio!r} mean={result.mean_ratio!r}"]
        for rec in result.trials:
            r = rec.report
            inst = _random_two_regular(r.n, rec.instance_seed)
            expected = plain_sorted_order(inst)
            if r.opt_crossings != expected:
                problems.append(f"trial {rec.index}: opt {r.opt_crossings} != sorted order {expected}")
            if r.alg_crossings < r.opt_crossings:
                problems.append(f"trial {rec.index}: alg {r.alg_crossings} < opt {r.opt_crossings}")
            problems += _histogram_problem(r.pair_type_histogram, r.n)
            lines.append(
                f"{rec.index} {rec.instance_seed} n={r.n} alg={r.alg_crossings} "
                f"opt={r.opt_crossings} hist={sorted(r.pair_type_histogram.items())} "
                f"findings={list(r.audit_findings)}"
            )
        return "\n".join(lines), problems


@dataclass(frozen=True)
class GreedyMid:
    """``harness.run_experiment`` of greedy on one random 2-regular game,
    scored against ``offline.sorted_order_value``; n cycles over ``sizes``."""

    name: str = "greedy-mid"
    sizes: tuple[int, ...] = (16, 24, 32, 40)
    pool: int = 512
    games_per_job = 1

    @property
    def cycle(self) -> int:
        return len(self.sizes)

    def describe(self) -> str:
        return (
            "harness.run_experiment(GREEDY, random_two_regular(n, s), "
            f"opt_value=sorted_order_value(inst)) with n cycling over {list(self.sizes)}"
        )

    def plan(self, seed: int, count: int) -> list:
        rng = random.Random(seed)
        jobs = []
        for i in range(count):
            n = self.sizes[i % self.cycle]
            inst_seed = rng.randrange(2**32)
            jobs.append((n, inst_seed, _random_two_regular(n, inst_seed)))
        return jobs


    def call(self, job):
        inst = job[2]
        return harness.run_experiment(
            algorithms.ALGORITHMS["greedy"], inst, opt_value=offline.sorted_order_value(inst)
        )

    def check(self, job, result) -> tuple[str, list[str]]:
        n, inst_seed, inst = job
        report, trace = result
        problems = []
        recount = plain_crossings(trace.final_state.placed.items())
        last = trace.steps[-1].edge_edge_total if trace.steps else None
        if not report.alg_crossings == recount == last:
            problems.append(f"alg {report.alg_crossings}, recount {recount}, last trace total {last}")
        expected_opt = plain_sorted_order(inst)
        if report.opt_crossings != expected_opt:
            problems.append(f"opt {report.opt_crossings} != sorted order {expected_opt}")
        if report.alg_crossings < report.opt_crossings:
            problems.append(f"alg {report.alg_crossings} < opt {report.opt_crossings}")
        problems += _histogram_problem(report.pair_type_histogram, n)
        text = (
            f"n={n} seed={inst_seed} alg={report.alg_crossings} opt={report.opt_crossings} "
            f"slots={[s.slot for s in trace.steps]} "
            f"hist={sorted(report.pair_type_histogram.items())} findings={list(report.audit_findings)}"
        )
        return text, problems


_REPORT_LINE = re.compile(r"^\S+ vs \S+: alg=(\d+) opt=(\d+) ratio=(\S+) violations=\d+$")


def _adversary_specs() -> tuple[tuple[str, ...], ...]:
    boards = [("--name", "thm2", "--rounds", str(r)) for r in (4, 6, 8, 10)]
    boards += [("--name", name, "--n", str(n)) for name in ("thm1", "fig8") for n in (20, 40)]
    return tuple(b + ("--algo", alg) for b in boards for alg in ("barycenter", "first_fit"))


@dataclass(frozen=True)
class AdversaryCli:
    """In-process ``oscm adversary`` calls with stdout captured; every spec
    runs once per cycle, in an order the seed shuffles."""

    name: str = "adversary-cli"
    specs: tuple[tuple[str, ...], ...] = _adversary_specs()
    pool: int = 1024
    games_per_job = 1

    @property
    def cycle(self) -> int:
        return len(self.specs)

    def describe(self) -> str:
        return "oscm.cli.main(['adversary', ...]) with " + ", ".join(
            " ".join(spec[1::2]) for spec in self.specs
        )

    def plan(self, seed: int, count: int) -> list:
        rng = random.Random(seed)
        jobs = []
        while len(jobs) < count:
            order = list(self.specs)
            rng.shuffle(order)
            jobs.extend(order)
        return jobs[:count]


    def call(self, job):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(["adversary", *job])
            except SystemExit as exc:  # argparse rejects bad arguments this way
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, job, result) -> tuple[str, list[str]]:
        code, out, err = result
        problems = []
        if code != 0:
            problems.append(f"exit code {code}: {err.strip()}")
        lines = out.splitlines()
        match = _REPORT_LINE.match(lines[0]) if lines else None
        if match is None:
            problems.append(f"no report line in {out[:200]!r}")
        else:
            alg, opt, ratio = int(match[1]), int(match[2]), match[3]
            expected = f"{alg / opt:.4f}" if opt else ("1.0000" if alg == 0 else "inf")
            if ratio != expected:
                problems.append(f"printed ratio {ratio} != alg/opt {expected}")
        if not any(line.startswith("  opt basis: ") for line in lines):
            problems.append("no 'opt basis' line")
        return out, problems


WORKLOADS = {w.name: w for w in (SweepExact(), GreedyMid(), AdversaryCli())}
