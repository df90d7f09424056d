"""Experiment runner: plays algorithms against instances or adaptive
adversaries, scores each game against the exact optimum its pair-kind
counts give, audits each state for the invariants the greedy algorithm is
supposed to maintain, and aggregates sweeps into CSV/JSON reports. `sweep`
also checks each optimum against the exponential oracle
(`offline.brute_force_opt`) at the sizes it runs at, up to `offline.MAX_N`.

Greedy does not always maintain them: on random 2-regular games, 5 of 400
traces at n=10 have a double-cross finding and 1 of 50 at n=80 a gap
finding, and both shares grow with n (the README's rates,
`scripts/double_cross_rates.py`). Score ties explain only some of
greedy's double crosses: on the 7-vertex game of acceptance criterion 9,
both resolutions of its one tie reach one. The baselines do not try to
keep them. The flow-balance identity (`propagation.audit_equator`) holds
on every state whose arrows are defined, so no audit here checks it.

`run_experiment` scores a game in the pass that plays it: `play` hands each
step's live board to the per-step audit (`_step_findings`), so nothing is
replayed. It is the one place a `RatioReport` is built. A stored trace has
two readers, `audit_trace` and `trace_to_dict`, which replay it on a new
board (`_replay`) and check each step's placement and stored total; they
audit and serialize it, and never score it.
"""

from __future__ import annotations

import csv
import json
import math
import random
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .algorithms import OnlineAlgorithm, Trace, TraceStep, play
from .crossings import PairKind
from .model import _strict_int, random_two_regular
from .offline import MAX_N, brute_force_opt
from .propagation import ReplayBoard


class ReplayMismatchError(RuntimeError):
    """A trace's stored totals disagree with a replay of its steps."""


@dataclass(frozen=True)
class RatioReport:
    """One scored game: what it measured. Its ratio is read off the two
    counts."""

    alg_name: str
    source_id: str
    n: int
    alg_crossings: int
    opt_crossings: int
    pair_type_histogram: dict[str, int]
    audit_findings: tuple[str, ...]

    @property
    def ratio(self) -> float:
        """ALG/OPT; at OPT = 0 it is 1.0 when ALG is also 0 and an undefined
        infinity otherwise, which the writers show as `inf` (JSON: null)."""
        if self.opt_crossings > 0:
            return self.alg_crossings / self.opt_crossings
        return 1.0 if self.alg_crossings == 0 else math.inf

    @property
    def ratio_defined(self) -> bool:
        return self.ratio != math.inf

    @property
    def violation_count(self) -> int:
        return len(self.audit_findings)


@dataclass(frozen=True)
class TrialRecord:
    index: int
    instance_seed: int
    report: RatioReport


@dataclass(frozen=True)
class SweepResult:
    """A sweep's trials; its totals are read off their reports."""

    alg_name: str
    trials: tuple[TrialRecord, ...]

    @property
    def max_ratio(self) -> float:
        return max(rec.report.ratio for rec in self.trials)

    @property
    def mean_ratio(self) -> float:
        return sum(rec.report.ratio for rec in self.trials) / len(self.trials)

    @property
    def violation_count(self) -> int:
        return sum(rec.report.violation_count for rec in self.trials)

    @property
    def histogram(self) -> dict[str, int]:
        """Each pair kind's count summed over the trials, in `PairKind` order."""
        hists = [rec.report.pair_type_histogram for rec in self.trials]
        return {kind.name: sum(h[kind.name] for h in hists) for kind in PairKind}


def pair_type_histogram(trace: Trace) -> dict[str, int]:
    """Counts of each pair kind over all pairs of the trace's requests, in
    `PairKind` order.

    A pair's kind depends on its endpoints alone, not on its slots. With
    (a1, b1) and (a2, b2) the two requests: identical requests are 1-1; one
    shared first or second endpoint makes 2-1, and b1 = a2 makes 3-0. Of
    the pairs with four distinct endpoints, disjoint ones (b1 < a2) are
    4-0, strictly nested ones (a1 < a2, b2 < b1) 2-2 and interleaved ones
    3-1. Counters of the endpoints give the first three, one bisection per
    request on the sorted second endpoints the 4-0 pairs, and one insertion
    sweep in (a, b) order the 2-2 pairs; the 3-1 pairs are the rest.
    O(m log m) comparisons for m requests, plus the insertions of the sweep.
    """
    requests = trace.requests
    m = len(requests)
    by_pair = Counter((r.a, r.b) for r in requests)
    by_a = Counter(r.a for r in requests)
    by_b = Counter(r.b for r in requests)
    same = sum(c * (c - 1) // 2 for c in by_pair.values())
    one_shared = sum(c * (c - 1) // 2 for c in (*by_a.values(), *by_b.values())) - 2 * same
    touching = sum(c * by_a[v] for v, c in by_b.items())
    bs = sorted(by_b.elements())
    disjoint = sum(bisect_left(bs, r.a) for r in requests)
    # In (a, b) order, the requests already seen with a larger second
    # endpoint have a strictly smaller first one: those with an equal first
    # endpoint come earlier only when their second is no larger.
    nested = 0
    seen: list[int] = []
    for _, b in sorted(by_pair.elements()):
        nested += len(seen) - bisect_right(seen, b)
        insort(seen, b)
    counts = {
        PairKind.ONE_ONE: same,
        PairKind.TWO_ONE: one_shared,
        PairKind.THREE_ZERO: touching,
        PairKind.FOUR_ZERO: disjoint,
        PairKind.TWO_TWO: nested,
    }
    counts[PairKind.THREE_ONE] = m * (m - 1) // 2 - sum(counts.values())
    return {kind.name: counts[kind] for kind in PairKind}


def _histogram_opt(histogram: dict[str, int]) -> int:
    """Each pair's minimum crossings, summed over a pair-kind histogram:
    the optimum. A pair of kind k crosses at least min(k.value) times in
    either order, and the (a, b)-sorted order pays exactly that for every
    pair (`offline.sorted_order_value`)."""
    return sum(min(kind.value) * histogram[kind.name] for kind in PairKind)


def _replay(trace: Trace):
    """Replay a trace on one `ReplayBoard`, yielding (index, step, board)
    after each step's placement, with the index counted from 1. A placement
    the board refuses raises `ReplayMismatchError` worded with the board's
    reason, and a step whose stored edge-edge total differs from the
    board's running total raises it too, both at that step."""
    board = ReplayBoard(trace.n)
    for idx, step in enumerate(trace.steps, start=1):
        try:
            board.place(step.request, step.slot)
        except ValueError as exc:
            raise ReplayMismatchError(f"step {idx}: {exc}") from exc
        if board.edge_edge_total != step.edge_edge_total:
            raise ReplayMismatchError(f"step {idx} stored edge-edge total is stale")
        yield idx, step, board


def _step_findings(index: int, step: TraceStep, board: ReplayBoard) -> list[str]:
    """The findings of one step, on the board just after its placement:
    the gap audit of the request placed, then the double-cross audit of
    the board when its arrows are defined (a general, non-2-regular
    request sequence can leave them undefined). Each finding starts with
    "step <index>: "."""
    prefix = f"step {index}: "
    findings = board.gap_findings(step.slot, prefix)
    if board.lv is not None:
        findings += board.double_cross_findings(prefix)
    return findings


def audit_trace(trace: Trace) -> list[str]:
    """Replay a stored trace (`_replay`) and collect its invariant findings,
    step by step (`_step_findings`): the gap audit of the request just
    placed, then the double-cross audit of the board. These are the two
    audits that can fire; the flow balance (`propagation.audit_equator`)
    cannot, and is not run. `run_experiment` collects the same findings on
    the board that plays the game, without a replay.

    The replay checks every step's placement and stored total, so a trace
    whose slot the board refuses or whose total is stale raises
    `ReplayMismatchError` at that step instead of being audited. Each
    finding is worded once, with its "step <i>: " prefix, so a caller picks
    one audit's findings by their wording: "<KIND> pair (" for gaps and
    "arrows [" for double crosses.
    """
    findings: list[str] = []
    for idx, step, board in _replay(trace):
        findings += _step_findings(idx, step, board)
    return findings


def run_experiment(
    algorithm: OnlineAlgorithm,
    source,
    source_id: str = "",
    opt_value: Optional[int] = None,
) -> tuple[RatioReport, Trace]:
    """Play one full game and score it in the same pass: `play` hands each
    step's live board to `_step_findings`, so the game is played and
    audited on one board, with no replay. This is where every report is
    built.

    The algorithm's crossings are the last step's total (0 for an empty
    game), counted on that board. The optimum is `opt_value` when the
    caller gives one, and the ratio is then relative to it; by default it
    is read from the game's pair-kind histogram, each pair's minimum
    crossings summed (`_histogram_opt`)."""
    findings: list[str] = []
    trace = play(source, algorithm, on_step=lambda *args: findings.extend(_step_findings(*args)))
    histogram = pair_type_histogram(trace)
    report = RatioReport(
        alg_name=algorithm.name,
        source_id=source_id or getattr(source, "name", "instance"),
        n=trace.n,
        alg_crossings=trace.steps[-1].edge_edge_total if trace.steps else 0,
        opt_crossings=_histogram_opt(histogram) if opt_value is None else opt_value,
        pair_type_histogram=histogram,
        audit_findings=tuple(findings),
    )
    return report, trace


def sweep(algorithm: OnlineAlgorithm, ns: Iterable[int], trials: int, seed: int) -> SweepResult:
    """Play `trials` random 2-regular games with sizes drawn from `ns`,
    each scored by `run_experiment` against the optimum its pair-kind
    counts give. At sizes up to `offline.MAX_N` the exponential oracle
    (`offline.brute_force_opt`) checks that optimum, and a disagreement is
    a bug: it raises RuntimeError naming the trial's source.

    Fully deterministic for a fixed seed: the master RNG fixes each trial's
    size and instance seed up front, so trials could run concurrently and
    fold back in index order without changing the result. `ns` is read
    once, so any iterable of sizes will do. `trials` and every size are
    checked before the first game: each must be an int (`model._strict_int`),
    `trials` at least 1 and each size at least 2.
    """
    if _strict_int(trials, "trials") < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    sizes = list(ns)
    if not sizes:
        raise ValueError("need at least one size in ns")
    if small := [n for n in sizes if _strict_int(n, "n") < 2]:
        raise ValueError(f"need n >= 2 for a 2-regular instance, got {small[0]}")
    rng = random.Random(seed)
    plan = [(rng.choice(sizes), rng.randrange(2**32)) for _ in range(trials)]
    records = []
    for index, (n, inst_seed) in enumerate(plan):
        inst = random_two_regular(n, inst_seed)
        source_id = f"random_two_regular(n={n}, seed={inst_seed})"
        report, _ = run_experiment(algorithm, inst, source_id)
        if n <= MAX_N:
            oracle = brute_force_opt(inst).opt_crossings
            if oracle != report.opt_crossings:
                raise RuntimeError(
                    f"{source_id}: the exact oracle gives opt={oracle}, "
                    f"the pair-kind counts opt={report.opt_crossings}"
                )
        records.append(TrialRecord(index=index, instance_seed=inst_seed, report=report))
    return SweepResult(alg_name=algorithm.name, trials=tuple(records))


def report_to_dict(report: RatioReport) -> dict:
    return {
        "alg": report.alg_name,
        "source": report.source_id,
        "n": report.n,
        "alg_crossings": report.alg_crossings,
        "opt_crossings": report.opt_crossings,
        "ratio": None if not report.ratio_defined else report.ratio,
        "ratio_defined": report.ratio_defined,
        "pair_type_histogram": report.pair_type_histogram,
        "audit_findings": list(report.audit_findings),
    }


def trace_to_dict(trace: Trace) -> dict:
    """The trace as JSON-ready data, read through the checked replay of
    `audit_trace` (`_replay`), so a trace with a refused placement or a
    stale total raises `ReplayMismatchError` instead of being written. A
    trace step keeps no edge-arrow total (the arrows are an analysis aid,
    not part of a decision), so each step's is counted on the replayed
    board, one contiguous arrow run per placed edge
    (`ReplayBoard.edge_arrow_total`): None on states where arrows are
    undefined (a vertex above degree two, possible for general instances)."""
    steps = [
        {
            "request": [s.request.a, s.request.b],
            "slot": s.slot,
            "edge_edge_total": s.edge_edge_total,
            "edge_arrow_total": None if board.lv is None else board.edge_arrow_total(),
        }
        for _, s, board in _replay(trace)
    ]
    return {"n": trace.n, "steps": steps}


def _csv_row(trial: int, seed, report: RatioReport) -> dict:
    return {
        "trial": trial,
        "seed": "" if seed is None else seed,
        "n": report.n,
        "alg": report.alg_name,
        "source": report.source_id,
        "alg_crossings": report.alg_crossings,
        "opt_crossings": report.opt_crossings,
        "ratio": f"{report.ratio:.6f}",
        "violations": report.violation_count,
    }


def write_csv(reports: Union[RatioReport, SweepResult], path: str) -> None:
    """One `_csv_row` per report, under a header of the row's keys."""
    if isinstance(reports, SweepResult):
        rows = [_csv_row(rec.index, rec.instance_seed, rec.report) for rec in reports.trials]
    else:
        rows = [_csv_row(0, None, reports)]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def write_json(
    reports: Union[RatioReport, SweepResult],
    path: str,
    trace: Optional[Trace] = None,
) -> None:
    if isinstance(reports, SweepResult):
        payload = {
            "alg": reports.alg_name,
            "max_ratio": reports.max_ratio,
            "mean_ratio": reports.mean_ratio,
            "violation_count": reports.violation_count,
            "histogram": reports.histogram,
            "trials": [
                {"trial": rec.index, "seed": rec.instance_seed, **report_to_dict(rec.report)}
                for rec in reports.trials
            ],
        }
    else:
        payload = report_to_dict(reports)
        if trace is not None:
            payload["trace"] = trace_to_dict(trace)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
