"""Experiment runner: plays algorithms against instances or adaptive
adversaries, compares against the exact oracle, audits traces for the
invariants the greedy algorithm is supposed to maintain, and aggregates
sweeps into CSV/JSON reports.
"""

from __future__ import annotations

import csv
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .algorithms import OnlineAlgorithm, Trace, play
from .crossings import PairKind, order_counts, pair_kind, total_crossings
from .model import Instance, RegularityClass, validate_instance
from .offline import brute_force_opt
from .replay import ReplayBoard

ALL_AUDITS = frozenset({"double_cross", "equator", "gap"})


class ReplayMismatchError(RuntimeError):
    """A trace's stored totals disagree with a replay of its steps."""


@dataclass(frozen=True)
class RatioReport:
    alg_name: str
    source_id: str
    n: int
    alg_crossings: int
    opt_crossings: int
    ratio: float
    ratio_defined: bool
    pair_type_histogram: dict[str, int]
    audit_findings: tuple[str, ...]

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
    alg_name: str
    trials: tuple[TrialRecord, ...]
    max_ratio: float
    mean_ratio: float
    violation_count: int
    histogram: dict[str, int]


def _competitive_ratio(alg: int, opt: int) -> tuple[float, bool]:
    """Ratio alg/opt; at opt = 0 it is 1.0 when alg is also 0 and an
    undefined infinity sentinel otherwise."""
    if opt > 0:
        return alg / opt, True
    if alg == 0:
        return 1.0, True
    return math.inf, False


def _order_count_tally(trace: Trace) -> Counter:
    """How many request pairs of the final layout have each (placed,
    swapped) crossing count. A pair's kind and unavoidable crossings depend
    on nothing else, so the histogram and the lower bound read this tally."""
    items = trace.final_state.items()
    return Counter(
        order_counts(r1, r2) for i, (_, r1) in enumerate(items) for _, r2 in items[i + 1 :]
    )


def pair_type_histogram(trace: Trace) -> dict[str, int]:
    """Counts of each pair kind over all request pairs in the final layout."""
    counts = {kind.name: 0 for kind in PairKind}
    for (placed, swapped), pairs in _order_count_tally(trace).items():
        counts[pair_kind(placed, swapped).name] += pairs
    return counts


def unavoidable_lower_bound(trace: Trace) -> int:
    """Sum of per-pair unavoidable crossings; never exceeds the optimum."""
    return sum(min(counts) * pairs for counts, pairs in _order_count_tally(trace).items())


def audit_trace(trace: Trace, audits: frozenset[str] = ALL_AUDITS) -> list[str]:
    """Replay a trace on a `ReplayBoard` and collect invariant findings at
    every step.

    Arrow-based audits are skipped on states where arrows are undefined
    (possible for general, non-2-regular request sequences); both read the
    board's one arrow list. The board's running edge-edge total must equal
    every step's stored total.
    """
    findings: list[str] = []
    board = ReplayBoard(trace.n, track_arrows="double_cross" in audits or "equator" in audits)
    for idx, step in enumerate(trace.steps, start=1):
        request, slot = step.request, step.slot
        if not board.is_free(slot):
            raise ReplayMismatchError(f"step {idx} places into unavailable slot {slot}")
        if "gap" in audits:
            findings.extend(f"step {idx}: {f}" for f in board.gap_findings(request, slot))
        try:
            board.place(request, slot)
        finally:
            # `place` counts its running total before a vertex above n can
            # raise IndexError, so a stale total is reported first.
            if board.edge_edge_total != step.edge_edge_total:
                raise ReplayMismatchError(f"step {idx} stored edge-edge total is stale")
        if board.lv is None:
            continue
        if "double_cross" in audits:
            findings.extend(f"step {idx}: {f}" for f in board.double_cross_findings())
        if "equator" in audits:
            findings.extend(f"step {idx}: {f}" for f in board.equator_findings())
    return findings


def realized_instance(trace: Trace) -> Instance:
    """The instance actually played, classified 2-regular when it qualifies."""
    inst = Instance(
        n=trace.n,
        requests=tuple(trace.requests),
        regularity_class=RegularityClass.TWO_REGULAR,
    )
    if validate_instance(inst):
        inst = Instance(
            n=trace.n,
            requests=inst.requests,
            regularity_class=RegularityClass.GENERAL,
        )
    return inst


def score_trace(
    trace: Trace,
    alg_name: str,
    source_id: str,
    audits: frozenset[str] = ALL_AUDITS,
    opt_value: Optional[int] = None,
) -> RatioReport:
    """Report a finished game's ratio against the exact optimum of the
    instance it realized, with its pair-kind histogram and audit findings.

    `opt_value` substitutes for the oracle when the game is too large to
    solve exactly (it must then be a valid optimum or upper bound supplied
    by the caller; the ratio reported is relative to it).
    """
    alg_crossings = total_crossings(trace.final_state)
    if opt_value is None:
        opt_value = brute_force_opt(realized_instance(trace)).opt_crossings
    ratio, defined = _competitive_ratio(alg_crossings, opt_value)
    return RatioReport(
        alg_name=alg_name,
        source_id=source_id,
        n=trace.n,
        alg_crossings=alg_crossings,
        opt_crossings=opt_value,
        ratio=ratio,
        ratio_defined=defined,
        pair_type_histogram=pair_type_histogram(trace),
        audit_findings=tuple(audit_trace(trace, audits)),
    )


def run_experiment(
    algorithm: OnlineAlgorithm,
    source,
    source_id: str = "",
    audits: frozenset[str] = ALL_AUDITS,
    opt_value: Optional[int] = None,
) -> tuple[RatioReport, Trace]:
    """Play one full game and score it with `score_trace`."""
    trace = play(source, algorithm)
    report = score_trace(
        trace,
        algorithm.name,
        source_id or getattr(source, "name", "instance"),
        audits=audits,
        opt_value=opt_value,
    )
    return report, trace


def sweep(
    algorithm: OnlineAlgorithm,
    ns: Sequence[int],
    trials: int,
    seed: int,
    audits: frozenset[str] = ALL_AUDITS,
) -> SweepResult:
    """Play `trials` random 2-regular games with sizes drawn from `ns`.

    Fully deterministic for a fixed seed: the master RNG fixes each trial's
    size and instance seed up front, so trials could run concurrently and
    fold back in index order without changing the result.
    """
    from .model import random_two_regular

    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    rng = random.Random(seed)
    plan = [(rng.choice(list(ns)), rng.randrange(2**32)) for _ in range(trials)]
    records = []
    histogram = {kind.name: 0 for kind in PairKind}
    violations = 0
    ratios = []
    for index, (n, inst_seed) in enumerate(plan):
        inst = random_two_regular(n, inst_seed)
        report, _ = run_experiment(
            algorithm,
            inst,
            source_id=f"random_two_regular(n={n}, seed={inst_seed})",
            audits=audits,
        )
        records.append(TrialRecord(index=index, instance_seed=inst_seed, report=report))
        for key, count in report.pair_type_histogram.items():
            histogram[key] += count
        violations += report.violation_count
        ratios.append(report.ratio)
    return SweepResult(
        alg_name=algorithm.name,
        trials=tuple(records),
        max_ratio=max(ratios),
        mean_ratio=sum(ratios) / len(ratios),
        violation_count=violations,
        histogram=histogram,
    )


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
    """The trace as JSON-ready data. A trace step keeps no edge-arrow total
    (the arrows are an analysis aid, not part of a decision), so each
    step's is counted here on a `ReplayBoard` replay, one contiguous arrow
    run per placed edge (`ReplayBoard.edge_arrow_total`): None on states
    where arrows are undefined (a vertex above degree two, possible for
    general instances; a replayed state always has as many missing edges
    as slot openings)."""
    steps = []
    board = ReplayBoard(trace.n)
    for s in trace.steps:
        board.place(s.request, s.slot)
        if board.lv is None:
            arrow_total = None
        else:
            arrow_total = board.edge_arrow_total()
        steps.append(
            {
                "request": [s.request.a, s.request.b],
                "slot": s.slot,
                "edge_edge_total": s.edge_edge_total,
                "edge_arrow_total": arrow_total,
            }
        )
    return {"n": trace.n, "steps": steps}


_CSV_FIELDS = [
    "trial",
    "seed",
    "n",
    "alg",
    "source",
    "alg_crossings",
    "opt_crossings",
    "ratio",
    "violations",
]


def _csv_row(trial: int, seed, report: RatioReport) -> dict:
    return {
        "trial": trial,
        "seed": "" if seed is None else seed,
        "n": report.n,
        "alg": report.alg_name,
        "source": report.source_id,
        "alg_crossings": report.alg_crossings,
        "opt_crossings": report.opt_crossings,
        "ratio": f"{report.ratio:.6f}" if report.ratio_defined else "inf",
        "violations": report.violation_count,
    }


def write_csv(reports: Union[RatioReport, SweepResult], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        if isinstance(reports, SweepResult):
            for rec in reports.trials:
                writer.writerow(_csv_row(rec.index, rec.instance_seed, rec.report))
        else:
            writer.writerow(_csv_row(0, None, reports))


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
