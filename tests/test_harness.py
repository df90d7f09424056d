import csv
import json
import math
import re
from dataclasses import replace
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from oscm.adversaries import thm1_adversary
from oscm.algorithms import ALGORITHMS, FIRST_FIT, GREEDY, play
from oscm.crossings import PairKind, total_crossings
from oscm.harness import (
    RatioReport,
    ReplayMismatchError,
    audit_trace,
    pair_type_histogram,
    run_experiment,
    sweep,
    write_csv,
    write_json,
)
from oscm.model import Instance, Request, random_two_regular
from oscm.offline import MAX_N, brute_force_opt, sorted_order_value
from oracles import realized_instance, unavoidable_lower_bound


def test_run_experiment_report_consistency():
    # The default optimum is exact at every size: it equals the sorted-order
    # value of the requests played, and the exponential oracle where that
    # runs. The thm1 game repeats a request, so one vertex has degree 3.
    sources = [random_two_regular(n, seed=5) for n in (7, 10, 16, 40)]
    for source, algorithm in product([*sources, thm1_adversary(8)], ALGORITHMS.values()):
        report, trace = run_experiment(algorithm, source, source_id="t")
        inst = realized_instance(trace)
        assert report.opt_crossings == sorted_order_value(inst)
        if inst.n <= MAX_N:
            assert report.opt_crossings == brute_force_opt(inst).opt_crossings
        assert report.alg_crossings == total_crossings(trace.final_state)
        assert report.opt_crossings <= report.alg_crossings
        assert report.ratio >= 1.0
        m = len(inst.requests)
        assert sum(report.pair_type_histogram.values()) == m * (m - 1) // 2


def test_duplicated_disjoint_pairs_report():
    # Each duplicated pair contributes one unavoidable crossing.
    inst = Instance(n=4, requests=(Request(1, 2), Request(1, 2), Request(3, 4), Request(3, 4)))
    report, _ = run_experiment(FIRST_FIT, inst)
    assert report.opt_crossings == 2
    assert report.ratio_defined


def test_ratio_undefined_sentinel():
    def report(alg, opt):
        return RatioReport("alg", "source", 4, alg, opt, {}, ())

    assert (report(0, 0).ratio, report(0, 0).ratio_defined) == (1.0, True)
    assert math.isinf(report(3, 0).ratio) and not report(3, 0).ratio_defined
    assert (report(6, 4).ratio, report(6, 4).ratio_defined) == (1.5, True)


def test_external_opt_value_used():
    inst = random_two_regular(6, seed=1)
    report, _ = run_experiment(GREEDY, inst, opt_value=1)
    assert report.opt_crossings == 1


def test_audit_trace_flags_constructed_gap():
    # (3,4) then (1,2) two slots apart with a free slot between them is a
    # 4-0 pair with a gap; (2,3) placed to cross it back adds a 3-0 event.
    inst = Instance(n=5, requests=(Request(3, 4), Request(1, 2), Request(2, 3)))
    scripted = {Request(3, 4): 1, Request(1, 2): 4, Request(2, 3): 5}
    from oscm.algorithms import OnlineAlgorithm

    alg = OnlineAlgorithm(name="scripted", choose=lambda s, r: scripted[r])
    trace = play(inst, alg)
    findings = audit_trace(trace)
    assert any("FOUR_ZERO" in f for f in findings)
    assert any("THREE_ZERO" in f for f in findings)


def test_greedy_leaves_a_gap_on_a_random_game():
    # Like the double-cross shape, the gap shape is not kept by greedy on
    # every game: this is the one gap among seeds 0..49 at n=80.
    findings = audit_trace(play(random_two_regular(80, 27), GREEDY))
    gaps = [f for f in findings if " pair (" in f]
    assert gaps == ["step 46: THREE_ZERO pair (54,55)@65 vs (55,71)@57 with a free slot between"]


def test_run_experiment_plays_once_and_never_replays(monkeypatch):
    import oscm.algorithms
    import oscm.harness

    def refuse(trace):
        raise AssertionError("run_experiment replayed its trace")

    games = []

    def counting_play(source, algorithm, on_step=None):
        games.append(algorithm.name)
        return oscm.algorithms.play(source, algorithm, on_step)

    inst = random_two_regular(40, seed=3)
    expected, _ = run_experiment(GREEDY, inst)
    monkeypatch.setattr(oscm.harness, "_replay", refuse)
    monkeypatch.setattr(oscm.harness, "play", counting_play)
    report, trace = run_experiment(GREEDY, inst)
    assert games == ["greedy"]
    assert report == expected and report.alg_crossings == trace.steps[-1].edge_edge_total
    with pytest.raises(AssertionError, match="replayed"):
        audit_trace(trace)


def test_audit_trace_rejects_stale_later_total():
    # The running total is checked at every step, not only the first.
    trace = play(random_two_regular(6, seed=4), GREEDY)
    steps = list(trace.steps)
    steps[3] = replace(steps[3], edge_edge_total=steps[3].edge_edge_total + 1)
    with pytest.raises(ReplayMismatchError, match="step 4 stored edge-edge total is stale"):
        audit_trace(replace(trace, steps=tuple(steps)))


def test_audit_trace_empty_trace():
    trace = play(Instance(n=3, requests=()), GREEDY)
    assert audit_trace(trace) == []


def test_audit_trace_rejects_corrupt_trace():
    from oscm.algorithms import Trace, TraceStep

    step = TraceStep(request=Request(1, 2), slot=1, edge_edge_total=7)
    with pytest.raises(ReplayMismatchError):
        audit_trace(Trace(n=2, steps=(step,)))


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=300))
@settings(max_examples=50, deadline=None)
def test_unavoidable_sum_lower_bounds_opt(n, seed):
    inst = random_two_regular(n, seed)
    trace = play(inst, FIRST_FIT)
    opt = brute_force_opt(inst).opt_crossings
    assert unavoidable_lower_bound(trace) <= opt <= total_crossings(trace.final_state)


def test_sweep_deterministic_and_validated():
    a = sweep(GREEDY, [4, 5, 6], trials=10, seed=42)
    b = sweep(GREEDY, [4, 5, 6], trials=10, seed=42)
    assert a == b
    assert a.max_ratio >= 1.0
    assert len(a.trials) == 10
    with pytest.raises(ValueError):
        sweep(GREEDY, [4], trials=0, seed=0)
    with pytest.raises(ValueError, match="^need at least one size in ns$"):
        sweep(GREEDY, [], trials=3, seed=0)
    # The sizes are read once, so a one-shot iterator draws as its list does.
    assert sweep(GREEDY, iter([4, 5]), 3, 0) == sweep(GREEDY, [4, 5], 3, 0)
    with pytest.raises(ValueError, match="^need at least one size in ns$"):
        sweep(GREEDY, iter([]), trials=3, seed=0)
    # Sizes above the oracle's bound are scored exactly too.
    result = sweep(GREEDY, range(9, 13), trials=8, seed=1)
    assert max(rec.report.n for rec in result.trials) > MAX_N
    for rec in result.trials:
        inst = random_two_regular(rec.report.n, rec.instance_seed)
        assert rec.report.opt_crossings == sorted_order_value(inst)


@pytest.mark.parametrize(
    "ns, trials, message",
    [
        ([3.5], 2, "n must be an integer, got 3.5"),
        ([4, 5.0], 3, "n must be an integer, got 5.0"),
        ([4, True], 3, "n must be an integer, got True"),
        ([4], 1.5, "trials must be an integer, got 1.5"),
        ([4], True, "trials must be an integer, got True"),
        ([4], 0, "need trials >= 1, got 0"),
        ([1, 4], 3, "need n >= 2 for a 2-regular instance, got 1"),
    ],
)
def test_sweep_checks_its_sizes_and_count_before_any_game(ns, trials, message, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sweep played a game before refusing its input")

    monkeypatch.setattr("oscm.harness.run_experiment", refuse)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        sweep(GREEDY, ns, trials, 0)


def test_sweep_totals_are_pinned(tmp_path):
    result = sweep(FIRST_FIT, range(4, 8), 30, 3)
    path = tmp_path / "sweep.json"
    write_json(result, str(path))
    payload = json.loads(path.read_text())
    histogram = {"ONE_ONE": 11, "TWO_ONE": 100, "THREE_ZERO": 48, "THREE_ONE": 99,
                 "FOUR_ZERO": 71, "TWO_TWO": 85}
    for totals in (result, SimpleNamespace(**payload)):
        assert totals.max_ratio == 4.2
        assert totals.mean_ratio == 1.8871834461834462
        assert totals.violation_count == 163
        assert totals.histogram == histogram
        assert list(totals.histogram) == [kind.name for kind in PairKind]


def test_sweep_raises_when_the_oracle_disagrees(monkeypatch):
    import oscm.harness

    def one_too_high(inst):
        result = brute_force_opt(inst)
        return replace(result, opt_crossings=result.opt_crossings + 1)

    first = sweep(GREEDY, [5], trials=3, seed=2).trials[0].report
    monkeypatch.setattr(oscm.harness, "brute_force_opt", one_too_high)
    message = (
        f"{first.source_id}: the exact oracle gives opt={first.opt_crossings + 1}, "
        f"the pair-kind counts opt={first.opt_crossings}"
    )
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        sweep(GREEDY, [5], trials=3, seed=2)


def test_report_files(tmp_path):
    inst = random_two_regular(6, seed=9)
    report, trace = run_experiment(GREEDY, inst, source_id="inst6")
    csv_path = tmp_path / "r.csv"
    json_path = tmp_path / "r.json"
    write_csv(report, str(csv_path))
    write_json(report, str(json_path), trace=trace)
    rows = list(csv.DictReader(csv_path.read_text().splitlines()))
    assert len(rows) == 1 and rows[0]["alg"] == "greedy"
    assert int(rows[0]["alg_crossings"]) == report.alg_crossings
    payload = json.loads(json_path.read_text())
    assert payload["opt_crossings"] == report.opt_crossings
    assert len(payload["trace"]["steps"]) == 6

    result = sweep(GREEDY, [4, 5], trials=5, seed=3)
    sweep_csv = tmp_path / "s.csv"
    sweep_json = tmp_path / "s.json"
    write_csv(result, str(sweep_csv))
    write_json(result, str(sweep_json))
    assert len(list(csv.DictReader(sweep_csv.read_text().splitlines()))) == 5
    assert len(json.loads(sweep_json.read_text())["trials"]) == 5


def test_realized_instance_classification():
    trace = play(random_two_regular(5, seed=2), GREEDY)
    assert realized_instance(trace).regularity_class.value == "two_regular"


def test_histogram_matches_manual_classification():
    inst = random_two_regular(6, seed=77)
    trace = play(inst, FIRST_FIT)
    hist = pair_type_histogram(trace)
    assert sum(hist.values()) == 6 * 5 // 2
