"""Acceptance suite: eight end-to-end criteria, one pass/fail line each.

Each criterion prints `ACCEPTANCE <k> (<summary>): PASS|FAIL` directly to the
terminal (bypassing capture) so a full run shows the scoreboard.
"""

import random
import time
from itertools import combinations

import pytest

from oscm.adversaries import (
    CASE1_OFFSETS,
    CASE2_OFFSETS,
    PROBE_OFFSET,
    fig8_instance,
    thm1_adversary,
    thm2_adversary,
)
from oscm.algorithms import (
    ALGORITHMS,
    BARYCENTER,
    FIRST_FIT,
    GREEDY,
    OnlineAlgorithm,
    play,
)
from oscm.crossings import PairKind, classify_pair, total_crossings
from oscm.harness import realized_instance, run_experiment, sweep, unavoidable_lower_bound
from oscm.model import (
    Instance,
    Request,
    apply,
    empty_state,
    free_slots,
    make_request,
    random_two_regular,
)
from oscm.offline import brute_force_opt, sorted_order_value
from oscm.propagation import arrows


def _report(num, summary, capsys, body):
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {num} ({summary}): FAIL")
        raise
    with capsys.disabled():
        print(f"ACCEPTANCE {num} ({summary}): PASS")


def test_criterion_1_pair_taxonomy_exhaustive(capsys):
    def body():
        start = time.time()
        canonical = {
            (Request(1, 2), Request(1, 2)): frozenset({1}),
            (Request(1, 2), Request(1, 3)): frozenset({2, 1}),
            (Request(1, 2), Request(2, 3)): frozenset({3, 0}),
            (Request(1, 3), Request(2, 4)): frozenset({3, 1}),
            (Request(1, 2), Request(3, 4)): frozenset({4, 0}),
            (Request(1, 4), Request(2, 3)): frozenset({2}),
        }
        for (r1, r2), counts in canonical.items():
            result = classify_pair(r1, 1, r2, 2)
            assert frozenset({result.placed_count, result.swapped_count}) == counts

        requests = [Request(a, b) for a, b in combinations(range(1, 7), 2)]
        for r1 in requests:
            for r2 in requests:
                for s1, s2 in combinations(range(1, 7), 2):
                    classify_pair(r1, s1, r2, s2)  # raises if unclassifiable
                    classify_pair(r1, s2, r2, s1)
        assert time.time() - start < 1.0
    _report(1, "six-kind pair taxonomy, exhaustive n<=6", capsys, body)


def test_criterion_2_path_adversary_ratio(capsys):
    def body():
        start = time.time()
        n = 10

        def leave_slot_5(board, request):
            candidates = [s for s in board.free if s != 5]
            return candidates[0] if candidates else 5

        alg = OnlineAlgorithm(name="leave_slot_5", choose=leave_slot_5)
        trace = play(thm1_adversary(n), alg)
        alg_crossings = total_crossings(trace.final_state)
        assert alg_crossings >= 2 * 2 * (n // 2 - 1) == 16
        opt = brute_force_opt(realized_instance(trace), max_n=10).opt_crossings
        assert opt == 1
        assert alg_crossings / opt >= 2 * n - 4
        assert time.time() - start < 10.0
    _report(2, "path adversary n=10: ALG>=16, OPT=1", capsys, body)


def test_criterion_3_adaptive_adversary(capsys):
    def body():
        start = time.time()
        probe = make_request(*PROBE_OFFSET)

        def explore(state, reqs, idx, results):
            if idx == len(reqs):
                results.append(total_crossings(state))
                return
            for slot in free_slots(state):
                explore(apply(state, reqs[idx], slot), reqs, idx + 1, results)

        for probe_slots, offsets in (
            ([1, 2, 3], CASE1_OFFSETS),
            ([4, 5], CASE2_OFFSETS),
        ):
            reqs = [probe] + [make_request(i, j) for i, j in offsets]
            results = []
            for p in probe_slots:
                explore(apply(empty_state(5), probe, p), reqs, 1, results)
            assert min(results) >= 4
            block_opt = brute_force_opt(Instance(n=5, requests=tuple(reqs))).opt_crossings
            assert block_opt == 3

        # The sorted order attains its value and the per-pair minima bound
        # every layout from below, so their agreement makes OPT exact.
        for rounds in (4, 20, 100):
            trace = play(thm2_adversary(rounds), GREEDY)
            opt = sorted_order_value(realized_instance(trace))
            assert opt == unavoidable_lower_bound(trace) == 15 * rounds // 4 + 3
            assert total_crossings(trace.final_state) == 5 * rounds + 3
        assert time.time() - start < 60.0
    _report(3, "adaptive adversary: blocks 4-vs-3; greedy ALG=5r+3, OPT=15r/4+3 at r=4,20,100",
            capsys, body)


@pytest.fixture(scope="module")
def greedy_sweep():
    return sweep(GREEDY, range(4, 10), trials=1000, seed=25)


def test_criterion_4_greedy_ratio_bound(capsys, greedy_sweep):
    def body():
        start = time.time()
        assert len(greedy_sweep.trials) == 1000
        assert greedy_sweep.max_ratio <= 5.0
        with capsys.disabled():
            print(f"    max observed greedy ratio: {greedy_sweep.max_ratio:.4f}")
        assert time.time() - start < 300.0
    _report(4, "greedy ratio <= 5 on 1000 random 2-regular games", capsys, body)


def test_criterion_5_trace_audits(capsys, greedy_sweep):
    def body():
        # All audits (double-cross, flow balance, 3-0/4-0 gaps) ran inside
        # the criterion-4 sweep; the flow balance also holds for the other
        # algorithms, whose sweeps break the greedy shapes freely, so only
        # their flow-balance ("cut (") findings are checked. The flow
        # balance cannot fail on a correct arrow set; per step it checks
        # the replay board's arrow bookkeeping, whose stored vertex and
        # slot ends exist to catch a fault there.
        assert greedy_sweep.violation_count == 0
        for alg in (FIRST_FIT, BARYCENTER):
            res = sweep(alg, range(4, 10), trials=200, seed=77)
            findings = [f for rec in res.trials for f in rec.report.audit_findings]
            assert not any(": cut (" in f for f in findings)
    _report(5, "zero audit findings on greedy; flow balance for all", capsys, body)


def test_criterion_6_pair_swap_never_hurts(capsys):
    def body():
        rng = random.Random(6)
        for _ in range(10_000):
            n = rng.randint(2, 8)
            inst = random_two_regular(n, rng.randrange(2**31))
            slots = list(range(1, n + 1))
            rng.shuffle(slots)
            items = list(zip(slots, inst.requests))
            inverted = [
                (i, j)
                for i in range(n)
                for j in range(n)
                if i != j
                and items[i][1].a <= items[j][1].a
                and items[i][1].b <= items[j][1].b
                and items[i][0] > items[j][0]
            ]
            if not inverted:
                continue
            i, j = rng.choice(inverted)
            swapped = list(items)
            swapped[i] = (items[j][0], items[i][1])
            swapped[j] = (items[i][0], items[j][1])
            assert total_crossings(swapped) <= total_crossings(items)
    _report(6, "un-inverting a comparable pair never adds crossings", capsys, body)


def test_criterion_7_barycenter_degradation(capsys):
    def body():
        ratios = {}
        for n in (4, 6, 8):
            inst = fig8_instance(n)
            report, _ = run_experiment(BARYCENTER, inst, source_id=f"fig8({n})")
            ratios[n] = report.ratio
        greedy_report, _ = run_experiment(GREEDY, fig8_instance(8), source_id="fig8(8)")
        assert ratios[8] > greedy_report.ratio
        assert ratios[4] < ratios[6] < ratios[8]
        assert brute_force_opt(fig8_instance(8)).opt_crossings == 4
    _report(7, "duplicated-pairs family degrades barycenter, OPT=n/2", capsys, body)


def test_criterion_8_arrow_golden(capsys):
    def body():
        state = apply(empty_state(5), Request(1, 3), 2)
        state = apply(state, Request(3, 5), 5)
        assert arrows(state) == (
            (1, 1),
            (2, 1),
            (2, 3),
            (4, 3),
            (4, 4),
            (5, 4),
        )
    _report(8, "propagation arrows golden state", capsys, body)
