"""The per-pair scoring implementations, kept as test oracles.

Each oracle below is the straightforward version of a scoring function:
it simulates every placed pair, or tests every placed request against
every arrow. The library's fast versions must return exactly the same
values, findings in the same order, on every step of every game here.
"""

import functools
import random
import re
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from oscm.adversaries import Thm1Adversary, Thm2Adversary, fig8_instance
from oscm.algorithms import (
    ALGORITHMS,
    OnlineAlgorithm,
    Trace,
    TraceStep,
    play,
)
from oscm.crossings import (
    PairCrossKind,
    PairKind,
    UnclassifiablePairError,
    classify_pair,
    order_counts,
    pair_crossings,
    total_crossings,
)
from oscm.harness import (
    ReplayMismatchError,
    audit_trace,
    pair_type_histogram,
    run_experiment,
    trace_to_dict,
)
from oscm.model import (
    Instance,
    PlacementState,
    Request,
    SlotOccupiedError,
    SlotRangeError,
    apply,
    random_two_regular,
)
from oscm.propagation import (
    DegreeOverflowError,
    ReplayBoard,
    arrows,
    audit_equator,
    audit_no_double_cross,
)
from oscm.render import render_svg
from oracles import (
    added_crossings,
    edge_arrow_crossings,
    edge_pair_crossings,
    edges_cross,
    oracle_equator,
    outcome,
    scratch_arrows,
    segment_crossings,
    state_is_free,
    state_items,
    unavoidable_lower_bound,
)


# ----------------------------------------------------------------- oracles


def oracle_classify(r1, s1, r2, s2):
    placed = edge_pair_crossings(r1, s1, r2, s2)
    swapped = edge_pair_crossings(r1, s2, r2, s1)
    label = frozenset({placed, swapped})
    for kind in PairKind:
        if kind.value == label:
            return PairCrossKind(kind=kind, placed_count=placed, swapped_count=swapped)
    raise UnclassifiablePairError(f"counts ({placed}, {swapped}) match no known kind")


def oracle_histogram(state):
    counts = {kind.name: 0 for kind in PairKind}
    for (s1, r1), (s2, r2) in combinations(state_items(state), 2):
        counts[oracle_classify(r1, s1, r2, s2).kind.name] += 1
    return counts


def oracle_unavoidable(state):
    return sum(
        oracle_classify(r1, s1, r2, s2).unavoidable
        for (s1, r1), (s2, r2) in combinations(state_items(state), 2)
    )


def oracle_total(placements):
    items = state_items(placements) if isinstance(placements, PlacementState) else list(placements)
    return sum(
        edge_pair_crossings(r1, s1, r2, s2) for (s1, r1), (s2, r2) in combinations(items, 2)
    )


def oracle_gap(state_before, request, slot):
    findings = []
    for other_slot, other_req in state_items(state_before):
        kind = oracle_classify(request, slot, other_req, other_slot)
        worst = max(kind.placed_count, kind.swapped_count)
        if kind.kind not in (PairKind.FOUR_ZERO, PairKind.THREE_ZERO):
            continue
        if kind.placed_count != worst:
            continue
        lo, hi = min(slot, other_slot), max(slot, other_slot)
        if any(state_is_free(state_before, s) for s in range(lo + 1, hi)):
            findings.append(
                f"{kind.kind.name} pair ({request.a},{request.b})@{slot} vs "
                f"({other_req.a},{other_req.b})@{other_slot} with a free slot between"
            )
    return findings


def oracle_double_cross(state, arr=None):
    if arr is None:
        arr = scratch_arrows(state)
    findings = []
    for slot, req in state_items(state):
        e1, e2 = (req.a, slot), (req.b, slot)
        by_target = {}
        for a in arr:
            if edges_cross(a, e1) and edges_cross(a, e2):
                by_target.setdefault(a[1], []).append(a)
        for target, group in by_target.items():
            if len(group) >= 2:
                findings.append(
                    f"arrows {group} into slot {target} each cross both edges "
                    f"of slot {slot} ({req.a},{req.b})"
                )
    return findings


def oracle_audit_trace(trace):
    findings = []
    state = PlacementState(trace.n)
    for idx, step in enumerate(trace.steps, start=1):
        findings.extend(f"step {idx}: {f}" for f in oracle_gap(state, step.request, step.slot))
        state = apply(state, step.request, step.slot)
        if oracle_total(state) != step.edge_edge_total:
            raise ReplayMismatchError(f"step {idx} stored edge-edge total is stale")
        try:
            findings.extend(f"step {idx}: {f}" for f in oracle_double_cross(state))
        except DegreeOverflowError:
            pass
    return findings


# ----------------------------------------------------------------- helpers


def apply_item(state, item):
    """`apply` with a (slot, request) pair, for folding a state's items."""
    slot, request = item
    return apply(state, request, slot)


def assert_state_matches(state):
    assert total_crossings(state) == oracle_total(state)
    assert outcome(audit_no_double_cross, state) == outcome(oracle_double_cross, state)
    assert outcome(audit_equator, state) == outcome(oracle_equator, state)


def assert_trace_matches(trace):
    """Every state of the trace, every step's gap audit, the final pair
    kinds and the whole audit output agree with the oracles."""
    state = PlacementState(trace.n)
    for step in trace.steps:
        state = apply(state, step.request, step.slot)
        assert_state_matches(state)
    assert pair_type_histogram(trace) == oracle_histogram(trace.final_state)
    assert unavoidable_lower_bound(trace) == oracle_unavoidable(trace.final_state)
    assert audit_trace(trace) == oracle_audit_trace(trace)


def random_slot_algorithm(seed):
    rng = random.Random(seed)
    return OnlineAlgorithm(name="random", choose=lambda board, r: rng.choice(board.free))


ALL_ALGORITHMS = [ALGORITHMS[name] for name in sorted(ALGORITHMS)]


# Each family yields (source, algorithm) pairs built fresh on every call,
# as an adversary and a random-slot algorithm serve one game each.


def two_regular_setups(alg):
    # Every size up to 24, then every fourth up to 40: the cubic oracles
    # make the largest games the slowest.
    for n in [*range(2, 25), 28, 32, 36, 40]:
        for seed in range(3) if n <= 12 else (n,):
            yield random_two_regular(n, seed), alg


def adversary_setups(alg):
    sources = [Thm1Adversary(n) for n in (4, 7, 12)]
    sources += [Thm2Adversary(rounds) for rounds in (1, 2)]
    sources += [fig8_instance(n) for n in (4, 8, 14)]
    for source in sources:
        yield source, alg


def random_slot_setups():
    # Random slot choices reach far more double-cross and gap findings than
    # any of the three algorithms.
    for n in range(2, 21):
        for seed in range(4):
            yield random_two_regular(n, seed), random_slot_algorithm(seed)


def general_setups():
    # Requests drawn with replacement: vertices may exceed degree two, so
    # arrows are undefined on some states and both sides skip the same ones.
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 14)
        count = rng.randint(0, n)
        requests = tuple(Request(*sorted(rng.sample(range(1, n + 1), 2))) for _ in range(count))
        yield Instance(n=n, requests=requests), random_slot_algorithm(n)


def grid_setups():
    for alg in ALL_ALGORITHMS:
        yield from two_regular_setups(alg)
        yield from adversary_setups(alg)
    yield from random_slot_setups()
    yield from general_setups()


def played(setups):
    return [play(source, alg) for source, alg in setups]


@functools.cache
def all_grid_games():
    return tuple(played(grid_setups()))


# ------------------------------------------------------------------- tests


def test_classify_pair_matches_simulation_on_every_pair():
    requests = [Request(a, b) for a, b in combinations(range(1, 7), 2)]
    for r1 in requests:
        for r2 in requests:
            for s1, s2 in ((1, 2), (2, 1), (3, 7), (7, 3)):
                assert classify_pair(r1, s1, r2, s2) == oracle_classify(r1, s1, r2, s2)
                assert pair_crossings(r1, s1, r2, s2) == edge_pair_crossings(r1, s1, r2, s2)
            gt, lt = order_counts(r1, r2)
            assert (gt, lt) == (edge_pair_crossings(r1, 1, r2, 2), edge_pair_crossings(r1, 2, r2, 1))
    with pytest.raises(ValueError, match="requests share slot 3"):
        classify_pair(Request(1, 2), 3, Request(3, 4), 3)


@pytest.mark.parametrize("alg", ALL_ALGORITHMS, ids=lambda a: a.name)
def test_scoring_matches_oracles_on_random_two_regular_games(alg):
    for trace in played(two_regular_setups(alg)):
        assert_trace_matches(trace)


@pytest.mark.parametrize("alg", ALL_ALGORITHMS, ids=lambda a: a.name)
def test_scoring_matches_oracles_on_adversaries(alg):
    for trace in played(adversary_setups(alg)):
        assert_trace_matches(trace)


def test_scoring_matches_oracles_on_random_slot_games():
    for trace in played(random_slot_setups()):
        assert_trace_matches(trace)


def test_scoring_matches_oracles_on_general_instances():
    for trace in played(general_setups()):
        assert_trace_matches(trace)


@pytest.mark.parametrize("alg", [ALGORITHMS["barycenter"], ALGORITHMS["first_fit"]], ids=lambda a: a.name)
def test_findings_match_the_oracle_on_the_adversary_cli_games(alg):
    # The games of `oscm adversary` that the benchmark times, far above the
    # grid's sizes: fig8 and first_fit games are heavy with findings.
    sources = [Thm2Adversary(rounds) for rounds in (4, 6, 8, 10)]
    sources += [make(n) for make in (Thm1Adversary, fig8_instance) for n in (20, 40)]
    for source in sources:
        report, trace = run_experiment(alg, source)
        expected = oracle_audit_trace(trace)
        assert list(report.audit_findings) == expected
        assert audit_trace(trace) == expected


def test_run_experiment_scores_each_game_as_its_replay_does():
    # One pass on the board that plays the game gives the findings of the
    # replay of its stored trace and of the per-step oracles, the final
    # layout's crossings and the unavoidable lower bound as the optimum.
    traces = []
    for source, alg in grid_setups():
        report, trace = run_experiment(alg, source, "grid")
        assert (report.alg_name, report.source_id, report.n) == (alg.name, "grid", trace.n)
        assert list(report.audit_findings) == audit_trace(trace) == oracle_audit_trace(trace)
        assert report.alg_crossings == total_crossings(trace.final_state)
        assert report.opt_crossings == unavoidable_lower_bound(trace)
        assert report.pair_type_histogram == pair_type_histogram(trace)
        traces.append(trace)
    assert tuple(traces) == all_grid_games()


def test_scoring_matches_oracles_on_partial_and_hand_built_states():
    rng = random.Random(11)
    refusals = set()
    for _ in range(200):
        n = rng.randint(1, 12)
        placed = {}
        for slot in rng.sample(range(0, n + 3), rng.randint(0, n)):
            a = rng.randint(1, n + 1)
            placed[slot] = Request(a, a + rng.randint(1, 3))
        state = PlacementState(n=n, placed=placed)
        # A board loads a state in slot order, so the arrows and both audits
        # raise the first error `apply` raises in that order: SlotRangeError
        # for a slot outside 1..n, ValueError for a vertex above n.
        loaded = outcome(functools.reduce, apply_item, state_items(state), PlacementState(n))
        if isinstance(loaded, tuple):
            refusals.add(loaded[0])
            for fn in (ReplayBoard.of, arrows, audit_no_double_cross, audit_equator):
                assert outcome(fn, state) == loaded
            assert outcome(oracle_total, state) == outcome(total_crossings, state)
            continue
        assert_state_matches(state)
    assert refusals == {SlotRangeError, ValueError}


def layout_trace(requests, slots):
    """A trace that places requests[i] at slots[i], in that order."""
    return scripted_trace(max([*slots, 1]), [r.vertices for r in requests], slots)


@st.composite
def request_layouts(draw):
    """Up to 12 requests over a few vertices (so repeats, shared and
    touching endpoints are common, and degrees exceed two), their slots,
    and a permutation of the slots."""
    top = draw(st.integers(2, 7))
    ends = st.tuples(st.integers(1, top), st.integers(1, top)).filter(lambda e: e[0] != e[1])
    requests = [Request(*sorted(e)) for e in draw(st.lists(ends, max_size=12))]
    slots = list(range(1, len(requests) + 1))
    return requests, slots, draw(st.permutations(slots))


@given(request_layouts())
@example(([], [], []))
@example(([Request(1, 2)], [1], [1]))
@settings(max_examples=300, deadline=None)
def test_pair_kinds_match_oracles_on_request_multisets(layout):
    requests, slots, permuted = layout
    trace = layout_trace(requests, slots)
    histogram = pair_type_histogram(trace)
    assert list(histogram) == [kind.name for kind in PairKind]
    assert histogram == oracle_histogram(trace.final_state)
    assert unavoidable_lower_bound(trace) == oracle_unavoidable(trace.final_state)
    # The same requests, placed in another order and at other slots.
    reordered = [requests[slot - 1] for slot in permuted]
    assert pair_type_histogram(layout_trace(reordered, permuted)) == histogram


def test_replay_readers_reject_a_stale_total_at_every_step():
    trace = play(random_two_regular(8, 0), ALGORITHMS["greedy"])
    for idx, step in enumerate(trace.steps):
        steps = list(trace.steps)
        steps[idx] = replace(step, edge_edge_total=step.edge_edge_total + 1)
        stale = replace(trace, steps=tuple(steps))
        for read in (audit_trace, trace_to_dict):
            with pytest.raises(ReplayMismatchError, match=f"^step {idx + 1} stored edge-edge"):
                read(stale)


def test_total_crossings_matches_oracle_on_arbitrary_items():
    rng = random.Random(3)
    for _ in range(300):
        items = [
            (rng.randint(0, 6), Request(*sorted(rng.sample(range(1, 8), 2))))
            for _ in range(rng.randint(0, 7))
        ]
        assert outcome(total_crossings, items) == outcome(oracle_total, items)
        assert outcome(total_crossings, iter(items)) == outcome(oracle_total, items)
        state = PlacementState(n=7, placed=dict(items))
        assert total_crossings(state) == oracle_total(state)


def test_total_crossings_names_the_first_shared_slot():
    items = [(4, Request(1, 2)), (2, Request(1, 3)), (4, Request(2, 3)), (2, Request(3, 4))]
    with pytest.raises(ValueError, match="^requests share slot 4$"):
        total_crossings(items)
    with pytest.raises(ValueError, match="^requests share slot 4$"):
        oracle_total(items)


segment_lists = st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8)), max_size=14)


@given(segment_lists, segment_lists)
def test_segment_crossings_matches_pairwise_count(edges, segments):
    # Arbitrary inputs: repeated segments, shared vertices and shared slots.
    expected = [sum(1 for e in edges if edges_cross(e, seg)) for seg in segments]
    assert segment_crossings(edges, segments) == expected


def test_audit_equator_words_an_unbalanced_arrow_set(monkeypatch):
    state = apply(PlacementState(4), Request(1, 2), 2)
    assert audit_equator(state) == []
    # Shift one arrow's vertex from 3 to 1 on the board: the cuts between
    # move one segment across in the left-to-right direction.
    moved = list(arrows(state))
    moved[moved.index((3, 3))] = (1, 3)
    monkeypatch.setattr(ReplayBoard, "arrows", lambda board: moved)
    findings = audit_equator(state)
    assert findings == oracle_equator(state, moved)
    assert findings == [
        "cut (v<=1, s<=1): 2 left-to-right vs 1 right-to-left",
        "cut (v<=2, s<=2): 1 left-to-right vs 0 right-to-left",
    ]


def test_audit_trace_shares_the_board_arrows_between_both_audits(monkeypatch):
    trace = play(Instance(n=4, requests=(Request(1, 2), Request(3, 4))), ALGORITHMS["first_fit"])
    place = ReplayBoard.place

    def place_then_corrupt(board, request, slot):
        # The double-cross audit reads a corrupted arrow list with every
        # arrow moved to vertex 1; placing edits the true one.
        board.lv = getattr(board, "true_lv", board.lv)
        place(board, request, slot)
        board.true_lv = board.lv
        board.lv = [1] * len(board.lv)

    monkeypatch.setattr(ReplayBoard, "place", place_then_corrupt)
    # first_fit leaves no free slot between placed ones, so no gap findings.
    findings = audit_trace(trace)
    state = PlacementState(trace.n)
    expected = []
    for idx, step in enumerate(trace.steps, start=1):
        state = apply(state, step.request, step.slot)
        corrupted = [(1, t) for _, t in scratch_arrows(state)]
        expected += [f"step {idx}: {f}" for f in oracle_double_cross(state, corrupted)]
    assert findings == expected
    assert any("each cross both edges" in f for f in findings)


# ------------------------------------------------ replay board vs per-step


def per_step_states(trace):
    """Each step's index, the step, and the states before and after it,
    each built anew with `apply`. A placement `apply` refuses, or a stored
    total other than the running sum of `added_crossings`, raises
    ReplayMismatchError at its step, as the board's replay does."""
    state = PlacementState(trace.n)
    edge_edge_total = 0
    for idx, step in enumerate(trace.steps, start=1):
        try:
            after = apply(state, step.request, step.slot)
        except ValueError as exc:
            raise ReplayMismatchError(f"step {idx}: {exc}") from exc
        edge_edge_total += added_crossings(state, step.request, step.slot)
        if edge_edge_total != step.edge_edge_total:
            raise ReplayMismatchError(f"step {idx} stored edge-edge total is stale")
        yield idx, step, state, after
        state = after


def per_step_audit_trace(trace):
    """`audit_trace` without the replay board: every step builds a new
    state, runs the pairwise gap oracle on the state before it, builds its
    arrows from scratch and runs the per-state double-cross audit on a
    board loaded with that state."""
    findings = []
    for idx, step, before, state in per_step_states(trace):
        gap = oracle_gap(before, step.request, step.slot)
        findings.extend(f"step {idx}: {f}" for f in gap)
        try:
            scratch_arrows(state)
        except DegreeOverflowError:
            continue
        findings.extend(f"step {idx}: {f}" for f in audit_no_double_cross(state))
    return findings


def per_step_trace_to_dict(trace):
    """`trace_to_dict` as it was before the replay board, with the checks
    of `per_step_states`."""
    steps = []
    for _, s, _, state in per_step_states(trace):
        try:
            arrow_total = edge_arrow_crossings(state)
        except DegreeOverflowError:
            arrow_total = None
        steps.append(
            {
                "request": [s.request.a, s.request.b],
                "slot": s.slot,
                "edge_edge_total": s.edge_edge_total,
                "edge_arrow_total": arrow_total,
            }
        )
    return {"n": trace.n, "steps": steps}


def scripted_trace(n, pairs, slots, stale_at=None):
    """A trace of `pairs` placed at `slots`, unchecked, with running totals
    counted as they should be except one more at step `stale_at`."""
    steps, placed, total = [], {}, 0
    for idx, ((a, b), slot) in enumerate(zip(pairs, slots), start=1):
        request = Request(a, b)
        total += added_crossings(((s, q) for s, q in placed.items() if s != slot), request, slot)
        placed[slot] = request
        steps.append(TraceStep(request, slot, total + (idx == stale_at)))
    return Trace(n=n, steps=tuple(steps))


def assert_replays_agree(trace):
    """The board and the per-step replay agree on every prefix of the
    trace: the same findings, or the same error raised at the same step;
    `trace_to_dict` likewise."""
    for stop in range(len(trace.steps) + 1):
        prefix = replace(trace, steps=trace.steps[:stop])
        assert outcome(audit_trace, prefix) == outcome(per_step_audit_trace, prefix)
        assert outcome(trace_to_dict, prefix) == outcome(per_step_trace_to_dict, prefix)


def test_board_replay_matches_per_step_replay_on_game_grids():
    for trace in all_grid_games():
        assert audit_trace(trace) == per_step_audit_trace(trace)


def test_board_trace_to_dict_matches_per_step_replay_on_game_grids():
    for trace in all_grid_games():
        assert trace_to_dict(trace) == per_step_trace_to_dict(trace)


TWO_REGULAR_6 = [(1, 2), (3, 4), (5, 6), (1, 3), (2, 5), (4, 6)]


@pytest.mark.parametrize(
    "slots, error",
    [
        ([2, 5, 0, 1, 3, 4], "step 3: slot 0 out of range 1..6"),
        ([2, 5, 7, 1, 3, 4], "step 3: slot 7 out of range 1..6"),
        ([2, 5, 1, 5, 3, 4], "step 4: slot 5 is already fulfilled"),
    ],
)
def test_board_replay_rejects_unavailable_slots_at_the_same_step(slots, error):
    trace = scripted_trace(6, TWO_REGULAR_6, slots)
    for read in (audit_trace, trace_to_dict):
        with pytest.raises(ReplayMismatchError, match=f"^{error}$"):
            read(trace)
    assert_replays_agree(trace)


def test_board_replay_rejects_a_stale_total_at_the_same_step():
    trace = scripted_trace(6, TWO_REGULAR_6, [6, 1, 4, 2, 5, 3], stale_at=4)
    for read in (audit_trace, trace_to_dict):
        with pytest.raises(ReplayMismatchError, match="^step 4 stored edge-edge total is stale$"):
            read(trace)
    assert_replays_agree(trace)


def test_board_replay_stops_arrow_audits_at_degree_overflow():
    # Vertex 1 reaches degree three at step 4. From then on the arrows are
    # undefined, while the gap audit still reports the 4-0 pair of step 5.
    trace = scripted_trace(6, [(5, 6), (1, 2), (1, 3), (1, 4), (2, 3)], [1, 3, 6, 5, 4])
    findings = audit_trace(trace)
    assert any(f.startswith("step 2: arrows") for f in findings)
    assert any(f.startswith("step 2: FOUR_ZERO") for f in findings)
    assert "step 5: FOUR_ZERO pair (2,3)@4 vs (5,6)@1 with a free slot between" in findings
    assert not any(f.startswith(("step 4: arrows", "step 5: arrows")) for f in findings)
    assert_replays_agree(trace)


@pytest.mark.parametrize(
    "pairs, slots, stale_at, error",
    [
        ([(1, 2), (3, 5), (2, 4)], [1, 4, 2], None, "step 2: request (3,5) has a vertex above n=4"),
        # Vertex 1 overflows at step 3; the arrows stay undefined, and vertex
        # 5 is still refused at step 4.
        ([(1, 2), (1, 3), (1, 4), (2, 5)], [1, 2, 3, 4], None, "step 4: request (2,5) has a vertex above n=4"),
        # The refused placement is reported, not the stale total of its step,
        # which the board never counts.
        ([(1, 2), (3, 4), (2, 3), (1, 5)], [2, 4, 1, 3], 4, "step 4: request (1,5) has a vertex above n=4"),
    ],
)
def test_board_replay_refuses_a_vertex_above_n_at_its_step(pairs, slots, stale_at, error):
    trace = scripted_trace(4, pairs, slots, stale_at)
    for read in (audit_trace, trace_to_dict):
        with pytest.raises(ReplayMismatchError, match=f"^{re.escape(error)}$"):
            read(trace)
    assert_replays_agree(trace)


@st.composite
def random_traces(draw):
    """Random requests (a vertex may lie above n) at random slots: mostly
    free ones, sometimes any slot in 0..n+1; sometimes one stale total."""
    n = draw(st.integers(1, 9))
    pairs, slots, free = [], [], list(range(1, n + 1))
    for _ in range(draw(st.integers(0, n + 1))):
        a = draw(st.integers(1, n))
        pairs.append((a, draw(st.integers(a + 1, n + 1))))
        slot = draw(st.sampled_from(free) | st.integers(0, n + 1)) if free else n
        slots.append(slot)
        if slot in free:
            free.remove(slot)
    stale_at = draw(st.none() | st.integers(1, max(len(pairs), 1)))
    return scripted_trace(n, pairs, slots, stale_at)


@given(random_traces())
@settings(max_examples=200, deadline=None)
def test_board_replay_matches_per_step_replay_on_random_traces(trace):
    assert_replays_agree(trace)


# ------------------------------------------- board counts and split extremes

# Vertex 1 is in the first three requests, so the arrows are undefined from
# step 3 on (no single request can push a vertex past degree two) and the
# board's sorted vertex ends alone must keep the count right.
GENERAL_9 = [(1, 2), (1, 3), (1, 4), (2, 5), (3, 6), (1, 7), (4, 8), (5, 9), (2, 9)]
# Steps 3 and 9 place with exactly half the placed slots on the left.
SHUFFLED_9 = [6, 1, 3, 9, 7, 2, 8, 4, 5]


@pytest.mark.parametrize(
    "slots",
    [list(range(1, 10)), list(range(9, 0, -1)), SHUFFLED_9],
    ids=["slot-order", "reverse-slot-order", "shuffled"],
)
def test_board_count_matches_oracles_after_degree_overflow(slots):
    board = ReplayBoard(9)
    placed = []
    halves = 0
    for step, (pair, slot) in enumerate(zip(GENERAL_9, slots), start=1):
        request = Request(*pair)
        left = sum(s < slot for s, _ in board.by_slot)
        halves += 0 < 2 * left == len(board.by_slot)
        before = board.edge_edge_total
        board.place(request, slot)
        assert board.edge_edge_total - before == added_crossings(placed, request, slot)
        placed.append((slot, request))
        assert board.edge_edge_total == total_crossings(placed)
        assert board.ends == sorted(v for _, q in placed for v in q.vertices)
        assert (board.lv is None) == (step >= 3)
    assert halves == (2 if slots == SHUFFLED_9 else 0)


BOARD_5 = {1: Request(3, 4), 4: Request(2, 5), 3: Request(1, 3)}


def board_lists(board):
    """Copies of everything a placement edits on the board."""
    lv = None if board.lv is None else list(board.lv)
    return (
        list(board.by_slot),
        list(board.free),
        list(board.degree),
        lv,
        list(board.ends),
        board.edge_edge_total,
    )


@pytest.mark.parametrize(
    "request_, slot, error",
    [
        (Request(1, 2), 0, SlotRangeError("slot 0 out of range 1..5")),
        (Request(1, 2), 6, SlotRangeError("slot 6 out of range 1..5")),
        (Request(1, 2), 4, SlotOccupiedError("slot 4 is already fulfilled")),
        # The slot is checked before the vertex.
        (Request(1, 6), 1, SlotOccupiedError("slot 1 is already fulfilled")),
        # Slot 2 has fewer placed requests on its left, slot 5 on its right:
        # the vertex is refused before either side is counted.
        (Request(1, 6), 2, ValueError("request (1,6) has a vertex above n=5")),
        (Request(1, 6), 5, ValueError("request (1,6) has a vertex above n=5")),
    ],
    ids=[
        "slot-0",
        "slot-n+1",
        "occupied",
        "occupied-and-vertex-above-n",
        "vertex-above-n-left",
        "vertex-above-n-right",
    ],
)
def test_board_refuses_a_placement_before_it_edits_anything(request_, slot, error):
    board = ReplayBoard.of(PlacementState(n=5, placed=BOARD_5))
    before = board_lists(board)
    with pytest.raises(ValueError) as refused:
        board.place(request_, slot)
    assert (type(refused.value), str(refused.value)) == (type(error), str(error))
    assert board_lists(board) == before
    # The board goes on as if the refused call had never been made.
    board.place(Request(1, 2), 2)
    fresh = ReplayBoard.of(PlacementState(n=5, placed={**BOARD_5, 2: Request(1, 2)}))
    assert board_lists(board) == board_lists(fresh)


@pytest.mark.parametrize("slot", [True, 2.0, "2"], ids=["bool", "float", "str"])
def test_a_slot_that_is_not_an_int_is_refused_before_anything_is_edited(slot):
    # A bool is not taken as slot 1, nor a float as the free slot it equals.
    error = f"^slot must be an integer, got {re.escape(repr(slot))}$"
    board = ReplayBoard.of(PlacementState(n=5, placed=BOARD_5))
    before = board_lists(board)
    with pytest.raises(SlotRangeError, match=error):
        board.place(Request(1, 2), slot)
    assert board_lists(board) == before
    with pytest.raises(SlotRangeError, match=error):
        apply(PlacementState(3), Request(1, 2), slot)
    scripted = OnlineAlgorithm(name="scripted", choose=lambda board, request: slot)
    with pytest.raises(SlotRangeError, match=error):
        play(Instance(n=3, requests=(Request(1, 2),)), scripted)
    trace = Trace(n=3, steps=(TraceStep(Request(1, 2), slot, 0),))
    for read in (audit_trace, trace_to_dict):
        with pytest.raises(ReplayMismatchError, match=error.replace("^", "^step 1: ")):
            read(trace)
    assert_replays_agree(trace)


def test_a_state_that_mixes_slot_types_is_refused_before_it_is_sorted():
    # Sorting the slots '1' and 2 would raise a bare TypeError.
    state = PlacementState(n=3, placed={"1": Request(1, 2), 2: Request(2, 3)})
    for read in (render_svg, arrows, audit_no_double_cross, audit_equator):
        with pytest.raises(SlotRangeError, match="^slot must be an integer, got '1'$"):
            read(state)


def double_cross_state(n, pairs, slots):
    return PlacementState(n=n, placed={s: Request(*p) for p, s in zip(pairs, slots)})


@pytest.mark.parametrize(
    "state, targets",
    [
        # No free slot left of the fulfilled slot (split 0): right side only.
        (double_cross_state(4, [(3, 4)], [1]), [(1, [2, 3])]),
        # No free slot right of it (split == len(free)): left side only.
        (double_cross_state(4, [(1, 2)], [4]), [(4, [2, 3])]),
        # A fulfilled slot in the middle with findings on its left only, and
        # one with findings on its right only.
        (double_cross_state(6, [(1, 2)], [4]), [(4, [2, 3])]),
        (double_cross_state(6, [(5, 6)], [3]), [(3, [4, 5])]),
        # Two fulfilled slots whose runs share targets 3, 4 and 5.
        (double_cross_state(6, [(4, 5), (5, 6)], [1, 2]), [(1, [3, 4, 5]), (2, [3, 4, 5])]),
        # Both layout ends fulfilled: a right run and a left run that
        # overlap in targets 3 and 4.
        (double_cross_state(6, [(1, 2), (5, 6)], [6, 1]), [(1, [2, 3, 4]), (6, [3, 4, 5])]),
        # The arrows into slot 1, (1, 1) and (3, 1), straddle b = 2 of slot
        # 6, so the left run of slot 6 starts at slot 2.
        (double_cross_state(6, [(2, 3), (1, 2)], [5, 6]), [(5, [2, 3, 4]), (6, [2, 3, 4])]),
        # The arrows into slot 3, (1, 3) and (2, 3), straddle a = 2 of slot
        # 1: no finding on either side.
        (double_cross_state(4, [(2, 3), (1, 4)], [1, 2]), []),
        # A left run of one target with a free slot beyond it, whose arrow
        # (1, 1) lies below b = 2, and a right run of one with a free slot
        # beyond it, whose arrow (3, 3) lies above a = 2: neither is bisected.
        (double_cross_state(4, [(1, 2)], [3]), [(3, [2])]),
        (double_cross_state(4, [(2, 3)], [1]), [(1, [2])]),
        # A left run that reaches the first target, and right runs that
        # reach the last one.
        (double_cross_state(4, [(1, 2), (1, 2)], [1, 4]), [(4, [2, 3])]),
        (double_cross_state(4, [(3, 4), (3, 4)], [1, 2]), [(1, [3, 4]), (2, [3, 4])]),
        # Runs whose next target fails by one vertex: the arrows into slot 1,
        # (2, 1) and (3, 1), have lower vertex b = 2 of slot 4, and those
        # into slot 5, (3, 5) and (4, 5), upper vertex a = 4 of slot 2.
        (double_cross_state(5, [(1, 2), (1, 3)], [4, 5]), [(4, [2, 3]), (5, [2, 3])]),
        (double_cross_state(5, [(1, 5), (4, 5)], [1, 2]), [(2, [3, 4])]),
        # The nearest target fails by one vertex: the arrows into slot 2,
        # (3, 2) and (4, 2), have lower vertex b = 3 of slot 3.
        (double_cross_state(4, [(1, 3), (1, 4)], [3, 4]), []),
    ],
)
def test_double_cross_audit_at_split_extremes(state, targets):
    findings = audit_no_double_cross(state)
    assert findings == oracle_double_cross(state)
    # A second sweep of one board reads the fulfilled slots' tails as the
    # first one formatted them.
    board = ReplayBoard.of(state)
    assert board.findings() == board.findings() == findings
    found = [
        (int(f.split(" of slot ")[1].split()[0]), int(f.split(" into slot ")[1].split()[0]))
        for f in findings
    ]
    assert found == [(slot, t) for slot, ts in targets for t in ts]


def test_audit_trace_prefixes_every_double_cross_head_with_its_step():
    # Step 1 reports targets 2-4 of slot 1; at step 2 the heads of targets
    # 3-5 are built for slot 1 and serve slot 2 too.
    trace = scripted_trace(6, [(4, 5), (5, 6)], [1, 2])
    findings = audit_trace(trace)
    assert findings == oracle_audit_trace(trace)
    heads = [f[: len("step 1: arrows [")] for f in findings]
    assert heads == ["step 1: arrows ["] * 3 + ["step 2: arrows ["] * 6
    assert findings[3] == (
        "step 2: arrows [(1, 3), (1, 3)] into slot 3 each cross both edges of slot 1 (4,5)"
    )
