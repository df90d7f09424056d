"""The per-pair scoring implementations, kept as test oracles.

Each oracle below is the straightforward version of a scoring function:
it simulates every placed pair, or tests every placed request against
every arrow. The library's fast versions must return exactly the same
values, findings in the same order, on every step of every game here.
"""

import functools
import random
from bisect import bisect_left, bisect_right
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from oscm.adversaries import fig8_instance, thm1_adversary, thm2_adversary
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
    added_crossings,
    classify_pair,
    edges_cross,
    order_counts,
    pair_crossings,
    total_crossings,
)
from oscm.harness import (
    ALL_AUDITS,
    ReplayMismatchError,
    audit_trace,
    pair_type_histogram,
    score_trace,
    trace_to_dict,
    unavoidable_lower_bound,
)
from oscm.model import (
    Instance,
    PlacementState,
    Request,
    SlotRangeError,
    apply,
    empty_state,
    free_slots,
    random_two_regular,
)
from oscm.propagation import (
    DegreeOverflowError,
    arrows,
    audit_equator,
    audit_no_double_cross,
)
from oscm.replay import ReplayBoard, cut_flows, gap_pair_findings
from oracles import edge_arrow_crossings, outcome, raised, scratch_arrows, segment_crossings


# ----------------------------------------------------------------- oracles


def oracle_classify(r1, s1, r2, s2):
    placed = pair_crossings(r1, s1, r2, s2)
    swapped = pair_crossings(r1, s2, r2, s1)
    label = frozenset({placed, swapped})
    for kind in PairKind:
        if kind.value == label:
            return PairCrossKind(kind=kind, placed_count=placed, swapped_count=swapped)
    raise UnclassifiablePairError(f"counts ({placed}, {swapped}) match no known kind")


def oracle_histogram(state):
    counts = {kind.name: 0 for kind in PairKind}
    for (s1, r1), (s2, r2) in combinations(state.items(), 2):
        counts[oracle_classify(r1, s1, r2, s2).kind.name] += 1
    return counts


def oracle_unavoidable(state):
    return sum(
        oracle_classify(r1, s1, r2, s2).unavoidable
        for (s1, r1), (s2, r2) in combinations(state.items(), 2)
    )


def oracle_total(placements):
    items = placements.items() if isinstance(placements, PlacementState) else list(placements)
    return sum(
        pair_crossings(r1, s1, r2, s2) for (s1, r1), (s2, r2) in combinations(items, 2)
    )


def oracle_gap(state_before, request, slot):
    findings = []
    for other_slot, other_req in state_before.items():
        kind = oracle_classify(request, slot, other_req, other_slot)
        worst = max(kind.placed_count, kind.swapped_count)
        if kind.kind not in (PairKind.FOUR_ZERO, PairKind.THREE_ZERO):
            continue
        if kind.placed_count != worst:
            continue
        lo, hi = min(slot, other_slot), max(slot, other_slot)
        if any(state_before.is_free(s) for s in range(lo + 1, hi)):
            findings.append(
                f"{kind.kind.name} pair ({request.a},{request.b})@{slot} vs "
                f"({other_req.a},{other_req.b})@{other_slot} with a free slot between"
            )
    return findings


def bisect_gap_findings(state_before, request, slot):
    """The gap audit of a `PlacementState` before `request` is placed at
    `slot`, as `harness` ran it before the board: a placed slot left of
    `slot` has a free slot between exactly when it lies left of the nearest
    free slot below `slot`, and one right of it when it lies right of the
    nearest free slot above, so bisections find both runs of candidates."""
    items = state_before.items()
    slots = [s for s, _ in items]
    free = free_slots(state_before)
    below = bisect_left(free, slot)
    above = bisect_right(free, slot)
    left_stop = bisect_left(slots, free[below - 1]) if below else 0
    right_start = bisect_right(slots, free[above]) if above < len(free) else len(items)
    return gap_pair_findings(request, slot, items, left_stop, right_start)


def oracle_double_cross(state, arr=None):
    if arr is None:
        arr = scratch_arrows(state)
    findings = []
    for slot, req in state.items():
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


def oracle_equator(state, arr=None):
    if arr is None:
        arr = scratch_arrows(state)
    segments = state.edges() + list(arr)
    return [
        f"cut (v<={i}, s<={i}): {lr} left-to-right vs {rl} right-to-left"
        for i, (lr, rl) in enumerate(cut_flows(state.n, segments), start=1)
        if lr != rl
    ]


def oracle_audit_trace(trace):
    findings = []
    state = empty_state(trace.n)
    for idx, step in enumerate(trace.steps, start=1):
        findings.extend(f"step {idx}: {f}" for f in oracle_gap(state, step.request, step.slot))
        state = apply(state, step.request, step.slot)
        if oracle_total(state) != step.edge_edge_total:
            raise ReplayMismatchError(f"step {idx} stored edge-edge total is stale")
        try:
            findings.extend(f"step {idx}: {f}" for f in oracle_double_cross(state))
            findings.extend(f"step {idx}: {f}" for f in oracle_equator(state))
        except DegreeOverflowError:
            pass
    return findings


# ----------------------------------------------------------------- helpers


def assert_state_matches(state):
    assert total_crossings(state) == oracle_total(state)
    assert outcome(audit_no_double_cross, state) == outcome(oracle_double_cross, state)
    assert outcome(audit_equator, state) == outcome(oracle_equator, state)


def assert_trace_matches(trace):
    """Every state of the trace, every step's gap audit, the final pair
    kinds and the whole audit output agree with the oracles."""
    state = empty_state(trace.n)
    for step in trace.steps:
        assert bisect_gap_findings(state, step.request, step.slot) == oracle_gap(
            state, step.request, step.slot
        )
        state = apply(state, step.request, step.slot)
        assert_state_matches(state)
    assert pair_type_histogram(trace) == oracle_histogram(trace.final_state)
    assert unavoidable_lower_bound(trace) == oracle_unavoidable(trace.final_state)
    assert audit_trace(trace) == oracle_audit_trace(trace)


def random_slot_algorithm(seed):
    rng = random.Random(seed)
    return OnlineAlgorithm(name="random", choose=lambda board, r: rng.choice(board.free))


ALL_ALGORITHMS = [ALGORITHMS[name] for name in sorted(ALGORITHMS)]


def two_regular_games(alg):
    # Every size up to 24, then every fourth up to 40: the cubic oracles
    # make the largest games the slowest.
    for n in [*range(2, 25), 28, 32, 36, 40]:
        for seed in range(3) if n <= 12 else (n,):
            yield play(random_two_regular(n, seed), alg)


def adversary_games(alg):
    sources = [thm1_adversary(n) for n in (4, 7, 12)]
    sources += [thm2_adversary(rounds) for rounds in (1, 2)]
    sources += [fig8_instance(n) for n in (4, 8, 14)]
    for source in sources:
        yield play(source, alg)


def random_slot_games():
    # Random slot choices reach far more double-cross and gap findings than
    # any of the three algorithms.
    for n in range(2, 21):
        for seed in range(4):
            yield play(random_two_regular(n, seed), random_slot_algorithm(seed))


def general_games():
    # Requests drawn with replacement: vertices may exceed degree two, so
    # arrows are undefined on some states and both sides skip the same ones.
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 14)
        count = rng.randint(0, n)
        requests = tuple(Request(*sorted(rng.sample(range(1, n + 1), 2))) for _ in range(count))
        yield play(Instance(n=n, requests=requests), random_slot_algorithm(n))


@functools.cache
def all_grid_games():
    games = [g for alg in ALL_ALGORITHMS for g in (*two_regular_games(alg), *adversary_games(alg))]
    return (*games, *random_slot_games(), *general_games())


# ------------------------------------------------------------------- tests


def test_classify_pair_matches_simulation_on_every_pair():
    requests = [Request(a, b) for a, b in combinations(range(1, 7), 2)]
    for r1 in requests:
        for r2 in requests:
            for s1, s2 in ((1, 2), (2, 1), (3, 7), (7, 3)):
                assert classify_pair(r1, s1, r2, s2) == oracle_classify(r1, s1, r2, s2)
            gt, lt = order_counts(r1, r2)
            assert (gt, lt) == (pair_crossings(r1, 1, r2, 2), pair_crossings(r1, 2, r2, 1))
    with pytest.raises(ValueError, match="requests share slot 3"):
        classify_pair(Request(1, 2), 3, Request(3, 4), 3)


@pytest.mark.parametrize("alg", ALL_ALGORITHMS, ids=lambda a: a.name)
def test_scoring_matches_oracles_on_random_two_regular_games(alg):
    for trace in two_regular_games(alg):
        assert_trace_matches(trace)


@pytest.mark.parametrize("alg", ALL_ALGORITHMS, ids=lambda a: a.name)
def test_scoring_matches_oracles_on_adversaries(alg):
    for trace in adversary_games(alg):
        assert_trace_matches(trace)


def test_scoring_matches_oracles_on_random_slot_games():
    for trace in random_slot_games():
        assert_trace_matches(trace)


def test_scoring_matches_oracles_on_general_instances():
    for trace in general_games():
        assert_trace_matches(trace)


def test_scoring_matches_oracles_on_partial_and_hand_built_states():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 12)
        placed = {}
        for slot in rng.sample(range(0, n + 3), rng.randint(0, n)):
            a = rng.randint(1, n + 1)
            placed[slot] = Request(a, a + rng.randint(1, 3))
        state = PlacementState(n=n, placed=placed)
        if any(not 1 <= s <= n for s in placed):
            # No board holds a slot outside 1..n: the arrows and both audits
            # raise what loading the state in slot order raises, so
            # SlotRangeError unless a vertex above n comes first.
            loading = raised(ReplayBoard.of, state)
            assert loading[0] in (SlotRangeError, IndexError)
            for fn in (arrows, audit_no_double_cross, audit_equator):
                assert raised(fn, state) == loading
            assert outcome(oracle_total, state) == outcome(total_crossings, state)
            continue
        # Vertices above n have no degree entry; both sides raise alike.
        try:
            scratch_arrows(state)
        except IndexError:
            for fn in (arrows, audit_no_double_cross, audit_equator):
                assert raised(fn, state)[0] is IndexError
            assert outcome(oracle_total, state) == outcome(total_crossings, state)
            continue
        except DegreeOverflowError:
            pass
        assert_state_matches(state)


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


def test_score_trace_alg_is_the_final_layout_total_on_game_grids():
    for trace in all_grid_games():
        report = score_trace(trace, "alg", "grid", opt_value=1)
        assert report.alg_crossings == total_crossings(trace.final_state)


@pytest.mark.parametrize("audits", [ALL_AUDITS, frozenset()], ids=["all", "none"])
def test_score_trace_rejects_a_stale_total_instead_of_scoring_it(audits):
    trace = play(random_two_regular(8, 0), ALGORITHMS["greedy"])
    for idx, step in enumerate(trace.steps):
        steps = list(trace.steps)
        steps[idx] = replace(step, edge_edge_total=step.edge_edge_total + 1)
        stale = replace(trace, steps=tuple(steps))
        with pytest.raises(ReplayMismatchError, match=f"^step {idx + 1} stored edge-edge"):
            score_trace(stale, "greedy", "stale", audits=audits)


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


def test_audit_equator_words_an_unbalanced_arrow_set():
    state = apply(empty_state(4), Request(1, 2), 2)
    assert audit_equator(state) == []
    # Shift one arrow's vertex from 3 to 1 on the board: the cuts between
    # move one segment across in the left-to-right direction.
    board = ReplayBoard.of(state)
    moved = list(board.arrows())
    index = moved.index((3, 3))
    moved[index] = (1, 3)
    board.lv[index] = 1
    assert board.arrows() == moved
    findings = board.equator_findings()
    assert findings == oracle_equator(state, moved)
    assert findings == [
        "cut (v<=1, s<=1): 2 left-to-right vs 1 right-to-left",
        "cut (v<=2, s<=2): 1 left-to-right vs 0 right-to-left",
    ]


def test_audit_trace_shares_the_board_arrows_between_both_audits(monkeypatch):
    trace = play(Instance(n=4, requests=(Request(1, 2), Request(3, 4))), ALGORITHMS["first_fit"])
    place = ReplayBoard.place

    def place_then_corrupt(board, request, slot):
        # The audits read a corrupted arrow list with every arrow moved to
        # vertex 1, so the cuts no longer balance; placing edits the true one.
        board.lv = getattr(board, "true_lv", board.lv)
        place(board, request, slot)
        board.true_lv = board.lv
        board.lv = [1] * len(board.lv)

    monkeypatch.setattr(ReplayBoard, "place", place_then_corrupt)
    findings = audit_trace(trace, audits=frozenset({"double_cross", "equator"}))
    state = empty_state(trace.n)
    expected = []
    for idx, step in enumerate(trace.steps, start=1):
        state = apply(state, step.request, step.slot)
        corrupted = [(1, t) for _, t in scratch_arrows(state)]
        assert oracle_equator(state, corrupted) != []
        expected += [f"step {idx}: {f}" for f in oracle_double_cross(state, corrupted)]
        expected += [f"step {idx}: {f}" for f in oracle_equator(state, corrupted)]
    assert findings == expected
    assert any("each cross both edges" in f for f in findings)
    assert any("left-to-right" in f for f in findings)


# ------------------------------------------------ replay board vs per-step


def per_step_audit_trace(trace, audits=ALL_AUDITS):
    """`audit_trace` as it was before the replay board: every step builds a
    new state with `apply`, builds its arrows from scratch and runs the
    per-state audits, each on a board loaded with that state."""
    findings = []
    state = empty_state(trace.n)
    edge_edge_total = 0
    for idx, step in enumerate(trace.steps, start=1):
        if not state.is_free(step.slot):
            raise ReplayMismatchError(f"step {idx} places into unavailable slot {step.slot}")
        if "gap" in audits:
            gap = bisect_gap_findings(state, step.request, step.slot)
            findings.extend(f"step {idx}: {f}" for f in gap)
        after = apply(state, step.request, step.slot)
        edge_edge_total += added_crossings(state, step.request, step.slot)
        state = after
        if edge_edge_total != step.edge_edge_total:
            raise ReplayMismatchError(f"step {idx} stored edge-edge total is stale")
        # A vertex above n raises IndexError here, whichever audits run.
        try:
            scratch_arrows(state)
        except DegreeOverflowError:
            continue
        if "double_cross" in audits:
            findings.extend(f"step {idx}: {f}" for f in audit_no_double_cross(state))
        if "equator" in audits:
            findings.extend(f"step {idx}: {f}" for f in audit_equator(state))
    return findings


def per_step_trace_to_dict(trace):
    """`trace_to_dict` as it was before the replay board."""
    steps = []
    state = empty_state(trace.n)
    for s in trace.steps:
        state = apply(state, s.request, s.slot)
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


AUDIT_SUBSETS = [
    frozenset(audits) for k in range(4) for audits in combinations(sorted(ALL_AUDITS), k)
]


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
    trace under every audit subset: the same findings, or the same error
    raised at the same step; `trace_to_dict` likewise."""
    for stop in range(len(trace.steps) + 1):
        prefix = replace(trace, steps=trace.steps[:stop])
        for audits in AUDIT_SUBSETS:
            assert raised(audit_trace, prefix, audits) == raised(
                per_step_audit_trace, prefix, audits
            )
        assert raised(trace_to_dict, prefix) == raised(per_step_trace_to_dict, prefix)


@pytest.mark.parametrize("audits", AUDIT_SUBSETS, ids=lambda a: "+".join(sorted(a)) or "none")
def test_board_replay_matches_per_step_replay_on_game_grids(audits):
    for trace in all_grid_games():
        assert audit_trace(trace, audits) == per_step_audit_trace(trace, audits)


def test_board_trace_to_dict_matches_per_step_replay_on_game_grids():
    for trace in all_grid_games():
        assert trace_to_dict(trace) == per_step_trace_to_dict(trace)


TWO_REGULAR_6 = [(1, 2), (3, 4), (5, 6), (1, 3), (2, 5), (4, 6)]


@pytest.mark.parametrize(
    "slots, error",
    [
        ([2, 5, 0, 1, 3, 4], "step 3 places into unavailable slot 0"),
        ([2, 5, 7, 1, 3, 4], "step 3 places into unavailable slot 7"),
        ([2, 5, 1, 5, 3, 4], "step 4 places into unavailable slot 5"),
    ],
)
def test_board_replay_rejects_unavailable_slots_at_the_same_step(slots, error):
    trace = scripted_trace(6, TWO_REGULAR_6, slots)
    for audits in AUDIT_SUBSETS:
        with pytest.raises(ReplayMismatchError, match=f"^{error}$"):
            audit_trace(trace, audits)
    assert_replays_agree(trace)


def test_board_replay_rejects_a_stale_total_at_the_same_step():
    # The second trace's stale step also places vertex 5 on a 4-slot board,
    # which raises IndexError: the stale total is still the error reported.
    stale = "^step 4 stored edge-edge total is stale$"
    for trace in (
        scripted_trace(6, TWO_REGULAR_6, [6, 1, 4, 2, 5, 3], stale_at=4),
        scripted_trace(4, [(1, 2), (3, 4), (2, 3), (1, 5)], [2, 4, 1, 3], stale_at=4),
    ):
        for audits in AUDIT_SUBSETS:
            with pytest.raises(ReplayMismatchError, match=stale):
                audit_trace(trace, audits)
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
    "pairs, slots",
    [
        ([(1, 2), (3, 5), (2, 4)], [1, 4, 2]),
        # Vertex 1 overflows at step 3; the arrows stay undefined, and vertex
        # 5 still raises at step 4.
        ([(1, 2), (1, 3), (1, 4), (2, 5)], [1, 2, 3, 4]),
    ],
)
def test_board_replay_raises_index_error_on_a_vertex_above_n_for_every_audit_subset(pairs, slots):
    # The board keeps every vertex's degree, whichever audits run.
    trace = scripted_trace(4, pairs, slots)
    for audits in AUDIT_SUBSETS:
        with pytest.raises(IndexError):
            audit_trace(trace, audits)
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
