import hashlib
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

import oscm.crossings
import oscm.model
import oscm.propagation
from oscm.adversaries import Thm1Adversary, Thm2Adversary, fig8_instance
from oscm.algorithms import (
    ALGORITHMS,
    BARYCENTER,
    FIRST_FIT,
    GREEDY,
    NoFreeSlotError,
    OnlineAlgorithm,
    get_algorithm,
    greedy_scores,
    play,
)
from oscm.crossings import total_crossings
from oscm.harness import trace_to_dict
from oscm.model import (
    Instance,
    PlacementState,
    Request,
    SlotRangeError,
    apply,
    random_two_regular,
)
from oscm.propagation import DegreeOverflowError, ReplayBoard, arrows
from oracles import (
    edge_arrow_crossings,
    edges_cross,
    free_slots,
    outcome,
    scratch_arrows,
    state_degrees,
    state_edges,
    state_is_free,
    state_items,
    sweep_greedy_scores,
)


def occupy(state, slots):
    # Filler placements that keep every vertex below degree 2 are not needed
    # for barycenter, which never looks at edges; use a fixed dummy request.
    for slot in slots:
        state = apply(state, Request(1, 2), slot)
    return state


def test_barycenter_hits_free_target():
    assert BARYCENTER.choose(ReplayBoard.of(PlacementState(5)), Request(2, 4)) == 3


def test_barycenter_nearest_with_leftmost_tie():
    board = ReplayBoard.of(occupy(PlacementState(5), [3]))
    assert BARYCENTER.choose(board, Request(2, 4)) == 2
    board = ReplayBoard.of(occupy(PlacementState(5), [2, 3, 4]))
    assert BARYCENTER.choose(board, Request(2, 4)) == 1


def test_barycenter_floors_odd_midpoint():
    assert BARYCENTER.choose(ReplayBoard.of(PlacementState(5)), Request(2, 5)) == 3


@given(st.integers(1, 12), st.data())
def test_barycenter_matches_nearest_slot_scan(n, data):
    # The bisection against the plain scan: nearest free slot to the
    # floored midpoint, leftmost on distance ties.
    taken = data.draw(st.sets(st.integers(1, n), max_size=n - 1))
    board = ReplayBoard.of(occupy(PlacementState(n), sorted(taken)))
    a = data.draw(st.integers(1, n + 1))
    request = Request(a, data.draw(st.integers(a + 1, n + 2)))
    target = (request.a + request.b) // 2
    expected = min(board.free, key=lambda t: (abs(t - target), t))
    assert BARYCENTER.choose(board, request) == expected


def test_choose_errors_on_full_state():
    full = ReplayBoard.of(occupy(PlacementState(2), [1, 2]))
    for alg in ALGORITHMS.values():
        with pytest.raises(NoFreeSlotError):
            alg.choose(full, Request(1, 2))


def test_greedy_breaks_ties_leftmost():
    # Empty board, duplicate-style first request: both slots score equally.
    assert GREEDY.choose(ReplayBoard.of(PlacementState(2)), Request(1, 2)) == 1


def test_greedy_separates_disjoint_pairs():
    first = GREEDY.choose(ReplayBoard.of(PlacementState(4)), Request(3, 4))
    state = apply(PlacementState(4), Request(3, 4), first)
    slot = GREEDY.choose(ReplayBoard.of(state), Request(1, 2))
    placed_slot = next(iter(state.placed))
    assert slot < placed_slot


def test_first_fit():
    assert FIRST_FIT.choose(ReplayBoard.of(PlacementState(3)), Request(2, 3)) == 1
    board = ReplayBoard.of(occupy(PlacementState(3), [1, 2]))
    assert FIRST_FIT.choose(board, Request(2, 3)) == 3


def test_get_algorithm():
    assert get_algorithm("greedy") is GREEDY
    with pytest.raises(KeyError) as info:
        get_algorithm("nope")
    assert info.value.args == ("unknown algorithm 'nope'; choose from ['barycenter', 'first_fit', 'greedy']",)
    # Raised from None: its traceback does not add the table's own KeyError.
    assert info.value.__cause__ is None and info.value.__suppress_context__


def test_play_duplicate_pair():
    inst = Instance(n=2, requests=(Request(1, 2), Request(1, 2)))
    trace = play(inst, GREEDY)
    assert len(trace.steps) == 2
    assert total_crossings(trace.final_state) == 1


def test_play_first_fit_assigns_in_order():
    inst = random_two_regular(6, seed=11)
    trace = play(inst, FIRST_FIT)
    assert [step.slot for step in trace.steps] == [1, 2, 3, 4, 5, 6]


@given(
    st.sampled_from(sorted(ALGORITHMS)),
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=500),
)
def test_traces_are_legal_and_deterministic(name, n, seed):
    alg = ALGORITHMS[name]
    inst = random_two_regular(n, seed)
    trace = play(inst, alg)
    steps = trace_to_dict(trace)["steps"]
    state = PlacementState(n)
    for i, step in enumerate(trace.steps):
        assert state_is_free(state, step.slot)
        state = apply(state, step.request, step.slot)
        assert total_crossings(state) == step.edge_edge_total
        assert steps[i]["edge_arrow_total"] == edge_arrow_crossings(state)
    assert play(inst, alg) == trace


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=300))
def test_greedy_choice_is_argmin(n, seed):
    # Re-verify every greedy decision: the chosen slot attains the minimum
    # simulated score, and no strictly smaller slot does.
    inst = random_two_regular(n, seed)
    state = PlacementState(n)
    for req in inst.requests:
        chosen = GREEDY.choose(ReplayBoard.of(state), req)
        scores = {}
        for slot in free_slots(state):
            candidate = apply(state, req, slot)
            scores[slot] = total_crossings(candidate) + edge_arrow_crossings(candidate)
        best = min(scores.values())
        assert scores[chosen] == best
        assert chosen == min(s for s, v in scores.items() if v == best)
        state = apply(state, req, chosen)


# The naive greedy scorer, kept as the reference for the one-pass
# `greedy_scores`: simulate every free slot and recount from scratch.


def naive_edge_arrow_crossings(state):
    edges = state_edges(state)
    return sum(1 for arrow in scratch_arrows(state) for edge in edges if edges_cross(edge, arrow))


def naive_greedy_scores(state, request):
    scores = {}
    for slot in free_slots(state):
        candidate = apply(state, request, slot)
        scores[slot] = total_crossings(candidate) + naive_edge_arrow_crossings(candidate)
    return scores


def relative(scores):
    """Absolute scores less the leftmost free slot's, in slot order: the
    form `greedy_scores` returns; an error outcome passes through."""
    if not isinstance(scores, dict):
        return scores
    base = scores[min(scores)]
    return [scores[t] - base for t in sorted(scores)]


def leftmost_argmin(scores):
    return min(scores, key=lambda t: (scores[t], t))


def checked_greedy():
    # Greedy with every decision cross-checked against both oracles on the
    # live board, so that adaptive sources are checked along greedy's own game.
    def choose(board, request):
        state = PlacementState(n=board.n, placed=dict(board.by_slot))
        naive = naive_greedy_scores(state, request)
        expected = relative(naive)
        assert greedy_scores(board, request) == expected
        assert relative(sweep_greedy_scores(state, request)) == expected
        slot = GREEDY.choose(board, request)
        assert slot == leftmost_argmin(naive)
        return slot

    return OnlineAlgorithm(name="checked_greedy", choose=choose)


def test_greedy_scores_match_oracle_on_small_random_games():
    alg = checked_greedy()
    for n in range(2, 13):
        for seed in range(25):
            inst = random_two_regular(n, seed)
            assert play(inst, alg).steps == play(inst, GREEDY).steps


@pytest.mark.parametrize("n", [16, 24, 32, 40])
def test_greedy_scores_match_oracle_on_larger_games(n):
    play(random_two_regular(n, seed=n), checked_greedy())


@pytest.mark.parametrize("rounds", [1, 2, 3])
def test_greedy_scores_match_oracle_on_adaptive_adversary(rounds):
    play(Thm2Adversary(rounds), checked_greedy())


@pytest.mark.parametrize("n", [4, 8, 12])
def test_greedy_scores_match_oracle_on_duplicated_pairs(n):
    play(fig8_instance(n), checked_greedy())


def test_greedy_scores_on_partial_random_boards():
    # Off greedy's own path too: boards filled by arbitrary slot choices.
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(2, 10)
        inst = random_two_regular(n, rng.randrange(2**31))
        state = PlacementState(n)
        for req in inst.requests:
            got = greedy_scores(ReplayBoard.of(state), req)
            naive = naive_greedy_scores(state, req)
            assert got == relative(naive) == relative(sweep_greedy_scores(state, req))
            assert GREEDY.choose(ReplayBoard.of(state), req) == leftmost_argmin(naive)
            state = apply(state, req, rng.choice(free_slots(state)))


@st.composite
def requests_on_filled_boards(draw):
    """A board filled by arbitrary slot choices, and the next request: from
    a 2-regular sequence, or drawn with replacement, so that vertices may
    exceed degree two before or with the request."""
    n = draw(st.integers(2, 12))
    if draw(st.booleans()):
        requests = list(random_two_regular(n, draw(st.integers(0, 2**31))).requests)
    else:
        pair = st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)
        requests = [Request(*sorted(p)) for p in draw(st.lists(pair, min_size=n, max_size=n))]
    placed = draw(st.integers(0, n - 1))
    state = PlacementState(n)
    for req in requests[:placed]:
        state = apply(state, req, draw(st.sampled_from(free_slots(state))))
    return state, requests[placed]


@given(requests_on_filled_boards())
@settings(max_examples=300, deadline=None)
def test_greedy_scores_match_oracles_on_random_boards(case):
    state, request = case
    got = outcome(greedy_scores, ReplayBoard.of(state), request)
    naive = outcome(naive_greedy_scores, state, request)
    assert got == relative(naive)
    assert got == relative(outcome(sweep_greedy_scores, state, request))
    if isinstance(naive, dict) and len(naive) > 1:
        assert GREEDY.choose(ReplayBoard.of(state), request) == leftmost_argmin(naive)


def test_greedy_degree_overflow_matches_oracle():
    # Vertex 1 already has degree 2; a third request on it has undefined arrows.
    state = apply(apply(PlacementState(4), Request(1, 2), 1), Request(1, 3), 2)
    with pytest.raises(DegreeOverflowError) as expected:
        naive_greedy_scores(state, Request(1, 4))
    for fn in (greedy_scores, GREEDY.choose):
        board = ReplayBoard.of(state)
        with pytest.raises(DegreeOverflowError) as got:
            fn(board, Request(1, 4))
        assert str(got.value) == str(expected.value) == "vertex 1 has degree 3 > 2"
        assert board.degree == state_degrees(state)


def test_greedy_arrow_mismatch_matches_oracle():
    # A hand-built state with a request outside the board has no arrows,
    # and no board can hold it: loading it, as `arrows` does, raises
    # SlotRangeError.
    state = PlacementState(n=3, placed={5: Request(1, 2)})
    with pytest.raises(ValueError) as expected:
        naive_greedy_scores(state, Request(2, 3))
    with pytest.raises(ValueError) as got:
        sweep_greedy_scores(state, Request(2, 3))
    assert str(got.value) == str(expected.value) == "2 missing edges vs 4 slot openings"
    for load in (ReplayBoard.of, arrows):
        with pytest.raises(SlotRangeError, match="^slot 5 out of range 1..3$"):
            load(state)


def test_greedy_single_free_slot_skips_scoring():
    # With one slot left the choice is forced, even where arrows are undefined.
    state = apply(apply(PlacementState(3), Request(1, 2), 1), Request(1, 3), 2)
    assert GREEDY.choose(ReplayBoard.of(state), Request(1, 2)) == 3


def pinned_greedy_games():
    for n in range(2, 41):
        for seed in range(5):
            yield random_two_regular(n, seed)
    for n in (80, 160):
        for seed in range(2):
            yield random_two_regular(n, seed)
    for rounds in range(1, 11):
        yield Thm2Adversary(rounds)
    for n in range(4, 41, 2):
        yield Thm1Adversary(n)
        yield fig8_instance(n)


def test_greedy_traces_match_pinned_sha256():
    # Every step of greedy's games on a seed grid and the three adversaries,
    # tie-breaks included: a scorer that changes any choice changes the digest.
    digest = hashlib.sha256()
    for source in pinned_greedy_games():
        for s in play(source, GREEDY).steps:
            digest.update(f"{s.request.a},{s.request.b}@{s.slot}:{s.edge_edge_total};".encode())
        digest.update(b"\n")
    assert digest.hexdigest() == "7b543aae40c55370b016960dd1dfe6a95115167c5757132d8e934a4b7ec15ef7"


def test_edge_arrow_crossings_matches_naive_count():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randint(2, 12)
        inst = random_two_regular(n, rng.randrange(2**31))
        state = PlacementState(n)
        for req in inst.requests:
            state = apply(state, req, rng.choice(free_slots(state)))
            expected = naive_edge_arrow_crossings(state)
            assert ReplayBoard.of(state).edge_arrow_total() == expected == edge_arrow_crossings(state)


@pytest.mark.parametrize("n", [5, 12, 25, 40])
def test_play_running_totals_match_full_recount(n):
    for alg in ALGORITHMS.values():
        trace = play(random_two_regular(n, seed=3 * n), alg)
        steps = trace_to_dict(trace)["steps"]
        state = PlacementState(n)
        for i, step in enumerate(trace.steps):
            state = apply(state, step.request, step.slot)
            assert step.edge_edge_total == total_crossings(state)
            assert steps[i]["edge_arrow_total"] == naive_edge_arrow_crossings(state)


@pytest.mark.parametrize("n", [4, 6, 10])
def test_trace_edge_arrow_totals_are_none_where_arrows_are_undefined(n):
    # thm1's last request overflows a vertex's degree, so that step has no arrows.
    for alg in ALGORITHMS.values():
        trace = play(Thm1Adversary(n), alg)
        got = [s["edge_arrow_total"] for s in trace_to_dict(trace)["steps"]]
        state = PlacementState(n)
        expected = []
        for step in trace.steps:
            state = apply(state, step.request, step.slot)
            try:
                expected.append(naive_edge_arrow_crossings(state))
            except DegreeOverflowError:
                expected.append(None)
        assert got == expected
        assert got[-1] is None and None not in got[:-1]
        if alg is FIRST_FIT and n == 6:
            assert got == [1, 3, 5, 7, 9, None]


def test_board_answers_like_a_placement_state():
    # Sources and algorithms read the live board's own lists; each is
    # checked against the PlacementState reference.
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(2, 10)
        state = PlacementState(n)
        board = ReplayBoard.of(state)
        for _ in range(rng.randint(0, n)):
            request = Request(*sorted(rng.sample(range(1, n + 1), 2)))
            slot = rng.choice(free_slots(state))
            state = apply(state, request, slot)
            board.place(request, slot)
        assert board.n == state.n
        assert board.free == free_slots(state)
        assert board.degree == state_degrees(state)
        assert board.by_slot == state_items(state)
        assert PlacementState(n=board.n, placed=dict(board.by_slot)) == state
        assert board.edge_edge_total == total_crossings(state)


def test_play_copies_no_state(monkeypatch):
    # `play` drives one board: no algorithm or source makes it copy a state,
    # build an arrow set or recount the crossings. Each function is
    # replaced at every module-level name that refers to it.
    def refuse(*args):
        raise AssertionError("play copied a state or recounted from scratch")

    targets = (oscm.model.apply, oscm.propagation.arrows)
    targets += (oscm.crossings.total_crossings,)
    for name, module in list(sys.modules.items()):
        if name == "oscm" or name.startswith("oscm."):
            for attr, value in list(vars(module).items()):
                if any(value is target for target in targets):
                    monkeypatch.setattr(module, attr, refuse)
    sources = [lambda: random_two_regular(20, seed=4), lambda: Thm1Adversary(8)]
    sources += [lambda: Thm2Adversary(3), lambda: fig8_instance(12)]
    for alg in ALGORITHMS.values():
        for source in sources:
            trace = play(source(), alg)
            assert trace.final_state.n == len(trace.steps)


def test_play_calls_on_step_after_each_placement_with_the_live_board():
    # The adversaries' requests depend on the board the hook reads; on the
    # general instance vertex 1 reaches degree 3, which greedy refuses.
    general = Instance(n=4, requests=(Request(1, 2), Request(1, 3), Request(1, 4), Request(2, 3)))
    sources = [lambda: random_two_regular(12, seed=3), lambda: Thm1Adversary(7)]
    sources += [lambda: Thm2Adversary(2)]
    games = [(alg, make) for alg in ALGORITHMS.values() for make in sources]
    games += [(alg, lambda: general) for alg in (BARYCENTER, FIRST_FIT)]
    for alg, make in games:
        source = make()
        events = []
        ask = getattr(source, "next_request", None)
        if ask is not None:
            source.next_request = lambda board: events.append("ask") or ask(board)

        def on_step(index, step, board):
            assert board.edge_edge_total == step.edge_edge_total
            assert len(board.by_slot) == index
            assert (step.slot, step.request) in board.by_slot
            events.append((index, step))

        trace = play(source, alg, on_step)
        steps = [event for event in events if event != "ask"]
        assert steps == list(enumerate(trace.steps, start=1))
        if ask is not None:
            # Each step is reported before the source is asked again.
            assert events == [e for step in steps for e in ("ask", step)] + ["ask"]
        assert play(make(), alg) == trace


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_play_rejects_a_vertex_above_n(name):
    # The request is refused before the algorithm is asked for a slot.
    asked = []

    def choose(board, request):
        asked.append(request)
        return ALGORITHMS[name].choose(board, request)

    alg = OnlineAlgorithm(name=name, choose=choose)
    with pytest.raises(ValueError, match=r"^step 1: request \(1,5\) has a vertex above n=3$"):
        play(Instance(n=3, requests=(Request(1, 5), Request(2, 3))), alg)
    assert asked == []
    inst = Instance(n=3, requests=(Request(1, 3), Request(2, 4), Request(1, 2)))
    with pytest.raises(ValueError, match=r"^step 2: request \(2,4\) has a vertex above n=3$"):
        play(inst, alg)
    assert asked == [Request(1, 3)]
