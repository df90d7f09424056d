import functools
from itertools import product

import pytest
from hypothesis import given, strategies as st

from oscm.adversaries import Thm2Adversary, fig8_instance
from oscm.algorithms import ALGORITHMS, GREEDY, greedy_scores, play
from oscm.model import (
    PlacementState,
    Request,
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
from oracles import (
    added_crossings,
    edge_arrow_crossings,
    free_slots,
    oracle_equator,
    scratch_arrows,
    unfulfilled_slots,
    unfulfilled_vertices,
)


def fig4_state():
    state = PlacementState(5)
    state = apply(state, Request(1, 3), 2)
    return apply(state, Request(3, 5), 5)


def test_unfulfilled_vertices():
    assert unfulfilled_vertices(PlacementState(3)) == [1, 1, 2, 2, 3, 3]
    assert unfulfilled_vertices(fig4_state()) == [1, 2, 2, 4, 4, 5]


def test_unfulfilled_vertices_overflow():
    state = PlacementState(3)
    for slot in (1, 2, 3):
        state = apply(state, Request(1, 2), slot)
    for build in (unfulfilled_vertices, arrows):
        with pytest.raises(DegreeOverflowError, match="^vertex 1 has degree 3 > 2$"):
            build(state)


def test_unfulfilled_slots():
    assert unfulfilled_slots(fig4_state()) == [1, 1, 3, 3, 4, 4]
    assert unfulfilled_slots(PlacementState(2)) == [1, 1, 2, 2]


def test_arrows_golden_partial_state():
    assert arrows(fig4_state()) == scratch_arrows(fig4_state()) == (
        (1, 1),
        (2, 1),
        (2, 3),
        (4, 3),
        (4, 4),
        (5, 4),
    )


def test_arrows_empty_and_full():
    assert arrows(PlacementState(2)) == ((1, 1), (1, 1), (2, 2), (2, 2))
    full = PlacementState(2)
    full = apply(full, Request(1, 2), 1)
    full = apply(full, Request(1, 2), 2)
    assert arrows(full) == ()


def test_arrows_mismatch_for_inconsistent_state():
    # Any state built with `apply` keeps deficits and openings balanced, so
    # they disagree only on hand-built states with a slot outside 1..n; no
    # board holds such a slot, and the arrows and audits raise SlotRangeError.
    state = PlacementState(n=3, placed={5: Request(1, 2)})
    with pytest.raises(ValueError, match="^4 missing edges vs 6 slot openings$"):
        scratch_arrows(state)
    for fn in (arrows, audit_no_double_cross, audit_equator):
        with pytest.raises(SlotRangeError, match="^slot 5 out of range 1..3$"):
            fn(state)


def _random_reachable_state(n, seed):
    import random

    rng = random.Random(seed)
    inst = random_two_regular(n, rng.randrange(2**31))
    state = PlacementState(n)
    cut = rng.randint(0, n)
    for req in inst.requests[:cut]:
        state = apply(state, req, rng.choice(free_slots(state)))
    return state


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2000))
def test_arrow_count_and_monotonicity(n, seed):
    state = _random_reachable_state(n, seed)
    arr = arrows(state)
    assert arr == scratch_arrows(state)
    assert len(arr) == 2 * len(free_slots(state))
    for (v1, s1), (v2, s2) in zip(arr, arr[1:]):
        assert v1 <= v2 and s1 <= s2


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2000))
def test_equator_identity_on_any_reachable_state(n, seed):
    # The flow balance at diagonal cuts is a counting identity, independent
    # of which algorithm produced the state.
    assert audit_equator(_random_reachable_state(n, seed)) == []


@st.composite
def state_and_segments(draw):
    # A reachable state and an arbitrary, usually unbalanced, segment list
    # in place of its arrows; coordinates may fall outside 1..n, where a
    # segment crosses only the cuts inside it.
    n = draw(st.integers(min_value=2, max_value=9))
    state = _random_reachable_state(n, draw(st.integers(min_value=0, max_value=2000)))
    coord = st.integers(min_value=0, max_value=n + 2)
    return state, draw(st.lists(st.tuples(coord, coord), max_size=20))


def _equator_with_arrows(state, segments):
    """`audit_equator` of `state` on a board whose arrows are `segments`."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ReplayBoard, "arrows", lambda board: list(segments))
        return audit_equator(state)


@given(state_and_segments())
def test_audit_equator_counts_each_cut_as_defined(data):
    state, segments = data
    assert _equator_with_arrows(state, segments) == oracle_equator(state, segments)


def test_audit_equator_hand_values():
    # Balanced at every cut: (1, 3) and (3, 1) cross cuts 1 and 2 in
    # opposite directions, and (2, 2) crosses none.
    assert _equator_with_arrows(PlacementState(3), [(1, 3), (3, 1), (2, 2)]) == []
    assert _equator_with_arrows(PlacementState(2), [(1, 2)]) == [
        "cut (v<=1, s<=1): 1 left-to-right vs 0 right-to-left"
    ]
    # Outside 1..n: (0, 2) crosses cut 1 only, (4, 1) cuts 1, 2 and 3.
    assert _equator_with_arrows(PlacementState(3), [(0, 2), (4, 1)]) == [
        "cut (v<=2, s<=2): 0 left-to-right vs 1 right-to-left",
        "cut (v<=3, s<=3): 0 left-to-right vs 1 right-to-left",
    ]
    # The placed edges count too: the edge (1, 2) crosses cut 1 left to
    # right, which the arrow (3, 1) balances; nothing balances the arrow
    # at cut 2.
    state = apply(PlacementState(3), Request(1, 2), 2)
    assert _equator_with_arrows(state, [(3, 1)]) == [
        "cut (v<=2, s<=2): 0 left-to-right vs 1 right-to-left",
    ]


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=500))
def test_arrow_update_is_local(n, seed):
    # Placing a request only disturbs arrows attached to vertices between the
    # affected span: outside it, the arrow multiset is unchanged.
    import random
    from collections import Counter

    rng = random.Random(seed)
    inst = random_two_regular(n, rng.randrange(2**31))
    state = PlacementState(n)
    for req in inst.requests:
        slot = rng.choice(free_slots(state))
        before = arrows(state)
        donors = [v for v, s in before if s == slot]
        after_state = apply(state, req, slot)
        after = arrows(after_state)
        lo = min([req.a] + donors)
        hi = max([req.b] + donors)
        outside_before = Counter((v, s) for v, s in before if v < lo or v > hi)
        outside_after = Counter((v, s) for v, s in after if v < lo or v > hi)
        assert outside_before == outside_after
        state = after_state


def test_double_cross_detects_constructed_violation():
    # (3,4) fulfilled in the middle while vertex 2's two arrows both point
    # past it: both arrows cross both edges of the fulfilled slot.
    state = PlacementState(4)
    state = apply(state, Request(3, 4), 1)
    state = apply(state, Request(1, 3), 2)
    state = apply(state, Request(1, 4), 3)
    assert arrows(state) == ((2, 4), (2, 4))
    findings = audit_no_double_cross(state)
    assert len(findings) == 1
    assert "slot 1" in findings[0]


def test_double_cross_clean_on_empty_state():
    assert audit_no_double_cross(PlacementState(5)) == []


def test_greedy_double_cross_is_rare_with_known_exceptions():
    # The greedy algorithm avoids the double-cross configuration on almost
    # every small game, but not on all: an exact score tie (resolved
    # leftward) can leave it in that shape, and on some games every tie
    # resolution does (acceptance criterion 9). The exceptions on this
    # deterministic grid are frozen as regression data: a change in either
    # direction (new violations, or the known ones disappearing) means the
    # algorithm or audit changed.
    known_exceptions = {(6, 7), (9, 39), (10, 17), (10, 36)}
    violating = set()
    for n in range(2, 11):
        for seed in range(0, 60):
            trace = play(random_two_regular(n, seed), ALGORITHMS["greedy"])
            state = PlacementState(n)
            for step in trace.steps:
                state = apply(state, step.request, step.slot)
                if audit_no_double_cross(state):
                    violating.add((n, seed))
                    break
    assert violating == known_exceptions


def arrow_bounds(trace):
    """LB on the empty board and after each step of `trace`: the step's
    edge-edge total plus the edge-arrow crossings counted from scratch
    (`oracles.edge_arrow_crossings`), not by the board."""
    state, bounds = PlacementState(trace.n), [0]
    for step in trace.steps:
        state = apply(state, step.request, step.slot)
        bounds.append(step.edge_edge_total + edge_arrow_crossings(state))
    return bounds


def test_arrow_bound_is_a_potential():
    # The `propagation` docstring's proof: LB never falls, never exceeds
    # the final crossings, and ends equal to them. Every source here is
    # 2-regular, so the arrows of every state are defined.
    makers = [
        functools.partial(random_two_regular, n, seed) for n in (6, 10, 20, 40) for seed in range(10)
    ]
    makers += [functools.partial(Thm2Adversary, rounds) for rounds in range(1, 9)]
    makers += [functools.partial(fig8_instance, n) for n in (4, 10, 40)]
    steps = 0
    for make, alg in product(makers, ALGORITHMS.values()):
        trace = play(make(), alg)
        bounds, final = arrow_bounds(trace), trace.steps[-1].edge_edge_total
        where = f"{alg.name} on {make.func.__name__}{make.args}"
        assert bounds == sorted(bounds), where
        assert max(bounds) <= final and bounds[-1] == final, where
        steps += len(trace.steps)
    assert steps == 3126


@pytest.mark.parametrize("n", [6, 10, 16])
def test_greedy_scores_are_steps_of_the_arrow_bound(n):
    # Greedy's score of each free slot is LB with the request placed there,
    # less LB at the leftmost free slot, both counted from scratch.
    checked = 0
    for seed in range(10):
        state, total = PlacementState(n), 0
        for step in play(random_two_regular(n, seed), GREEDY).steps:
            free, request = free_slots(state), step.request
            if len(free) > 1:
                bounds = [
                    total
                    + added_crossings(state, request, t)
                    + edge_arrow_crossings(apply(state, request, t))
                    for t in free
                ]
                expected = [lb - bounds[0] for lb in bounds]
                assert greedy_scores(ReplayBoard.of(state), request) == expected, (seed, step)
                checked += 1
            state, total = apply(state, request, step.slot), step.edge_edge_total
    assert checked == 10 * (n - 1)
