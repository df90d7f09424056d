import pytest
from hypothesis import given, strategies as st

from oscm.algorithms import ALGORITHMS, play
from oscm.model import (
    PlacementState,
    Request,
    SlotRangeError,
    apply,
    empty_state,
    random_two_regular,
)
from oscm.propagation import (
    DegreeOverflowError,
    arrows,
    audit_equator,
    audit_no_double_cross,
    cut_flows,
)
from oracles import free_slots, scratch_arrows, unfulfilled_slots, unfulfilled_vertices


def fig4_state():
    state = empty_state(5)
    state = apply(state, Request(1, 3), 2)
    return apply(state, Request(3, 5), 5)


def test_unfulfilled_vertices():
    assert unfulfilled_vertices(empty_state(3)) == [1, 1, 2, 2, 3, 3]
    assert unfulfilled_vertices(fig4_state()) == [1, 2, 2, 4, 4, 5]


def test_unfulfilled_vertices_overflow():
    state = empty_state(3)
    for slot in (1, 2, 3):
        state = apply(state, Request(1, 2), slot)
    for build in (unfulfilled_vertices, arrows):
        with pytest.raises(DegreeOverflowError, match="^vertex 1 has degree 3 > 2$"):
            build(state)


def test_unfulfilled_slots():
    assert unfulfilled_slots(fig4_state()) == [1, 1, 3, 3, 4, 4]
    assert unfulfilled_slots(empty_state(2)) == [1, 1, 2, 2]


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
    assert arrows(empty_state(2)) == ((1, 1), (1, 1), (2, 2), (2, 2))
    full = empty_state(2)
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
    state = empty_state(n)
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
def sized_segments(draw):
    # Arbitrary, usually unbalanced, segment lists; coordinates may fall
    # outside 1..n, where a segment crosses only the cuts inside it.
    n = draw(st.integers(min_value=0, max_value=9))
    coord = st.integers(min_value=0, max_value=n + 2)
    return n, draw(st.lists(st.tuples(coord, coord), max_size=20))


@given(sized_segments())
def test_cut_flows_match_per_cut_count(data):
    n, segments = data
    expected = [
        (
            sum(1 for v, s in segments if v <= i and s > i),
            sum(1 for v, s in segments if v > i and s <= i),
        )
        for i in range(1, n + 1)
    ]
    assert cut_flows(n, segments) == expected


def test_cut_flows_hand_values():
    assert cut_flows(3, [(1, 3), (3, 1), (2, 2)]) == [(1, 1), (1, 1), (0, 0)]
    assert cut_flows(2, [(1, 2)]) == [(1, 0), (0, 0)]


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=500))
def test_arrow_update_is_local(n, seed):
    # Placing a request only disturbs arrows attached to vertices between the
    # affected span: outside it, the arrow multiset is unchanged.
    import random
    from collections import Counter

    rng = random.Random(seed)
    inst = random_two_regular(n, rng.randrange(2**31))
    state = empty_state(n)
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
    state = empty_state(4)
    state = apply(state, Request(3, 4), 1)
    state = apply(state, Request(1, 3), 2)
    state = apply(state, Request(1, 4), 3)
    assert arrows(state) == ((2, 4), (2, 4))
    findings = audit_no_double_cross(state)
    assert len(findings) == 1
    assert "slot 1" in findings[0]


def test_double_cross_clean_on_empty_state():
    assert audit_no_double_cross(empty_state(5)) == []


def test_greedy_double_cross_is_rare_with_known_exceptions():
    # The greedy algorithm avoids the double-cross configuration on almost
    # every game, but exact score ties (resolved leftward) can leave it in
    # that shape. The exceptions on this deterministic grid are frozen as
    # regression data: a change in either direction (new violations, or the
    # known ones disappearing) means the algorithm or audit changed.
    known_exceptions = {(6, 7), (9, 39), (10, 17), (10, 36)}
    violating = set()
    for n in range(2, 11):
        for seed in range(0, 60):
            trace = play(random_two_regular(n, seed), ALGORITHMS["greedy"])
            state = empty_state(n)
            for step in trace.steps:
                state = apply(state, step.request, step.slot)
                if audit_no_double_cross(state):
                    violating.add((n, seed))
                    break
    assert violating == known_exceptions
