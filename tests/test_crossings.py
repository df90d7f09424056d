from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from oscm.crossings import (
    PairKind,
    added_crossings,
    classify_pair,
    edges_cross,
    pair_crossings,
    total_crossings,
)
from oscm.model import Request, random_two_regular


def test_edges_cross_rule():
    assert edges_cross((1, 2), (2, 1))
    assert not edges_cross((1, 1), (2, 2))
    assert not edges_cross((1, 1), (1, 2))  # shared vertex
    assert not edges_cross((1, 1), (2, 1))  # shared slot


def test_pair_crossings_hand_values():
    # Duplicate request: exactly one inversion either way.
    assert pair_crossings(Request(1, 2), 1, Request(1, 2), 2) == 1
    assert pair_crossings(Request(1, 2), 2, Request(1, 2), 1) == 1
    # Shared-middle configuration: 3 one way, 0 the other.
    assert pair_crossings(Request(1, 2), 2, Request(2, 3), 1) == 3
    assert pair_crossings(Request(1, 2), 1, Request(2, 3), 2) == 0
    # Contained pair: 2 both ways.
    assert pair_crossings(Request(1, 4), 2, Request(2, 3), 1) == 2
    assert pair_crossings(Request(1, 4), 1, Request(2, 3), 2) == 2


def test_pair_crossings_same_slot_rejected():
    with pytest.raises(ValueError):
        pair_crossings(Request(1, 2), 3, Request(3, 4), 3)


def test_classify_pair_all_six_kinds():
    cases = [
        (Request(1, 2), 1, Request(1, 2), 2, PairKind.ONE_ONE, {1}),
        (Request(1, 2), 1, Request(1, 3), 2, PairKind.TWO_ONE, {1, 2}),
        (Request(1, 2), 2, Request(2, 3), 1, PairKind.THREE_ZERO, {3, 0}),
        (Request(1, 3), 1, Request(2, 4), 2, PairKind.THREE_ONE, {1, 3}),
        (Request(1, 2), 2, Request(3, 4), 1, PairKind.FOUR_ZERO, {4, 0}),
        (Request(1, 4), 2, Request(2, 3), 1, PairKind.TWO_TWO, {2}),
    ]
    for r1, s1, r2, s2, kind, counts in cases:
        result = classify_pair(r1, s1, r2, s2)
        assert result.kind is kind
        assert {result.placed_count, result.swapped_count} == counts


def test_classification_exhaustive_small():
    # Every pair of requests over 6 vertices, every distinct slot pair,
    # classifies into one of the six kinds without error.
    requests = [Request(a, b) for a, b in combinations(range(1, 7), 2)]
    seen = set()
    for r1 in requests:
        for r2 in requests:
            result = classify_pair(r1, 1, r2, 2)
            seen.add(result.kind)
            assert result.unavoidable == min(result.placed_count, result.swapped_count)
            assert result.avoidable == abs(result.placed_count - result.swapped_count)
    assert seen == set(PairKind)


def test_total_crossings_single_request():
    assert total_crossings([(3, Request(1, 2))]) == 0


@st.composite
def placed_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    r1 = sorted(draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)))
    r2 = sorted(draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True)))
    s1, s2 = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
    return n, Request(*r1), s1, Request(*r2), s2


@given(placed_pairs())
def test_pair_crossings_symmetry(data):
    _, r1, s1, r2, s2 = data
    assert pair_crossings(r1, s1, r2, s2) == pair_crossings(r2, s2, r1, s1)


@given(placed_pairs())
def test_mirror_symmetry(data):
    n, r1, s1, r2, s2 = data
    mirror = lambda r: Request(n + 1 - r.b, n + 1 - r.a)
    direct = pair_crossings(r1, s1, r2, s2)
    mirrored = pair_crossings(mirror(r1), n + 1 - s1, mirror(r2), n + 1 - s2)
    assert direct == mirrored


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=10_000), st.randoms(use_true_random=False))
def test_uninverting_comparable_pair_never_hurts(n, seed, rng):
    # Two requests with endpoints comparable coordinate-wise but slots in the
    # opposite order: swapping their slots never increases the total count.
    inst = random_two_regular(n, seed)
    slots = list(range(1, n + 1))
    rng.shuffle(slots)
    items = list(zip(slots, inst.requests))
    for i in range(len(items)):
        for j in range(len(items)):
            (sx, rx), (sy, ry) = items[i], items[j]
            if i == j or not (rx.a <= ry.a and rx.b <= ry.b and sx > sy):
                continue
            swapped = list(items)
            swapped[i] = (sy, rx)
            swapped[j] = (sx, ry)
            assert total_crossings(swapped) <= total_crossings(items)


@given(
    st.integers(min_value=2, max_value=9),
    st.integers(min_value=0, max_value=10_000),
    st.randoms(use_true_random=False),
)
def test_added_crossings_is_the_total_increment(n, seed, rng):
    inst = random_two_regular(n, seed)
    slots = list(range(1, n + 1))
    rng.shuffle(slots)
    items = list(zip(slots, inst.requests))
    for i, (slot, req) in enumerate(items):
        before = items[:i]
        assert added_crossings(before, req, slot) == (
            total_crossings(items[: i + 1]) - total_crossings(before)
        )


def test_added_crossings_rejects_shared_slot():
    with pytest.raises(ValueError, match="share slot 3"):
        added_crossings([(3, Request(1, 2))], Request(3, 4), 3)
