import re

import pytest
from hypothesis import given, strategies as st

from oscm.model import (
    Instance,
    PlacementState,
    RegularityClass,
    Request,
    SlotOccupiedError,
    SlotRangeError,
    apply,
    instance_from_dict,
    instance_to_dict,
    make_request,
    random_two_regular,
    validate_instance,
)
from oracles import free_slots, state_degrees


def test_request_canonical_order():
    assert make_request(4, 2) == Request(2, 4)
    with pytest.raises(ValueError):
        Request(3, 3)
    with pytest.raises(ValueError):
        Request(0, 2)


@pytest.mark.parametrize(
    "a, b, shown",
    [
        (1.0, 2.0, "(1.0, 2.0)"),
        (True, 2, "(True, 2)"),
        (1, "2", "(1, '2')"),
        (None, 1, "(None, 1)"),
    ],
)
def test_request_refuses_endpoints_that_are_not_ints(a, b, shown):
    with pytest.raises(ValueError) as excinfo:
        Request(a, b)
    assert str(excinfo.value) == f"request endpoints must be integers, got {shown}"
    # `make_request` refuses them with the same message, in either argument
    # order, showing the endpoints in the order given.
    for x, y in ((a, b), (b, a)):
        with pytest.raises(ValueError) as excinfo:
            make_request(x, y)
        assert str(excinfo.value) == f"request endpoints must be integers, got ({x!r}, {y!r})"


def test_validate_two_regular_ok():
    inst = Instance(
        n=4,
        requests=(Request(1, 2), Request(3, 4), Request(1, 2), Request(3, 4)),
        regularity_class=RegularityClass.TWO_REGULAR,
    )
    assert validate_instance(inst) == []


def test_validate_degree_violation():
    inst = Instance(
        n=4,
        requests=(Request(1, 2), Request(3, 4), Request(1, 3), Request(1, 4)),
        regularity_class=RegularityClass.TWO_REGULAR,
    )
    assert any("vertex 1 appears 3" in v for v in validate_instance(inst))


def test_validate_general_skips_degree_bound():
    # A path plus a duplicated end pair: vertices hit degree 1..3.
    reqs = tuple(Request(i, i + 1) for i in range(1, 9)) + (Request(8, 9),)
    inst = Instance(n=9, requests=reqs, regularity_class=RegularityClass.GENERAL)
    assert validate_instance(inst) == []


def test_apply_basics():
    state = PlacementState(3)
    state = apply(state, Request(1, 2), 2)
    assert state.placed == {2: Request(1, 2)}
    assert state_degrees(state) == [0, 1, 1, 0]
    with pytest.raises(SlotOccupiedError):
        apply(state, Request(2, 3), 2)
    with pytest.raises(SlotRangeError):
        apply(state, Request(2, 3), 4)


def test_apply_refuses_a_vertex_above_n():
    state = PlacementState(3)
    with pytest.raises(ValueError, match=r"^request \(1,5\) has a vertex above n=3$"):
        apply(state, Request(1, 5), 1)
    # The slot is checked first, as `ReplayBoard.place` checks it.
    with pytest.raises(SlotRangeError, match="^slot 4 out of range 1..3$"):
        apply(state, Request(1, 5), 4)
    assert state.placed == {}


def test_apply_is_persistent():
    before = PlacementState(3)
    after = apply(before, Request(1, 2), 1)
    assert before.placed == {}
    assert after.placed != before.placed


def test_free_slots():
    state = PlacementState(5)
    state = apply(state, Request(1, 3), 2)
    state = apply(state, Request(3, 5), 5)
    assert free_slots(state) == [1, 3, 4]
    assert free_slots(PlacementState(3)) == [1, 2, 3]
    full = PlacementState(2)
    full = apply(full, Request(1, 2), 1)
    full = apply(full, Request(1, 2), 2)
    assert free_slots(full) == []


def test_random_two_regular_n2_forced():
    inst = random_two_regular(2, seed=99)
    assert inst.requests == (Request(1, 2), Request(1, 2))


def test_random_two_regular_rejects_n1():
    with pytest.raises(ValueError):
        random_two_regular(1, seed=0)


@pytest.mark.parametrize("n", [3.5, 4.0, True, "4"])
def test_random_two_regular_refuses_a_non_integer_size(n):
    with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(n))}$"):
        random_two_regular(n, seed=0)


def test_random_two_regular_deterministic():
    assert random_two_regular(8, seed=7) == random_two_regular(8, seed=7)


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=999))
def test_random_two_regular_always_valid(n, seed):
    inst = random_two_regular(n, seed)
    assert inst.regularity_class is RegularityClass.TWO_REGULAR
    assert validate_instance(inst) == []


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=500))
def test_degree_sum_matches_placed_count(n, seed):
    inst = random_two_regular(n, seed)
    state = PlacementState(n)
    for slot, req in enumerate(inst.requests, start=1):
        state = apply(state, req, slot)
        assert sum(state_degrees(state)) == 2 * len(state.placed)


def test_instance_dict_round_trip():
    inst = random_two_regular(6, seed=42)
    data = instance_to_dict(inst)
    assert data["k"] == 2 and data["regularity"] == "two_regular"
    assert instance_from_dict(data) == inst
    general = Instance(n=4, requests=(Request(1, 3), Request(1, 3), Request(1, 4)))
    assert instance_from_dict(instance_to_dict(general)) == general


def test_instance_from_dict_rejects_invalid():
    with pytest.raises(ValueError):
        instance_from_dict({"n": 2, "regularity": "two_regular", "requests": [[1, 2]]})
    with pytest.raises(ValueError, match="vertex 1 appears 3 times, expected 2"):
        instance_from_dict({"n": 3, "requests": [[1, 2], [1, 2], [1, 3]], "regularity": "two_regular"})


@pytest.mark.parametrize(
    "data, message",
    [
        ({"n": 3.7, "requests": []}, "n must be an integer, got 3.7"),
        ({"n": True, "requests": []}, "n must be an integer, got True"),
        ({"n": "3", "requests": []}, "n must be an integer, got '3'"),
        ({"n": 3, "requests": [[1, 2.9]]}, "request 1 endpoint must be an integer, got 2.9"),
        ({"n": 3, "requests": [[1, 2], [False, 2]]}, "request 2 endpoint must be an integer, got False"),
        ({"n": 3, "requests": ["12"]}, "request 1 must be a pair of vertices, got '12'"),
        ({"n": 3, "requests": [[1, 2, 3]]}, r"request 1 must be a pair of vertices, got \[1, 2, 3\]"),
        ({"n": 3, "requests": "12"}, "requests must be a list of pairs, got '12'"),
        ([3, [[1, 2]]], "an instance must be a JSON object, got list"),
        ({"n": 2, "k": 3, "requests": [[1, 2], [1, 2]]}, "k must be 2, as requests are pairs, got 3"),
        ({"n": 2, "k": "two", "requests": [[1, 2], [1, 2]]}, "k must be an integer, got 'two'"),
        (
            {"n": 3, "requests": [[1, 2], [1, 2], [1, 3]], "regularty": "two_regular"},
            "instance has unknown key 'regularty'",
        ),
        ({"n": 3, "requests": [], "K": 2, "seed": 1}, "instance has unknown key 'K' and 'seed'"),
        (
            {"n": 2, "requests": [[1, 2], [1, 2]], "regularity": "2reg"},
            "regularity must be 'general' or 'two_regular', got '2reg'",
        ),
        (
            {"n": 2, "requests": [[1, 2], [1, 2]], "regularity": [1]},
            r"regularity must be 'general' or 'two_regular', got \[1\]",
        ),
        (
            {"n": 2, "requests": [[1, 2], [1, 2]], "regularity": None},
            "regularity must be 'general' or 'two_regular', got None",
        ),
    ],
)
def test_instance_from_dict_rejects_coercible_values(data, message):
    # Each of these used to load silently as something else: 3.7 and True
    # as 3 and 1, [1, 2.9] as (1, 2), the string "12" as request (1, 2),
    # a "k" other than 2 was ignored, and so was an unknown key, so that a
    # misspelt "regularity" loaded a general instance without the 2-regular
    # check (spelt right, the first document is refused: vertex 1 appears
    # 3 times), and a "regularity" outside the two classes was refused in
    # Enum's words, naming neither the key nor the accepted values.
    with pytest.raises(ValueError, match=f"^{message}$"):
        instance_from_dict(data)


@pytest.mark.parametrize(
    "data, message",
    [
        ({"n": 3}, "instance is missing 'requests'"),
        ({"requests": [[1, 2]]}, "instance is missing 'n'"),
        ({"k": 2}, "instance is missing 'n' and 'requests'"),
    ],
)
def test_instance_from_dict_names_a_missing_key(data, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        instance_from_dict(data)


def test_instance_from_dict_keeps_plain_integers():
    inst = instance_from_dict({"n": 3, "requests": [[2, 1], (3, 1)]})
    assert inst.requests == (Request(1, 2), Request(1, 3))
