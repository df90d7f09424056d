from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from oscm.algorithms import FIRST_FIT, play
from oscm.crossings import total_crossings
from oscm.model import Instance, Request, random_two_regular
from oscm.offline import (
    MAX_N,
    OracleSizeError,
    brute_force_opt,
    sorted_order_opt,
    sorted_order_value,
)
from oracles import unavoidable_lower_bound


def assignment_crossings(inst, assignment):
    """Re-score a witness against its instance."""
    return total_crossings(zip(assignment.slot_of, inst.requests))


def plain_enumeration(inst):
    """Independent oracle: score every injective slot vector directly."""
    best = None
    best_perm = None
    m = len(inst.requests)
    for perm in permutations(range(1, inst.n + 1), m):
        c = total_crossings(list(zip(perm, inst.requests)))
        if best is None or c < best or (c == best and perm < best_perm):
            best, best_perm = c, perm
    return best, best_perm


def test_duplicate_pair_opt():
    inst = Instance(n=2, requests=(Request(1, 2), Request(1, 2)))
    result = brute_force_opt(inst)
    assert result.opt_crossings == 1
    assert result.witness.slot_of == (1, 2)


def test_path_with_duplicated_end_pair_opt_is_one():
    # A path on 9 vertices plus the duplicated rightmost pair admits a layout
    # with a single crossing and no better.
    reqs = tuple(Request(i, i + 1) for i in range(1, 9)) + (Request(8, 9),)
    inst = Instance(n=9, requests=reqs)
    assert brute_force_opt(inst).opt_crossings == 1


def test_size_bound_enforced_and_overridable():
    inst = random_two_regular(10, seed=0)
    assert MAX_N == 9
    with pytest.raises(OracleSizeError, match="^n=10 exceeds the exhaustive-search bound 9$"):
        brute_force_opt(inst)
    assert brute_force_opt(inst, max_n=10).opt_crossings >= 0


@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=200))
@settings(max_examples=60, deadline=None)
def test_matches_plain_enumeration(n, seed):
    inst = random_two_regular(n, seed)
    result = brute_force_opt(inst)
    value, witness = plain_enumeration(inst)
    assert result.opt_crossings == value
    assert result.witness.slot_of == witness


def test_matches_plain_enumeration_incomplete():
    inst = Instance(
        n=5,
        requests=(Request(3, 4), Request(1, 2), Request(2, 4), Request(1, 3)),
    )
    result = brute_force_opt(inst)
    value, witness = plain_enumeration(inst)
    assert (result.opt_crossings, result.witness.slot_of) == (value, witness)
    assert value == 3


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=500))
@settings(max_examples=60, deadline=None)
def test_witness_rescoring_and_permutation_invariance(n, seed):
    import random

    inst = random_two_regular(n, seed)
    result = brute_force_opt(inst)
    assert assignment_crossings(inst, result.witness) == result.opt_crossings
    order = list(range(n))
    random.Random(seed).shuffle(order)
    shuffled = Instance(n=n, requests=tuple(inst.requests[i] for i in order))
    assert brute_force_opt(shuffled).opt_crossings == result.opt_crossings


def test_sorted_order_duplicate_pair():
    inst = Instance(n=2, requests=(Request(1, 2), Request(1, 2)))
    assert sorted_order_value(inst) == 1


def test_sorted_order_scores_incomplete_instances():
    # The m requests fill slots 1..m in sorted order; only their order counts.
    assert sorted_order_value(Instance(n=3, requests=())) == 0
    assert sorted_order_value(Instance(n=3, requests=(Request(1, 2),))) == 0
    inst = Instance(n=5, requests=(Request(3, 4), Request(1, 2), Request(2, 4), Request(1, 3)))
    assert sorted_order_value(inst) == brute_force_opt(inst).opt_crossings == 3


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=500))
@settings(max_examples=60, deadline=None)
def test_sorted_order_upper_bounds_opt(n, seed):
    inst = random_two_regular(n, seed)
    assert sorted_order_value(inst) >= brute_force_opt(inst).opt_crossings


@given(st.integers(min_value=2, max_value=8), st.integers(min_value=0, max_value=500))
@settings(max_examples=40, deadline=None)
def test_sorted_order_optimal_when_fully_comparable(n, seed):
    # When the requests are pairwise comparable coordinate-wise, sorting them
    # is exactly optimal; this guards both the counter and the oracle.
    inst = random_two_regular(n, seed)
    reqs = sorted(inst.requests)
    comparable = all(
        x.a <= y.a and x.b <= y.b for x, y in zip(reqs, reqs[1:])
    )
    if comparable:
        assert sorted_order_value(inst) == brute_force_opt(inst).opt_crossings


@st.composite
def request_sequences(draw):
    """An instance on n = 2..9 slots: a random 2-regular one, or up to n
    requests drawn freely, with repeated requests, shared endpoints,
    degrees above two, incomplete sequences and m = 0 or 1 among them."""
    n = draw(st.integers(min_value=2, max_value=9))
    if draw(st.booleans()):
        return random_two_regular(n, draw(st.integers(min_value=0, max_value=500)))
    pair = st.lists(st.integers(min_value=1, max_value=n), min_size=2, max_size=2, unique=True)
    pairs = draw(st.lists(pair, max_size=n))
    return Instance(n=n, requests=tuple(Request(min(p), max(p)) for p in pairs))


def assert_sorted_order_is_optimal(inst, max_n=MAX_N):
    """The closed form, the exponential oracle and the sum of per-pair
    minima agree, and the sorted-order witness attains the value."""
    result = sorted_order_opt(inst)
    lower = unavoidable_lower_bound(play(inst, FIRST_FIT))
    assert result.opt_crossings == sorted_order_value(inst)
    assert result.opt_crossings == brute_force_opt(inst, max_n=max_n).opt_crossings == lower
    assert assignment_crossings(inst, result.witness) == result.opt_crossings


@given(request_sequences())
@settings(max_examples=80, deadline=None)
def test_sorted_order_is_the_optimum(inst):
    assert_sorted_order_is_optimal(inst)


@pytest.mark.parametrize(
    "inst",
    [random_two_regular(10, seed) for seed in range(3)]
    + [Instance(n=10, requests=tuple(Request(1 + i % 4, 5 + i % 6) for i in range(10)))],
    ids=[f"two_regular_10_seed{seed}" for seed in range(3)] + ["general_10"],
)
def test_sorted_order_is_the_optimum_at_n_10(inst):
    assert_sorted_order_is_optimal(inst, max_n=10)


def test_sorted_order_witness_fills_slots_in_a_b_index_order():
    inst = Instance(n=6, requests=(Request(2, 5), Request(1, 3), Request(2, 5), Request(1, 2)))
    result = sorted_order_opt(inst)
    assert result.witness.slot_of == (3, 2, 4, 1)
    assert sorted_order_opt(Instance(n=3, requests=())).witness.slot_of == ()
