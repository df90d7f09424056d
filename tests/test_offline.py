from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from oscm.crossings import total_crossings
from oscm.model import Instance, Request, random_two_regular
from oscm.offline import (
    MAX_N,
    OracleSizeError,
    brute_force_opt,
    sorted_order_value,
)


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
