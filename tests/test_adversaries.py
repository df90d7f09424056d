from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from oscm.adversaries import (
    CASE1_OFFSETS,
    CASE2_OFFSETS,
    PROBE_OFFSET,
    InfeasibleFillError,
    ProtocolError,
    endgame_fill,
    fig8_instance,
    thm1_adversary,
    thm2_adversary,
    thm2_board_size,
)
from oscm.algorithms import ALGORITHMS, FIRST_FIT, GREEDY, OnlineAlgorithm, play
from oscm.crossings import total_crossings
from oscm.model import (
    Request,
    RegularityClass,
    validate_instance,
)
from oscm.offline import brute_force_opt
from oscm.propagation import ReplayBoard
from oracles import free_slots, realized_instance


def leave_slot_algorithm(hole: int) -> OnlineAlgorithm:
    """Fill ascending while keeping one slot free as long as possible."""

    def choose(board, request):
        candidates = [s for s in board.free if s != hole]
        return candidates[0] if candidates else hole

    return OnlineAlgorithm(name=f"leave_slot_{hole}", choose=choose)


def test_endgame_fill_two_slots():
    assert endgame_fill({3: 2, 7: 2}) == [Request(3, 7), Request(3, 7)]


def test_endgame_fill_three_slots():
    reqs = endgame_fill({1: 2, 2: 2, 3: 2})
    assert sorted(reqs) == [Request(1, 2), Request(1, 3), Request(2, 3)]
    counts = Counter(v for r in reqs for v in r.vertices)
    assert counts == {1: 2, 2: 2, 3: 2}


def test_endgame_fill_empty_and_infeasible():
    assert endgame_fill({}) == []
    with pytest.raises(InfeasibleFillError):
        endgame_fill({4: 2})
    with pytest.raises(InfeasibleFillError, match=r"^deficit above two in \{1: 3\}$"):
        endgame_fill({1: 3})


@given(st.dictionaries(st.integers(1, 20), st.integers(1, 2), min_size=2, max_size=8))
def test_endgame_fill_meets_every_deficit(deficits):
    total = sum(deficits.values())
    if total % 2 == 1 or max(deficits.values()) > total - max(deficits.values()):
        return
    reqs = endgame_fill(deficits)
    counts = Counter(v for r in reqs for v in r.vertices)
    assert counts == Counter(deficits)


def test_thm1_requires_n4():
    with pytest.raises(ValueError):
        thm1_adversary(3)


@pytest.mark.parametrize("hole", range(1, 11))
def test_thm1_targets_far_side_of_any_hole(hole):
    n = 10
    trace = play(thm1_adversary(n), leave_slot_algorithm(hole))
    assert len(trace.steps) == n
    final = trace.steps[-1].request
    assert final == (Request(9, 10) if hole <= 5 else Request(1, 2))
    inst = realized_instance(trace)
    assert inst.regularity_class is RegularityClass.GENERAL
    assert validate_instance(inst) == []
    # The lower-bound count: the forced duplicate crosses both edges of
    # every fulfilled slot between the hole and the far end.
    assert total_crossings(trace.final_state) >= 2 * 2 * (n // 2 - 1)


def test_thm1_instance_opt_is_one():
    trace = play(thm1_adversary(10), leave_slot_algorithm(5))
    assert brute_force_opt(realized_instance(trace), max_n=10).opt_crossings == 1


def test_thm1_refuses_more_than_one_free_slot_before_the_duplicate():
    # Asked four times with nothing placed, the path's three requests
    # leave all four slots free when the duplicate is due.
    adversary = thm1_adversary(4)
    board = ReplayBoard(4)
    for _ in range(3):
        adversary.next_request(board)
    with pytest.raises(ProtocolError, match=r"^expected one free slot, found \[1, 2, 3, 4\]$"):
        adversary.next_request(board)


@pytest.mark.parametrize(
    "placed, message",
    [
        # Seven free slots call for a probe, but only 9..11 are edge-free.
        ([(1, 2), (3, 4), (5, 6), (7, 8)], "fewer than five edge-free vertices mid-game"),
        # Six free slots start the endgame, but vertex 1's surplus leaves
        # deficits that need seven requests.
        ([(1, 2), (1, 3), (1, 4), (1, 5), (6, 7)], "endgame produced 7 requests for 6 slots"),
    ],
)
def test_thm2_refuses_a_board_it_cannot_finish(placed, message):
    adversary = thm2_adversary(1)
    board = ReplayBoard(adversary.n)
    for slot, (a, b) in enumerate(placed, start=1):
        board.place(Request(a, b), slot)
    with pytest.raises(ProtocolError, match=f"^{message}$"):
        adversary.next_request(board)


def test_thm2_board_size():
    assert thm2_board_size(1) == 11
    assert thm2_board_size(20) == 106
    with pytest.raises(ValueError):
        thm2_adversary(0)


@given(
    st.sampled_from(sorted(ALGORITHMS)),
    st.integers(min_value=1, max_value=3),
)
@settings(max_examples=20, deadline=None)
def test_thm2_completes_to_two_regular(name, rounds):
    trace = play(thm2_adversary(rounds), ALGORITHMS[name])
    inst = realized_instance(trace)
    assert inst.n == thm2_board_size(rounds)
    assert len(inst.requests) == inst.n
    assert inst.regularity_class is RegularityClass.TWO_REGULAR
    assert validate_instance(inst) == []


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_every_adversary_realizes_a_complete_instance(name):
    # `oscm adversary` scores large games against the sorted-order value,
    # which needs n requests: no adversary leaves a slot unrequested.
    sources = [thm1_adversary(n) for n in range(4, 13)]
    sources += [thm2_adversary(rounds) for rounds in range(1, 5)]
    sources += [fig8_instance(n) for n in range(4, 13, 2)]
    for source in sources:
        inst = realized_instance(play(source, ALGORITHMS[name]))
        assert len(inst.requests) == inst.n


def test_thm2_round_block_bounds_exhaustive():
    # Play one full round on a 5-slot board against every legal behavior:
    # any probe placement, then any free slot for each follow-up request.
    # Every branch ends with at least 4 crossings among the block's
    # requests, while the block alone can be laid out with 3.
    from oscm.model import Instance, apply, empty_state, make_request

    probe = make_request(*PROBE_OFFSET)

    def block_requests(offsets):
        return [probe] + [make_request(i, j) for i, j in offsets]

    def explore(state, reqs, idx, results):
        if idx == len(reqs):
            results.append(total_crossings(state))
            return
        for slot in free_slots(state):
            explore(apply(state, reqs[idx], slot), reqs, idx + 1, results)

    for probe_slots, offsets in (([1, 2, 3], CASE1_OFFSETS), ([4, 5], CASE2_OFFSETS)):
        reqs = block_requests(offsets)
        results = []
        for p in probe_slots:
            explore(apply(empty_state(5), probe, p), reqs, 1, results)
        assert min(results) >= 4
        block_opt = brute_force_opt(Instance(n=5, requests=tuple(reqs))).opt_crossings
        assert block_opt == 3


def test_thm2_case_split_follows_probe_placement():
    # first_fit puts the probe at slot 1 (Case 1, 4 requests in the round);
    # an algorithm placing it right of the local third slot triggers Case 2.
    trace = play(thm2_adversary(1), FIRST_FIT)
    case1 = [Request(*PROBE_OFFSET)] + [Request(i, j) for i, j in CASE1_OFFSETS]
    assert trace.requests[: len(case1)] == case1

    rightmost = OnlineAlgorithm(name="rightmost", choose=lambda board, r: board.free[-1])
    trace2 = play(thm2_adversary(1), rightmost)
    case2 = [Request(*PROBE_OFFSET)] + [Request(i, j) for i, j in CASE2_OFFSETS]
    assert trace2.requests[: len(case2)] == case2


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_thm2_case_split_at_each_local_slot(k):
    # The probe goes to the k-th free slot in both rounds; every other
    # request skips the leftmost free slot, so round 2's local slots have
    # a gap. Case 1 follows exactly when k <= 3.
    offsets = CASE1_OFFSETS if k <= 3 else CASE2_OFFSETS
    adversary = thm2_adversary(2)
    n = adversary.n
    probe_steps = {0, 1 + len(offsets)}

    def choose(board, request):
        free = board.free
        if n - len(free) in probe_steps:
            return free[k - 1]
        return free[1] if len(free) > 1 else free[0]

    trace = play(adversary, OnlineAlgorithm(name=f"probe_at_{k}", choose=choose))
    expected = []
    for _ in range(2):
        used = {v for q in expected for v in q.vertices}
        verts = [v for v in range(1, n + 1) if v not in used][:5]
        expected += [Request(verts[i - 1], verts[j - 1]) for i, j in (PROBE_OFFSET,) + offsets]
    assert trace.requests[: len(expected)] == expected


def test_thm2_probe_must_be_placed_exactly_once():
    # Outside `play`, a source can be asked again before its probe is
    # placed, or after two placements; both break the game protocol.
    for extra in (0, 2):
        adversary = thm2_adversary(1)
        board = ReplayBoard(adversary.n)
        probe = adversary.next_request(board)
        for slot in range(1, extra + 1):
            board.place(probe, slot)
        with pytest.raises(ProtocolError, match=f"^expected one placement since the probe, saw {extra}$"):
            adversary.next_request(board)


def test_fig8_instances():
    assert fig8_instance(4).requests == (
        Request(3, 4),
        Request(3, 4),
        Request(1, 2),
        Request(1, 2),
    )
    with pytest.raises(ValueError):
        fig8_instance(5)
    for n in (4, 6, 8, 10):
        assert validate_instance(fig8_instance(n)) == []


def test_fig8_opt_is_half_n():
    for n in (4, 6, 8):
        assert brute_force_opt(fig8_instance(n)).opt_crossings == n // 2
