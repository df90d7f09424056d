"""The per-pair scoring implementations, kept as test oracles.

Each oracle below is the straightforward version of a scoring function:
it simulates every placed pair, or tests every placed request against
every arrow. The library's fast versions must return exactly the same
values, findings in the same order, on every step of every game here.
"""

import random
from itertools import combinations

import pytest

import oscm.propagation
from oscm.adversaries import fig8_instance, thm1_adversary, thm2_adversary
from oscm.algorithms import ALGORITHMS, OnlineAlgorithm, play
from oscm.crossings import (
    PairCrossKind,
    PairKind,
    UnclassifiablePairError,
    classify_pair,
    edges_cross,
    order_counts,
    pair_crossings,
    total_crossings,
)
from oscm.harness import (
    ReplayMismatchError,
    _gap_findings,
    audit_trace,
    pair_type_histogram,
    unavoidable_lower_bound,
)
from oscm.model import (
    Instance,
    PlacementState,
    Request,
    apply,
    empty_state,
    free_slots,
    random_two_regular,
)
from oscm.propagation import (
    ArrowMismatchError,
    DegreeOverflowError,
    PropagationArrowSet,
    arrows,
    audit_equator,
    audit_no_double_cross,
    cut_flows,
)

ARROW_ERRORS = (ArrowMismatchError, DegreeOverflowError)


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


def oracle_double_cross(state):
    arr = arrows(state).arrows
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


def oracle_equator(state, arrow_set=None):
    if arrow_set is None:
        arrow_set = arrows(state)
    segments = state.edges() + list(arrow_set)
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
        except ARROW_ERRORS:
            pass
    return findings


# ----------------------------------------------------------------- helpers


def outcome(fn, *args):
    """A call's value, or the type and text of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


def assert_state_matches(state):
    assert total_crossings(state) == oracle_total(state)
    assert outcome(audit_no_double_cross, state) == outcome(oracle_double_cross, state)
    assert outcome(audit_equator, state) == outcome(oracle_equator, state)


def assert_trace_matches(trace):
    """Every state of the trace, every step's gap audit, the final pair
    kinds and the whole audit output agree with the oracles."""
    state = empty_state(trace.n)
    for step in trace.steps:
        assert _gap_findings(state, step.request, step.slot) == oracle_gap(
            state, step.request, step.slot
        )
        state = apply(state, step.request, step.slot)
        assert_state_matches(state)
    assert pair_type_histogram(trace) == oracle_histogram(trace.final_state)
    assert unavoidable_lower_bound(trace) == oracle_unavoidable(trace.final_state)
    assert audit_trace(trace) == oracle_audit_trace(trace)


def random_slot_algorithm(seed):
    rng = random.Random(seed)
    return OnlineAlgorithm(name="random", choose=lambda s, r: rng.choice(free_slots(s)))


ALL_ALGORITHMS = [ALGORITHMS[name] for name in sorted(ALGORITHMS)]


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
    # Every size up to 24, then every fourth up to 40: the cubic oracles
    # make the largest games the slowest.
    for n in [*range(2, 25), 28, 32, 36, 40]:
        for seed in range(3) if n <= 12 else (n,):
            assert_trace_matches(play(random_two_regular(n, seed), alg))


@pytest.mark.parametrize("alg", ALL_ALGORITHMS, ids=lambda a: a.name)
def test_scoring_matches_oracles_on_adversaries(alg):
    sources = [thm1_adversary(n) for n in (4, 7, 12)]
    sources += [thm2_adversary(rounds) for rounds in (1, 2)]
    sources += [fig8_instance(n) for n in (4, 8, 14)]
    for source in sources:
        assert_trace_matches(play(source, alg))


def test_scoring_matches_oracles_on_random_slot_games():
    # Random slot choices reach far more double-cross and gap findings than
    # any of the three algorithms.
    for n in range(2, 21):
        for seed in range(4):
            trace = play(random_two_regular(n, seed), random_slot_algorithm(seed))
            assert_trace_matches(trace)


def test_scoring_matches_oracles_on_general_instances():
    # Requests drawn with replacement: vertices may exceed degree two, so
    # arrows are undefined on some states and both sides skip the same ones.
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(2, 14)
        count = rng.randint(0, n)
        requests = tuple(Request(*sorted(rng.sample(range(1, n + 1), 2))) for _ in range(count))
        assert_trace_matches(play(Instance(n=n, requests=requests), random_slot_algorithm(n)))


def test_scoring_matches_oracles_on_partial_and_hand_built_states():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 12)
        placed = {}
        for slot in rng.sample(range(0, n + 3), rng.randint(0, n)):
            a = rng.randint(1, n + 1)
            placed[slot] = Request(a, a + rng.randint(1, 3))
        state = PlacementState(n=n, placed=placed)
        # Vertices above n have no degree entry; both sides raise alike.
        try:
            arrows(state)
        except IndexError:
            assert outcome(oracle_total, state) == outcome(total_crossings, state)
            continue
        except ARROW_ERRORS:
            pass
        assert_state_matches(state)


def test_total_crossings_matches_oracle_on_arbitrary_items():
    rng = random.Random(3)
    for _ in range(300):
        items = [
            (rng.randint(0, 6), Request(*sorted(rng.sample(range(1, 8), 2))))
            for _ in range(rng.randint(0, 7))
        ]
        assert outcome(total_crossings, items) == outcome(oracle_total, items)
        assert outcome(total_crossings, iter(items)) == outcome(oracle_total, items)


def test_total_crossings_names_the_first_shared_slot():
    items = [(4, Request(1, 2)), (2, Request(1, 3)), (4, Request(2, 3)), (2, Request(3, 4))]
    with pytest.raises(ValueError, match="^requests share slot 4$"):
        total_crossings(items)
    with pytest.raises(ValueError, match="^requests share slot 4$"):
        oracle_total(items)


def test_audit_equator_words_an_unbalanced_arrow_set(monkeypatch):
    state = apply(empty_state(4), Request(1, 2), 2)
    balanced = arrows(state)
    assert audit_equator(state) == []
    # Shift one arrow's vertex from 3 to 1: the cuts between move one
    # segment across in the left-to-right direction.
    moved = list(balanced)
    index = moved.index((3, 3))
    moved[index] = (1, 3)
    unbalanced = PropagationArrowSet(arrows=tuple(moved))
    monkeypatch.setattr(oscm.propagation, "arrows", lambda s: unbalanced)
    findings = audit_equator(state)
    assert findings == oracle_equator(state, unbalanced)
    assert findings == [
        "cut (v<=1, s<=1): 2 left-to-right vs 1 right-to-left",
        "cut (v<=2, s<=2): 1 left-to-right vs 0 right-to-left",
    ]
    assert audit_equator(state, unbalanced) == findings


def test_audit_trace_builds_one_arrow_set_per_step_for_both_audits(monkeypatch):
    import oscm.harness

    trace = play(Instance(n=4, requests=(Request(1, 2), Request(3, 4))), ALGORITHMS["first_fit"])
    built = []

    def unbalanced_arrows(state):
        # Every arrow moved to vertex 1, so the cuts no longer balance.
        arrow_set = PropagationArrowSet(arrows=tuple((1, t) for _, t in arrows(state)))
        built.append(arrow_set)
        return arrow_set

    monkeypatch.setattr(oscm.harness, "arrows", unbalanced_arrows)
    findings = audit_trace(trace, audits=frozenset({"double_cross", "equator"}))
    assert len(built) == len(trace.steps)
    state = empty_state(trace.n)
    expected = []
    for idx, (step, arrow_set) in enumerate(zip(trace.steps, built), start=1):
        state = apply(state, step.request, step.slot)
        expected += [f"step {idx}: {f}" for f in audit_no_double_cross(state, arrow_set)]
        expected += [f"step {idx}: {f}" for f in oracle_equator(state, arrow_set)]
    assert findings == expected
    assert any("left-to-right" in f for f in findings)
