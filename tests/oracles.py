"""Reference implementations that the library no longer calls, kept for the
tests: they rebuild a new state and a new arrow set from scratch and count
crossings with full `segment_crossings` sweeps, where the library reads one
`ReplayBoard`, count a pair's crossings edge by edge, where the library
reads four endpoint comparisons, or count a placement's crossings against
every placed request, where the board bisects its sorted vertex ends, and
the flow-balance findings counted segment by segment at every cut. Also
the readings of a plain `PlacementState` record (its free slots, degrees,
edges and slot-ordered items) that the library takes off a board, the
instance a trace realized with its per-pair optimum, and the helpers that
compare outcomes.
"""

from bisect import bisect_left, bisect_right, insort

from oscm.harness import _histogram_opt, pair_type_histogram
from oscm.model import Instance, PlacementState, RegularityClass, apply, validate_instance
from oscm.propagation import DegreeOverflowError


def edges_cross(e1, e2) -> bool:
    """True iff the straight edges (vertex, slot) strictly cross.

    Edges sharing a vertex or a slot meet only at that endpoint and do not
    count as crossing.
    """
    (v1, s1), (v2, s2) = e1, e2
    return (v1 - v2) * (s1 - s2) < 0


def free_slots(state):
    """Slots of a `PlacementState` without a placed request, ascending."""
    return [s for s in range(1, state.n + 1) if s not in state.placed]


def state_is_free(state, slot) -> bool:
    return 1 <= slot <= state.n and slot not in state.placed


def state_items(state):
    """The (slot, request) pairs of a `PlacementState` in slot order."""
    return sorted(state.placed.items())


def state_edges(state):
    """All placed edges of a `PlacementState` as (vertex, slot) pairs."""
    return [(v, slot) for slot, req in state.placed.items() for v in req.vertices]


def state_degrees(state):
    """Per-vertex request count of a `PlacementState`, index 0 unused."""
    deg = [0] * (state.n + 1)
    for req in state.placed.values():
        deg[req.a] += 1
        deg[req.b] += 1
    return deg


def realized_instance(trace):
    """The instance a game actually played, classified 2-regular when it
    qualifies."""
    inst = Instance(trace.n, trace.requests, RegularityClass.TWO_REGULAR)
    if validate_instance(inst):
        inst = Instance(trace.n, trace.requests, RegularityClass.GENERAL)
    return inst


def unavoidable_lower_bound(trace) -> int:
    """Sum of per-pair unavoidable crossings over the trace's pair-kind
    histogram, read through the formula (`harness._histogram_opt`) that
    `run_experiment` takes its default optimum from, so the tests that
    compare it against an oracle, or a report's optimum against it, reach
    that formula."""
    return _histogram_opt(pair_type_histogram(trace))


def unfulfilled_vertices(state):
    """Ascending vertex list with each vertex repeated (2 - degree) times.
    A vertex above n raises IndexError, one above degree two
    DegreeOverflowError."""
    deg = state_degrees(state)
    for v, d in enumerate(deg):
        if d > 2:
            raise DegreeOverflowError(f"vertex {v} has degree {d} > 2")
    return [v for v in range(1, state.n + 1) for _ in range(2 - deg[v])]


def unfulfilled_slots(state):
    """Ascending slot list with each free slot repeated twice."""
    return [s for s in free_slots(state) for _ in range(2)]


def scratch_arrows(state):
    """The propagation arrows of a `PlacementState`, built from scratch: the
    unfulfilled vertices and slots paired position-wise. The two counts
    disagree only when a slot lies outside 1..n, which raises ValueError."""
    lv = unfulfilled_vertices(state)
    ls = unfulfilled_slots(state)
    if len(lv) != len(ls):
        raise ValueError(f"{len(lv)} missing edges vs {len(ls)} slot openings")
    return tuple(zip(lv, ls))


def oracle_equator(state, arr=None):
    """The flow-balance findings of `state` with the arrows `arr`: per cut
    i, the edges and arrows with their vertex at or left of i and their slot
    right of it, against those with their slot at or left of i and their
    vertex right of it."""
    if arr is None:
        arr = scratch_arrows(state)
    segments = state_edges(state) + list(arr)
    findings = []
    for i in range(1, state.n + 1):
        left_side = [(v <= i, s <= i) for v, s in segments]
        lr = left_side.count((True, False))
        rl = left_side.count((False, True))
        if lr != rl:
            findings.append(f"cut (v<={i}, s<={i}): {lr} left-to-right vs {rl} right-to-left")
    return findings


def edge_pair_crossings(r1, s1, r2, s2) -> int:
    """Crossings between two placed requests: their edge pairs that
    `edges_cross`."""
    if s1 == s2:
        raise ValueError(f"requests share slot {s1}")
    return sum(edges_cross((v1, s1), (v2, s2)) for v1 in r1.vertices for v2 in r2.vertices)


def added_crossings(placements, request, slot) -> int:
    """Crossings between `request` at `slot` and every placed request: the
    amount `total_crossings` grows by when the request is added, one placed
    request at a time. `ReplayBoard.place` counts the same from its sorted
    vertex ends.

    Accepts a PlacementState or any iterable of (slot, Request) pairs.
    """
    if isinstance(placements, PlacementState):
        placements = placements.placed.items()
    a, b = request.a, request.b
    total = 0
    for s, q in placements:
        if s < slot:
            # q's edges cross r's wherever q's vertex lies right of r's.
            total += (q.a > a) + (q.a > b) + (q.b > a) + (q.b > b)
        elif s > slot:
            total += (q.a < a) + (q.a < b) + (q.b < a) + (q.b < b)
        else:
            raise ValueError(f"requests share slot {slot}")
    return total


def segment_crossings(edges, segments) -> list[int]:
    """For each segment (vertex, slot), the number of `edges` it crosses
    under `edges_cross`, in O((|edges| + |segments|) log |edges|) comparisons.

    One sweep over the segments in slot order keeps the sorted vertices of
    the edges strictly left of the segment's slot (`lt`) and at or left of
    it (`le`). A segment (v, s) crosses the edges left of s with a vertex
    above v, and the edges right of s with a vertex below v.
    """
    by_slot = sorted(edges, key=lambda e: e[1])
    every = sorted(v for v, _ in edges)
    lt: list[int] = []
    le: list[int] = []
    i_lt = i_le = 0
    out = [0] * len(segments)
    for idx in sorted(range(len(segments)), key=lambda k: segments[k][1]):
        v, s = segments[idx]
        while i_lt < len(by_slot) and by_slot[i_lt][1] < s:
            insort(lt, by_slot[i_lt][0])
            i_lt += 1
        while i_le < len(by_slot) and by_slot[i_le][1] <= s:
            insort(le, by_slot[i_le][0])
            i_le += 1
        out[idx] = (len(lt) - bisect_right(lt, v)) + (bisect_left(every, v) - bisect_left(le, v))
    return out


def edge_arrow_crossings(state):
    """Crossings between placed edges and the state's propagation arrows."""
    return sum(segment_crossings(state_edges(state), scratch_arrows(state)))


def sweep_greedy_scores(state, request):
    """Greedy's absolute scores, the total crossings with `request` at each
    free slot, which `greedy_scores` returns less the leftmost free slot's.
    Every free slot t of a `PlacementState` is scored in one pass from four
    `segment_crossings` sweeps (board, new edges, and X[k] and Y[k], the
    placed edges crossing (lv[k], ls[k]) and (lv[k], ls[k + 2])). If t is
    the j-th free slot, arrow k points at ls[k] for k < 2j and at ls[k + 2]
    otherwise."""
    free = free_slots(state)
    lv = [v for v, _ in scratch_arrows(apply(state, request, free[0]))]
    ls = unfulfilled_slots(state)
    edges = state_edges(state)
    ends = request.vertices
    board = sum(segment_crossings(edges, edges)) // 2
    new_edges = segment_crossings(edges, [(v, t) for t in free for v in ends])
    x = segment_crossings(edges, list(zip(lv, ls)))
    y = segment_crossings(edges, list(zip(lv, ls[2:])))
    bounds = [(bisect_left(lv, v), bisect_right(lv, v)) for v in ends]
    old_arrows = sum(y)
    scores = {}
    for j, t in enumerate(free):
        k = 2 * j
        new_arrows = sum(max(0, k - hi) + max(0, lo - k) for lo, hi in bounds)
        scores[t] = board + new_edges[k] + new_edges[k + 1] + old_arrows + new_arrows
        if k < len(lv):
            old_arrows += x[k] + x[k + 1] - y[k] - y[k + 1]
    return scores


def outcome(fn, *args):
    """A call's value, or the type and text of the error it raised."""
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
