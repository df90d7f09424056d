"""Reference implementations that the library no longer calls, kept for the
tests: they rebuild a new state and a new arrow set from scratch and count
crossings with full `segment_crossings` sweeps, where the library reads one
`ReplayBoard`. Also the helpers that compare outcomes.
"""

from bisect import bisect_left, bisect_right, insort

from oscm.model import apply, free_slots
from oscm.propagation import degree_overflow_error


def unfulfilled_vertices(state):
    """Ascending vertex list with each vertex repeated (2 - degree) times.
    A vertex above n raises IndexError, one above degree two
    DegreeOverflowError."""
    deg = state.degrees()
    if any(d > 2 for d in deg):
        raise degree_overflow_error(deg)
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
    return sum(segment_crossings(state.edges(), scratch_arrows(state)))


def sweep_greedy_scores(state, request):
    """`greedy_scores` as it was before the board: every free slot t of a
    `PlacementState` scored in one pass from four `segment_crossings` sweeps
    (board, new edges, and X[k] and Y[k], the placed edges crossing
    (lv[k], ls[k]) and (lv[k], ls[k + 2])). If t is the j-th free slot,
    arrow k points at ls[k] for k < 2j and at ls[k + 2] otherwise."""
    free = free_slots(state)
    lv = [v for v, _ in scratch_arrows(apply(state, request, free[0]))]
    ls = unfulfilled_slots(state)
    edges = state.edges()
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


def raised(fn, *args):
    """Like `outcome`, but also for the IndexError a vertex above n raises
    on a board."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
