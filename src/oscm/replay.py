"""One mutable board that `algorithms.play` drives and that the audits and
the per-step edge-arrow counts of `harness` replay a trace on.

`ReplayBoard` edits sorted lists in place as each request is placed, so a
step reads the board's lists instead of a new `PlacementState` and a new
arrow set. Request sources and algorithms read `free`, `degree` and
`by_slot` directly. Each audit's finding text comes from one helper, which
the per-state audits (`propagation.audit_no_double_cross`,
`propagation.audit_equator`) call too.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort

from .crossings import PairKind, added_crossings
from .model import PlacementState, Request, unavailable_slot_error
from .propagation import double_cross_findings, unbalanced_cuts


def gap_pair_findings(request, slot, items, left_stop, right_start, prefix: str = "") -> list[str]:
    """The gap findings of `request` at `slot`, each starting with
    `prefix`: the 4-0 or 3-0 pairs it forms in crossing order with a free
    slot between, against the (slot, request) pairs items[:left_stop], left
    of it with a free slot between, and items[right_start:], right of it
    with a free slot between.

    With L the request in the left slot and R the one in the right slot, a
    pair is in crossing order (swapping it would remove every crossing)
    exactly when L.a >= R.b. It then has 4 crossings as placed when
    L.a > R.b and 3 when L.a = R.b, as the two edges at that vertex meet
    without crossing.
    """
    a, b = request.a, request.b
    pairs = [(s, q, q.a > b) for s, q in items[:left_stop] if q.a >= b]
    pairs += [(s, q, a > q.b) for s, q in items[right_start:] if a >= q.b]
    return [
        f"{prefix}{(PairKind.FOUR_ZERO if four else PairKind.THREE_ZERO).name} pair "
        f"({a},{b})@{slot} vs ({q.a},{q.b})@{other_slot} with a free slot between"
        for other_slot, q, four in pairs
    ]


def arrows_crossing(lv, v, left) -> int:
    """How many arrows of the sorted vertex list `lv` cross an edge (v, s)
    when the first `left` arrows point left of s and the rest right of it.

    The arrows form a chain monotone in both coordinates, so the ones
    crossing the edge are one contiguous run: [bisect_right(lv, v), left),
    vertex above v and slot left of s, or [left, bisect_left(lv, v)),
    vertex below v and slot right of s. At most one of the two is not
    empty.
    """
    return max(left - bisect_right(lv, v), bisect_left(lv, v) - left, 0)


class ReplayBoard:
    """A layout kept on sorted lists while requests are placed one by one.

    It keeps the placed (slot, request) pairs in slot order (`by_slot`),
    the free slots ascending (`free`) and the running edge-edge crossing
    total (`edge_edge_total`). Every slot 1..n is in exactly one of
    `by_slot` and `free`, so the free slot free[k] has free[k] - 1 - k
    placed slots left of it, and the i-th placed slot s (from 0) has
    s - 1 - i free slots left of it.

    With `track_arrows` it also keeps the vertex degrees (`degree`, index
    0 unused), the sorted unfulfilled-vertex list `lv` (each vertex once
    per missing edge) and the sorted vertex ends of the placed edges
    (`ends`), which the equator audit checks against `slot_ends`. The
    arrows are `lv` paired with the doubled free-slot list, as
    `propagation.arrows` pairs them. Once a vertex exceeds degree two the
    arrows are undefined, and `lv` is None from then on. A vertex above n
    raises IndexError, as in `arrows`.

    Request sources and algorithms read the live lists `free`, `degree`
    and `by_slot` (greedy also `lv` and `edge_edge_total`) and must not
    edit them; `state()` builds the final `PlacementState` once. A
    placement is a few bisections and list edits, plus one pass over the
    placed requests for the crossings it adds.
    """

    def __init__(self, n: int, track_arrows: bool = True):
        self.n = n
        self.by_slot: list[tuple[int, Request]] = []
        self.free = list(range(1, n + 1))
        self.edge_edge_total = 0
        self.ends: list[int] = []
        self.degree = self.lv = None
        if track_arrows:
            self.degree = [0] * (n + 1)
            # Each slot carries two segment ends (two edges if placed, two
            # arrows if free), and on the empty board each vertex two arrows.
            self.slot_ends = [v for v in range(1, n + 1) for _ in range(2)]
            self.lv = self.slot_ends.copy()

    def is_free(self, slot: int) -> bool:
        k = bisect_left(self.free, slot)
        return k < len(self.free) and self.free[k] == slot

    def place(self, request: Request, slot: int) -> None:
        """Record `request` at `slot`; an unavailable slot raises the error
        `model.apply` raises. The running total is counted before a vertex
        above n can raise."""
        free = self.free
        k = bisect_left(free, slot)
        if k == len(free) or free[k] != slot:
            raise unavailable_slot_error(self.n, slot)
        self.edge_edge_total += added_crossings(self.by_slot, request, slot)
        del free[k]
        self.by_slot.insert(slot - 1 - k, (slot, request))
        degree, lv = self.degree, self.lv
        if degree is None:
            return
        a, b = request.a, request.b
        degree[a] += 1
        degree[b] += 1
        if lv is None:
            return
        if degree[a] > 2 or degree[b] > 2:
            self.lv = None
            return
        del lv[bisect_left(lv, a)]
        del lv[bisect_left(lv, b)]
        insort(self.ends, a)
        insort(self.ends, b)

    def edges(self) -> list[tuple[int, int]]:
        return [(v, s) for s, q in self.by_slot for v in (q.a, q.b)]

    def arrows(self) -> list[tuple[int, int]]:
        return list(zip(self.lv, [t for t in self.free for _ in range(2)]))

    def state(self) -> PlacementState:
        return PlacementState(n=self.n, placed=dict(self.by_slot))

    def edge_arrow_total(self) -> int:
        """Crossings between the placed edges and the arrows: the i-th
        placed slot s has 2(s - 1 - i) arrows pointing left of it."""
        lv = self.lv
        return sum(
            arrows_crossing(lv, v, 2 * (s - 1 - i))
            for i, (s, q) in enumerate(self.by_slot)
            for v in (q.a, q.b)
        )

    def gap_findings(self, request: Request, slot: int, prefix: str) -> list[str]:
        """The gap findings of the board before `request` is placed at the
        free `slot`, each starting with `prefix`. A placed slot left of `slot` has a free slot between
        exactly when it lies left of the nearest free slot below `slot`,
        and one right of it when it lies right of the nearest free slot
        above; their placed-slot counts bound the two runs, with no search.
        """
        free = self.free
        k = bisect_left(free, slot)
        left_stop = free[k - 1] - k if k else 0
        right_start = free[k + 1] - k - 2 if k + 1 < len(free) else len(self.by_slot)
        return gap_pair_findings(request, slot, self.by_slot, left_stop, right_start, prefix)

    def double_cross_findings(self, prefix: str) -> list[str]:
        lv = self.lv
        return double_cross_findings(self.by_slot, lv[::2], lv[1::2], self.free, prefix)

    def equator_findings(self) -> list[str]:
        """`audit_equator` on the board: every cut balances when the sorted
        vertex ends of the edges and arrows equal their slot ends."""
        if sorted(self.ends + self.lv) == self.slot_ends:
            return []
        return unbalanced_cuts(self.n, self.edges() + self.arrows())
