"""A trace's layout replayed on one mutable board, for the audits and the
per-step edge-arrow counts of `harness`.

`ReplayBoard` edits sorted lists in place as each step is replayed, so a
step's audits read the board instead of a new `PlacementState` and a new
arrow set. Each audit's finding text comes from one helper, which the
per-state audits (`harness._gap_findings`,
`propagation.audit_no_double_cross`, `propagation.audit_equator`) call too.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from .crossings import PairKind
from .model import Request, unavailable_slot_error
from .propagation import double_cross_findings, unbalanced_cuts


def gap_pair_findings(request, slot, items, left_stop, right_start) -> list[str]:
    """The gap findings (see `harness._gap_findings`) of `request` at `slot`
    against the (slot, request) pairs items[:left_stop], left of it with a
    free slot between, and items[right_start:], right of it with a free
    slot between."""
    a, b = request.a, request.b
    pairs = [(s, q, q.a > b) for s, q in items[:left_stop] if q.a >= b]
    pairs += [(s, q, a > q.b) for s, q in items[right_start:] if a >= q.b]
    return [
        f"{(PairKind.FOUR_ZERO if four else PairKind.THREE_ZERO).name} pair "
        f"({a},{b})@{slot} vs ({q.a},{q.b})@{other_slot} with a free slot between"
        for other_slot, q, four in pairs
    ]


class ReplayBoard:
    """A layout kept on sorted lists while a trace's steps are replayed.

    It keeps the placed (slot, request) pairs in slot order (`items`) and
    the free slots ascending (`free`). Every slot 1..n is in exactly one of
    them, so the free slot free[k] has free[k] - 1 - k placed slots left of
    it. With `track_arrows` it also keeps the vertex degrees, the sorted
    unfulfilled-vertex list `lv` (each vertex once per missing edge) and
    the sorted vertex ends of the placed edges (`ends`). The arrows are
    `lv` paired with the doubled free-slot list, as `propagation.arrows`
    pairs them. A placement is a few bisections and list edits. Once a
    vertex exceeds degree two the arrows are undefined, and `lv` is None
    from then on. A vertex above n raises IndexError, as in `arrows`.
    """

    def __init__(self, n: int, track_arrows: bool = True):
        self.n = n
        self.items: list[tuple[int, Request]] = []
        self.free = list(range(1, n + 1))
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
        `model.apply` raises."""
        free = self.free
        k = bisect_left(free, slot)
        if k == len(free) or free[k] != slot:
            raise unavailable_slot_error(self.n, slot)
        del free[k]
        self.items.insert(slot - 1 - k, (slot, request))
        if self.degree is None:
            return
        vertices = request.vertices
        for v in vertices:
            self.degree[v] += 1
        if self.lv is None:
            return
        if any(self.degree[v] > 2 for v in vertices):
            self.lv = None
            return
        for v in vertices:
            del self.lv[bisect_left(self.lv, v)]
            insort(self.ends, v)

    def gap_findings(self, request: Request, slot: int) -> list[str]:
        """`harness._gap_findings` of the board before `request` is placed
        at the free `slot`: the placed-slot counts of its free neighbours
        bound the two runs, with no further search."""
        free = self.free
        k = bisect_left(free, slot)
        left_stop = free[k - 1] - k if k else 0
        right_start = free[k + 1] - k - 2 if k + 1 < len(free) else len(self.items)
        return gap_pair_findings(request, slot, self.items, left_stop, right_start)

    def edges(self) -> list[tuple[int, int]]:
        return [(v, s) for s, q in self.items for v in (q.a, q.b)]

    def arrows(self) -> list[tuple[int, int]]:
        return list(zip(self.lv, [t for t in self.free for _ in range(2)]))

    def double_cross_findings(self) -> list[str]:
        lv = self.lv
        return double_cross_findings(self.items, lv[::2], lv[1::2], self.free)

    def equator_findings(self) -> list[str]:
        """`audit_equator` on the board: every cut balances when the sorted
        vertex ends of the edges and arrows equal their slot ends."""
        if sorted(self.ends + self.lv) == self.slot_ends:
            return []
        return unbalanced_cuts(self.n, self.edges() + self.arrows())
