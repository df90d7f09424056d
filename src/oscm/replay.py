"""The library's one layout engine: a mutable board that `algorithms.play`
drives, that `harness` replays a trace on for the audits and the per-step
edge-arrow counts, and that `propagation` loads a single state on for its
arrows and per-state audits.

`ReplayBoard` edits sorted lists in place as each request is placed, so a
step reads the board's lists instead of a new `PlacementState` and a new
arrow set. Request sources and algorithms read `free`, `degree` and
`by_slot` directly. Each audit's finding text comes from one helper here.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort

from .crossings import PairKind, added_crossings
from .model import PlacementState, Request, unavailable_slot_error


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


def cut_flows(n: int, segments) -> list[tuple[int, int]]:
    """Per diagonal cut i = 1..n, the segments crossing it as
    (left-to-right, right-to-left).

    A segment is an edge or arrow (v, s). Left-to-right means v <= i < s,
    right-to-left means s <= i < v, so each segment crosses one contiguous
    run of cuts; one difference array per direction counts them all in a
    single sweep, O(n + |segments|).
    """
    diff_lr = [0] * (n + 2)
    diff_rl = [0] * (n + 2)
    for v, s in segments:
        for diff, lo, hi in ((diff_lr, v, s), (diff_rl, s, v)):
            lo, hi = max(lo, 1), min(hi, n + 1)
            if lo < hi:
                diff[lo] += 1
                diff[hi] -= 1
    flows = []
    lr = rl = 0
    for i in range(1, n + 1):
        lr += diff_lr[i]
        rl += diff_rl[i]
        flows.append((lr, rl))
    return flows


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

    It also keeps the vertex degrees (`degree`, index 0 unused), the
    sorted unfulfilled-vertex list `lv` (each vertex once per missing
    edge) and the sorted vertex ends of the placed edges (`ends`), which
    the equator audit checks against `slot_ends`. The propagation arrows
    are `lv` paired position by position with the doubled free-slot list
    (`arrows`). Once a vertex exceeds degree two the arrows are undefined,
    and `lv` is None from then on. A vertex above n has no degree entry
    and raises IndexError.

    Request sources and algorithms read the live lists `free`, `degree`
    and `by_slot` (greedy also `lv` and `edge_edge_total`) and must not
    edit them. A placement is a few bisections and list edits, plus one
    pass over the placed requests for the crossings it adds.
    """

    def __init__(self, n: int):
        self.n = n
        self.by_slot: list[tuple[int, Request]] = []
        self.free = list(range(1, n + 1))
        self.edge_edge_total = 0
        self.degree = [0] * (n + 1)
        # Each slot carries two segment ends (two edges if placed, two
        # arrows if free), and on the empty board each vertex two arrows.
        self.slot_ends = [v for v in range(1, n + 1) for _ in range(2)]
        self.lv: list[int] | None = self.slot_ends.copy()
        self.ends: list[int] = []

    @classmethod
    def of(cls, state: PlacementState) -> ReplayBoard:
        """A board holding the placements of `state`, placed in slot order:
        a slot outside 1..n raises SlotRangeError, as placing there does."""
        board = cls(state.n)
        for slot, request in state.items():
            board.place(request, slot)
        return board

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

    def double_cross_findings(self, prefix: str = "") -> list[str]:
        """The double-cross findings of the board, each starting with
        `prefix`: two arrows into one free slot that both cross both edges
        of a fulfilled slot.

        Each free slot's two arrows are adjacent in `lv`, and both lower
        and upper arrow vertices are nondecreasing in slot order. An arrow
        into a slot left of the fulfilled slot (a, b) crosses both edges
        when its vertex lies above b, one into a slot right of it when its
        vertex lies below a. So the targets on the left whose lower vertex
        lies above b are a suffix, the targets on the right whose upper
        vertex lies below a are a prefix, and two bisections per fulfilled
        slot find both, one run of adjacent targets:
        O(placed * log n + findings). The i-th fulfilled slot s, counting
        from 0, has s - 1 - i free slots left of it: that is where the left
        targets end and the right ones begin, with no search.
        """
        lower, upper = self.lv[::2], self.lv[1::2]
        heads = None  # per target, the finding text up to the fulfilled slot
        findings = []
        for i, (slot, req) in enumerate(self.by_slot):
            split = slot - 1 - i
            first = bisect_right(lower, req.b, 0, split)
            stop = bisect_left(upper, req.a, split)
            if first == stop:
                continue
            if heads is None:
                heads = [
                    f"{prefix}arrows [({v}, {t}), ({w}, {t})] into slot {t} "
                    "each cross both edges of slot "
                    for v, w, t in zip(lower, upper, self.free)
                ]
            tail = f"{slot} ({req.a},{req.b})"
            findings.extend([head + tail for head in heads[first:stop]])
        return findings

    def equator_findings(self) -> list[str]:
        """`propagation.audit_equator` on the board: one finding per cut
        i = 1..n that the edges and arrows cross unequally in the two
        directions, worded with both counts. The imbalance at cut i is
        #(v <= i) - #(s <= i), so every cut balances when their sorted
        vertex ends equal their slot ends; only when they differ are the
        cuts counted."""
        if sorted(self.ends + self.lv) == self.slot_ends:
            return []
        return [
            f"cut (v<={i}, s<={i}): {lr} left-to-right vs {rl} right-to-left"
            for i, (lr, rl) in enumerate(cut_flows(self.n, self.edges() + self.arrows()), start=1)
            if lr != rl
        ]
