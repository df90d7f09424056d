"""The library's one layout engine and the propagation arrows read off it.

`ReplayBoard` is a mutable board that `algorithms.play` drives (and
`harness.run_experiment` audits as it is played), that `harness` replays a
stored trace on for the audits and the per-step edge-arrow counts, and
that `render` and the per-state functions here load a single state on.
It edits sorted lists in place as each request is placed, so a step reads
the board's lists instead of a new `PlacementState` and a new arrow set.
Request sources and algorithms read `free`, `degree` and `by_slot`
directly.

The propagation arrows are a greedy matching of missing vertex degrees to
free slot capacity that lower-bounds the crossings still to come. The
arrow set pairs the ordered list of unfulfilled vertices (each vertex
repeated once per missing edge) with the ordered list of unfulfilled slots
(each free slot repeated twice), position by position. Consecutive arrows
are monotone in both coordinates, so arrows never cross each other.

`arrows`, `audit_no_double_cross` and `audit_equator` load one
`PlacementState` on a board and read its arrows, the double-crossing
configurations the greedy algorithm was believed to avoid, and the flow
balance identity that holds for every reachable state.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort

from .crossings import PairKind
from .model import PlacementState, Request, unavailable_slot_error, vertex_range_error


class DegreeOverflowError(ValueError):
    """A vertex appears in more than two placed requests."""


def degree_overflow_error(deg: list[int]) -> DegreeOverflowError:
    """The error for the least vertex whose degree in `deg` exceeds two."""
    v = next(v for v, d in enumerate(deg) if d > 2)
    return DegreeOverflowError(f"vertex {v} has degree {deg[v]} > 2")


def _above_minus_below(items, a: int, b: int) -> int:
    """Over the (slot, request) pairs `items`, the request ends above a
    plus those above b, minus the ends below a and those below b."""
    total = 0
    for _, q in items:
        x, y = q.a, q.b
        total += (x > a) - (x < a) + (x > b) - (x < b)
        total += (y > a) - (y < a) + (y > b) - (y < b)
    return total


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
    count each placement's crossings. The propagation arrows are `lv`
    paired position by position with the doubled free-slot list
    (`arrows`). Once a vertex exceeds degree two the arrows are undefined,
    and `lv` is None from then on; `ends` is still kept. `place` refuses
    an unavailable slot or a vertex above n before it edits anything, so
    every placement is applied whole or not at all.

    A scored game, played or replayed, runs the two audits that can fire
    on it after each placement: the gap audit of the placement
    (`gap_findings`) and the double-cross audit (`double_cross_findings`).
    The flow balance cannot fail on its arrows; `audit_equator` checks it
    on one state.

    Request sources, algorithms and `play`'s per-step hook read the live
    lists `free`, `degree` and `by_slot` (greedy also `lv`) and must not
    edit them. A placement is a few bisections and list edits, plus a pass
    over the placed requests on the shorter side of its slot for the
    crossings it adds: none at either end of the layout.
    """

    def __init__(self, n: int):
        self.n = n
        self.by_slot: list[tuple[int, Request]] = []
        self.free = list(range(1, n + 1))
        self.edge_edge_total = 0
        self.degree = [0] * (n + 1)
        # On the empty board every vertex misses both its edges.
        self.lv: list[int] | None = [v for v in range(1, n + 1) for _ in range(2)]
        self.ends: list[int] = []

    @classmethod
    def of(cls, state: PlacementState) -> ReplayBoard:
        """A board holding the placements of `state`, placed in slot order:
        the first placement `place` refuses raises its error."""
        board = cls(state.n)
        for slot, request in sorted(state.placed.items()):
            board.place(request, slot)
        return board

    def place(self, request: Request, slot: int) -> None:
        """Record `request` at `slot`. A slot that is not an int or not
        free, then a vertex above n, raises the error `model.apply` raises,
        and the board is left as it was.

        The new edges cross every placed edge on the left with a vertex
        above theirs and every one on the right with a vertex below. Two
        bisections of `ends` count the placed ends below a and b, as if
        every placed request lay right of `slot`, or those above, as if
        every one lay left of it. Only the placed requests on the shorter
        side of `slot` are then visited, each moved to its true side by
        the signs of its ends against a and b (`_above_minus_below`)."""
        free = self.free
        # A slot of another type is refused before a bisection compares it.
        k = bisect_left(free, slot) if type(slot) is int else len(free)
        if k == len(free) or free[k] != slot:
            raise unavailable_slot_error(self.n, slot)
        a, b = request.a, request.b
        if b > self.n:
            raise vertex_range_error(self.n, request)
        by_slot, ends = self.by_slot, self.ends
        pos = slot - 1 - k
        if 2 * pos <= len(by_slot):
            below = bisect_left(ends, a) + bisect_left(ends, b)
            added = below + _above_minus_below(by_slot[:pos], a, b)
        else:
            above = 2 * len(ends) - bisect_right(ends, a) - bisect_right(ends, b)
            added = above - _above_minus_below(by_slot[pos:], a, b)
        self.edge_edge_total += added
        del free[k]
        by_slot.insert(pos, (slot, request))
        insort(ends, a)
        insort(ends, b)
        degree, lv = self.degree, self.lv
        degree[a] += 1
        degree[b] += 1
        if lv is None:
            return
        if degree[a] > 2 or degree[b] > 2:
            self.lv = None
            return
        del lv[bisect_left(lv, a)]
        del lv[bisect_left(lv, b)]

    def arrows(self) -> list[tuple[int, int]]:
        return list(zip(self.lv, [t for t in self.free for _ in range(2)]))

    def edge_arrow_total(self) -> int:
        """Crossings between the placed edges and the arrows. The i-th
        placed slot s has left = 2(s - 1 - i) arrows pointing left of it.

        The arrows form a chain monotone in both coordinates, so the ones
        crossing an edge (v, s) are one contiguous run of `lv`:
        [bisect_right(lv, v), left), vertex above v and slot left of s, or
        [left, bisect_left(lv, v)), vertex below v and slot right of s. At
        most one of the two is not empty.
        """
        lv = self.lv
        return sum(
            max(left - bisect_right(lv, v), bisect_left(lv, v) - left, 0)
            for i, (s, q) in enumerate(self.by_slot)
            for left in [2 * (s - 1 - i)]
            for v in (q.a, q.b)
        )

    def gap_findings(self, slot: int, prefix: str) -> list[str]:
        """The gap findings of the request just placed at `slot`, each
        starting with `prefix`. A placed slot left of `slot` has a free slot
        between exactly when it lies left of the nearest free slot below
        `slot`, and one right of it when it lies right of the nearest free
        slot above; their placed-slot counts bound the two runs, with no
        search. With k free slots left of `slot`, those are free[k - 1] and
        free[k], and the request sits at by_slot[slot - 1 - k].

        A finding is a 4-0 or 3-0 pair in crossing order (swapping it would
        remove every crossing) with a free slot between. With L the request
        in the left slot and R the one in the right slot, a pair is in
        crossing order exactly when L.a >= R.b. It then has 4 crossings as
        placed when L.a > R.b and 3 when L.a = R.b, as the two edges at
        that vertex meet without crossing.
        """
        free, by_slot = self.free, self.by_slot
        k = bisect_left(free, slot)
        left_stop = free[k - 1] - k if k else 0
        right_start = free[k] - k - 1 if k < len(free) else len(by_slot)
        a, b = by_slot[slot - 1 - k][1].vertices
        pairs = [(s, q, q.a > b) for s, q in by_slot[:left_stop] if q.a >= b]
        pairs += [(s, q, a > q.b) for s, q in by_slot[right_start:] if a >= q.b]
        return [
            f"{prefix}{(PairKind.FOUR_ZERO if four else PairKind.THREE_ZERO).name} pair "
            f"({a},{b})@{slot} vs ({q.a},{q.b})@{other_slot} with a free slot between"
            for other_slot, q, four in pairs
        ]

    def double_cross_findings(self, prefix: str = "") -> list[str]:
        """The double-cross findings of the board, each starting with
        `prefix`: two arrows into one free slot that both cross both edges
        of a fulfilled slot.

        The j-th free slot's two arrows are lv[2j] and lv[2j + 1], so both
        its lower and its upper arrow vertex are nondecreasing in j. An
        arrow into a slot left of the fulfilled slot (a, b) crosses both
        edges when its vertex lies above b, one into a slot right of it
        when its vertex lies below a. The i-th fulfilled slot s, counting
        from 0, has split = s - 1 - i free slots left of it. So its left
        targets whose lower vertex lies above b are a suffix of the first
        split, and its right targets whose upper vertex lies below a a
        prefix of the rest. Both are empty unless the nearest target on
        that side qualifies, which is one comparison, and at most one side
        does (lv[2 split - 2] <= lv[2 split + 1]); only then does one
        bisection of `lv` find where the run ends. A target's finding text
        up to the fulfilled slot is formatted once, when it first falls in
        a run. So a call costs O(placed) comparisons, one bisection per
        fulfilled slot with findings and O(1) list work per finding.
        """
        lv, free = self.lv, self.free
        nfree = len(free)
        heads: list[str | None] = [None] * nfree
        findings = []
        for i, (slot, req) in enumerate(self.by_slot):
            split = slot - 1 - i
            a, b = req.a, req.b
            if split and lv[2 * split - 2] > b:
                first, stop = (bisect_right(lv, b, 0, 2 * split - 2) + 1) // 2, split
            elif split < nfree and lv[2 * split + 1] < a:
                first, stop = split, bisect_left(lv, a, 2 * split + 2) // 2
            else:
                continue
            run = heads[first:stop]
            # Only a run with a new target pays a Python loop over it.
            if None in run:
                for j in range(first, stop):
                    if heads[j] is None:
                        t = free[j]
                        heads[j] = (
                            f"{prefix}arrows [({lv[2 * j]}, {t}), ({lv[2 * j + 1]}, {t})] "
                            f"into slot {t} each cross both edges of slot "
                        )
                run = heads[first:stop]
            tail = f"{slot} ({a},{b})"
            findings.extend([head + tail for head in run])
        return findings


def _arrow_board(state: PlacementState) -> ReplayBoard:
    """`ReplayBoard.of(state)`, whose arrows must be defined: a vertex above
    degree two raises DegreeOverflowError. Loading refuses what `place`
    refuses: a slot outside 1..n (SlotRangeError) or a vertex above n
    (ValueError)."""
    board = ReplayBoard.of(state)
    if board.lv is None:
        raise degree_overflow_error(board.degree)
    return board


def arrows(state: PlacementState) -> tuple[tuple[int, int], ...]:
    """The (vertex, slot) arrows of `state`: the unfulfilled vertices and
    the unfulfilled slots, paired position-wise."""
    return tuple(_arrow_board(state).arrows())


def audit_no_double_cross(state: PlacementState) -> list[str]:
    """Find two arrows into one slot that both fully cross the edges of a
    fulfilled slot.

    The greedy minimum-crossing algorithm was believed to avoid this
    configuration; algorithms that ignore arrows produce it routinely. It
    is not an invariant of greedy. An exact score tie, resolved leftward,
    can leave greedy in this shape (the avoided-configuration argument
    needs a strictly better slot further right, which a tie does not
    provide), but ties are not the whole cause: on the 7-vertex sequence
    (1,2), (4,6), (5,7), (3,7), (2,6), (1,5), (3,4) (acceptance criterion
    9) both resolutions of greedy's one tie, at step 1, reach it at step
    6, with a unique best slot at every later step. The share of games
    that reach it grows with n. Greedy on
    `random_two_regular(n, seed)`, seeds 0..count-1, games with at least
    one finding (`scripts/double_cross_rates.py`): 5/400 at n = 10, 67/200
    at n = 20, 83/100 at n = 40, and every game at n = 80 (50), 160 (20)
    and 320 (10). The audit reports the configuration; callers decide
    whether a finding is an error.

    `ReplayBoard.double_cross_findings` finds them with one comparison per
    side of each fulfilled slot, and a bisection only where the nearest
    target on that side offends.
    """
    return _arrow_board(state).double_cross_findings()


def audit_equator(state: PlacementState) -> list[str]:
    """Check the flow balance identity: at every cut between positions i and
    i+1 (same threshold on both lines), the number of edges-plus-arrows
    crossing left-to-right equals the number crossing right-to-left.

    Why it holds: every vertex and every slot carries exactly two segments
    (a vertex of degree d has 2 - d arrows, an occupied slot two edges, a
    free slot two arrows). With c = #(v <= i, s <= i), left-to-right is
    #(v <= i) - c = 2i - c and right-to-left is #(s <= i) - c = 2i - c.
    So the audit cannot fire on any state `arrows` accepts. It is a check
    of the board's arrow bookkeeping, run per state: a scored game does
    not run it, and the tests apply it at every step of the acceptance
    sweeps. A segment (v, s), an edge or an arrow, crosses cut i left to
    right when v <= i < s and right to left when s <= i < v.
    """
    board = _arrow_board(state)
    segments = [(v, s) for s, q in board.by_slot for v in (q.a, q.b)] + board.arrows()
    findings = []
    for i in range(1, state.n + 1):
        lr = sum(v <= i < s for v, s in segments)
        rl = sum(s <= i < v for v, s in segments)
        if lr != rl:
            findings.append(f"cut (v<={i}, s<={i}): {lr} left-to-right vs {rl} right-to-left")
    return findings
