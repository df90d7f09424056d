"""Propagation arrows: a greedy matching of missing vertex degrees to free
slot capacity that lower-bounds the crossings still to come.

The arrow set pairs the ordered list of unfulfilled vertices (each vertex
repeated once per missing edge) with the ordered list of unfulfilled slots
(each free slot repeated twice), position by position. Consecutive arrows
are monotone in both coordinates, so arrows never cross each other.

Also provides two state auditors: one for the forbidden double-crossing
configurations the greedy algorithm provably avoids, and one for the flow
balance identity that holds for every reachable state.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from .model import PlacementState, free_slots


class DegreeOverflowError(ValueError):
    """A vertex appears in more than two placed requests."""


class ArrowMismatchError(ValueError):
    """Vertex deficits and slot capacities disagree; the state cannot come
    from a 2-regular instance."""


@dataclass(frozen=True)
class PropagationArrowSet:
    arrows: tuple[tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.arrows)

    def __iter__(self):
        return iter(self.arrows)


def degree_overflow_error(deg: list[int]) -> DegreeOverflowError:
    """The error for the least vertex whose degree in `deg` exceeds two."""
    v = next(v for v, d in enumerate(deg) if d > 2)
    return DegreeOverflowError(f"vertex {v} has degree {deg[v]} > 2")


def unfulfilled_vertices(state: PlacementState) -> list[int]:
    """Ascending vertex list with each vertex repeated (2 - degree) times."""
    out = []
    deg = state.degrees()
    for v in range(1, state.n + 1):
        if deg[v] > 2:
            raise degree_overflow_error(deg)
        out.extend([v] * (2 - deg[v]))
    return out


def unfulfilled_slots(state: PlacementState) -> list[int]:
    """Ascending slot list with each free slot repeated twice."""
    out = []
    for s in free_slots(state):
        out.extend([s, s])
    return out


def arrows(state: PlacementState) -> PropagationArrowSet:
    """Pair the unfulfilled-vertex and unfulfilled-slot lists position-wise."""
    lv = unfulfilled_vertices(state)
    ls = unfulfilled_slots(state)
    if len(lv) != len(ls):
        raise ArrowMismatchError(
            f"{len(lv)} missing edges vs {len(ls)} slot openings; state is not 2-regular"
        )
    return PropagationArrowSet(arrows=tuple(zip(lv, ls)))


def audit_no_double_cross(
    state: PlacementState, arrow_set: Optional[PropagationArrowSet] = None
) -> list[str]:
    """Find two arrows into one slot that both fully cross the edges of a
    fulfilled slot.

    The greedy minimum-crossing algorithm was believed to avoid this
    configuration; algorithms that ignore arrows produce it routinely. It
    is not an invariant of greedy: an exact score tie, resolved leftward,
    can leave greedy in this shape (the avoided-configuration argument
    needs a strictly better slot further right, which a tie does not
    provide), and the share of games that reach it grows with n. Greedy on
    `random_two_regular(n, seed)`, seeds 0..count-1, games with at least
    one finding (`scripts/double_cross_rates.py`): 5/400 at n = 10, 67/200
    at n = 20, 83/100 at n = 40, and every game at n = 80 (50), 160 (20)
    and 320 (10). The audit reports the configuration; callers decide
    whether a finding is an error.

    `arrow_set` is `arrows(state)`, computed here when not given. Each free
    slot's two arrows are adjacent in the arrow list, and both lower and
    upper arrow vertices are nondecreasing in slot order. An arrow into a
    slot left of the fulfilled slot (a, b) crosses both edges when its
    vertex lies above b, one into a slot right of it when its vertex lies
    below a. So the targets on the left whose lower vertex lies above b are
    a suffix, the targets on the right whose upper vertex lies below a are
    a prefix, and two bisections per fulfilled slot find both, one run of
    adjacent targets: O(placed * log n + findings).

    The targets are the free slots in ascending order (a state `arrows`
    accepts has every placed slot in 1..n), so the i-th fulfilled slot s,
    counting from 0, has s - 1 - i free slots left of it: that is where the
    left targets end and the right ones begin, with no search.
    """
    arr = (arrows(state) if arrow_set is None else arrow_set).arrows
    return double_cross_findings(
        state.items(),
        [v for v, _ in arr[::2]],
        [v for v, _ in arr[1::2]],
        [t for _, t in arr[::2]],
    )


def double_cross_findings(items, lower, upper, targets) -> list[str]:
    """The double-cross findings of the ascending (slot, request) list
    `items`, whose free slots `targets` receive the arrows from `lower` and
    `upper`, as `audit_no_double_cross` describes."""
    heads = None  # per target, the finding text up to the fulfilled slot
    findings = []
    for i, (slot, req) in enumerate(items):
        split = slot - 1 - i
        first = bisect_right(lower, req.b, 0, split)
        stop = bisect_left(upper, req.a, split)
        if first == stop:
            continue
        if heads is None:
            heads = [
                f"arrows [({v}, {t}), ({w}, {t})] into slot {t} each cross both edges of slot "
                for v, w, t in zip(lower, upper, targets)
            ]
        tail = f"{slot} ({req.a},{req.b})"
        findings.extend([head + tail for head in heads[first:stop]])
    return findings


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


def audit_equator(
    state: PlacementState, arrow_set: Optional[PropagationArrowSet] = None
) -> list[str]:
    """Check the flow balance identity: at every cut between positions i and
    i+1 (same threshold on both lines), the number of edges-plus-arrows
    crossing left-to-right equals the number crossing right-to-left.

    Why it holds: every vertex and every slot carries exactly two segments
    (a vertex of degree d has 2 - d arrows, an occupied slot two edges, a
    free slot two arrows). With c = #(v <= i, s <= i), left-to-right is
    #(v <= i) - c = 2i - c and right-to-left is #(s <= i) - c = 2i - c.
    So the audit cannot fire on any state `arrows` accepts; it stays as a
    cheap check of the arrow construction. `arrow_set` is `arrows(state)`,
    computed here when not given.

    The imbalance at cut i is lr - rl = #(v <= i) - #(s <= i), so every cut
    balances when the segments' vertex and slot multisets agree; one sorted
    comparison checks that, and `cut_flows` runs only when they differ, to
    find and word the unbalanced cuts.
    """
    if arrow_set is None:
        arrow_set = arrows(state)
    segments = state.edges() + list(arrow_set)
    if sorted(map(itemgetter(0), segments)) == sorted(map(itemgetter(1), segments)):
        return []
    return unbalanced_cuts(state.n, segments)


def unbalanced_cuts(n: int, segments) -> list[str]:
    """One finding per cut i = 1..n that `segments` cross unequally in the
    two directions, worded with both counts."""
    return [
        f"cut (v<={i}, s<={i}): {lr} left-to-right vs {rl} right-to-left"
        for i, (lr, rl) in enumerate(cut_flows(n, segments), start=1)
        if lr != rl
    ]
