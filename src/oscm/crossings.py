"""Exact crossing counts for straight-line edges between the two layers,
plus the six-way classification of how a pair of placed requests can cross.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .model import PlacementState, Request


class UnclassifiablePairError(RuntimeError):
    """A pair's (placed, swapped) counts match none of the six known kinds.

    Unreachable for valid inputs; raising it signals a counter bug.
    """


class PairKind(Enum):
    ONE_ONE = frozenset({1})
    TWO_ONE = frozenset({2, 1})
    THREE_ZERO = frozenset({3, 0})
    THREE_ONE = frozenset({3, 1})
    FOUR_ZERO = frozenset({4, 0})
    TWO_TWO = frozenset({2})


@dataclass(frozen=True)
class PairCrossKind:
    kind: PairKind
    placed_count: int
    swapped_count: int

    @property
    def unavoidable(self) -> int:
        return min(self.placed_count, self.swapped_count)

    @property
    def avoidable(self) -> int:
        return abs(self.placed_count - self.swapped_count)


def edges_cross(e1: tuple[int, int], e2: tuple[int, int]) -> bool:
    """True iff the straight edges (vertex, slot) strictly cross.

    Edges sharing a vertex or a slot meet only at that endpoint and do not
    count as crossing.
    """
    (v1, s1), (v2, s2) = e1, e2
    return (v1 - v2) * (s1 - s2) < 0


def pair_crossings(r1: Request, s1: int, r2: Request, s2: int) -> int:
    """Number of crossing edge pairs between two placed requests."""
    if s1 == s2:
        raise ValueError(f"requests share slot {s1}")
    count = 0
    for v1 in r1.vertices:
        for v2 in r2.vertices:
            if edges_cross((v1, s1), (v2, s2)):
                count += 1
    return count


def total_crossings(placements) -> int:
    """Sum of pairwise crossings over all placed requests, counted by one
    `segment_crossings` sweep: O(n log n) comparisons.

    Accepts a PlacementState or any iterable of (slot, Request) pairs; two
    requests sharing a slot raise ValueError.
    """
    if isinstance(placements, PlacementState):
        items = placements.items()
    else:
        items = list(placements)
        uses = Counter(s for s, _ in items)
        shared = next((s for s, _ in items if uses[s] > 1), None)
        if shared is not None:
            raise ValueError(f"requests share slot {shared}")
    edges = [(v, s) for s, r in items for v in (r.a, r.b)]
    # Every crossing is counted once from each of its two edges; the two
    # edges of one request share a slot and never cross.
    return sum(segment_crossings(edges, edges)) // 2


def added_crossings(placements, request: Request, slot: int) -> int:
    """Crossings between `request` at `slot` and every placed request: the
    amount `total_crossings` grows by when the request is added. O(n).

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


def order_counts(r1: Request, r2: Request) -> tuple[int, int]:
    """(gt, lt): the crossings between r1 and r2 with r1 in the left slot
    and with r1 in the right slot, from the four endpoint comparisons.

    With r1 left, an edge of r1 crosses an edge of r2 exactly when its
    vertex lies above the other's, and with r1 right when it lies below.
    Neither count depends on where the slots are.
    """
    a1, b1, a2, b2 = r1.a, r1.b, r2.a, r2.b
    gt = (a1 > a2) + (a1 > b2) + (b1 > a2) + (b1 > b2)
    lt = (a1 < a2) + (a1 < b2) + (b1 < a2) + (b1 < b2)
    return gt, lt


_KIND_OF_COUNTS = {kind.value: kind for kind in PairKind}


def pair_kind(placed: int, swapped: int) -> PairKind:
    """The kind of a pair with these crossing counts in its two slot orders."""
    kind = _KIND_OF_COUNTS.get(frozenset((placed, swapped)))
    if kind is None:
        raise UnclassifiablePairError(f"counts ({placed}, {swapped}) match no known kind")
    return kind


def classify_pair(r1: Request, s1: int, r2: Request, s2: int) -> PairCrossKind:
    """Classify a placed pair by its crossing counts in the given and the
    swapped slot order."""
    if s1 == s2:
        raise ValueError(f"requests share slot {s1}")
    gt, lt = order_counts(r1, r2)
    placed, swapped = (gt, lt) if s1 < s2 else (lt, gt)
    kind = pair_kind(placed, swapped)
    return PairCrossKind(kind=kind, placed_count=placed, swapped_count=swapped)
