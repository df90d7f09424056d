"""Exact crossing counts for straight-line edges between the two layers,
plus the six-way classification of how a pair of placed requests can cross.
"""

from __future__ import annotations

from bisect import bisect_right, insort
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
    """Sum of pairwise crossings over all placed requests: the strict
    inversions of the vertex sequence read in slot order, O(m log m)
    comparisons for m requests (Barth, Jünger and Mutzel, "Simple and
    Efficient Bilayer Cross Counting", JGAA 2004).

    Accepts a PlacementState or any iterable of (slot, Request) pairs; two
    requests sharing a slot raise ValueError.
    """
    if isinstance(placements, PlacementState):
        placements = placements.placed.items()
    items = list(placements)
    uses = Counter(s for s, _ in items)
    shared = next((s for s, _ in items if uses[s] > 1), None)
    if shared is not None:
        raise ValueError(f"requests share slot {shared}")
    # An edge crosses each edge of an earlier slot with a larger vertex. The
    # two edges of one slot come in ascending order, and edges sharing a
    # vertex are not inverted, so neither pair counts.
    total = 0
    seen: list[int] = []
    for _, r in sorted(items):
        for v in (r.a, r.b):
            total += len(seen) - bisect_right(seen, v)
            insort(seen, v)
    return total


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
