"""Online placement algorithms and the game loop that plays them against a
request source (a fixed instance or an adaptive adversary).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Union

from .model import Instance, PlacementState, Request
from .propagation import degree_overflow_error
from .replay import ReplayBoard


class NoFreeSlotError(RuntimeError):
    """The algorithm was asked to place a request into a full layout."""


@dataclass(frozen=True)
class OnlineAlgorithm:
    name: str
    choose: Callable[[ReplayBoard, Request], int]


@dataclass(frozen=True)
class TraceStep:
    request: Request
    slot: int
    edge_edge_total: int


@dataclass(frozen=True)
class Trace:
    n: int
    steps: tuple[TraceStep, ...]

    @property
    def requests(self) -> list[Request]:
        return [step.request for step in self.steps]

    @property
    def final_state(self) -> PlacementState:
        """The layout the steps leave, built anew on each read."""
        return PlacementState(n=self.n, placed={step.slot: step.request for step in self.steps})


class RequestSource(Protocol):
    n: int

    def next_request(self, board: ReplayBoard) -> Optional[Request]: ...


def _free_or_raise(board: ReplayBoard) -> list[int]:
    """The board's free slots, ascending; NoFreeSlotError if none."""
    if not board.free:
        raise NoFreeSlotError("no free slot left")
    return board.free


def barycenter_choose(board: ReplayBoard, request: Request) -> int:
    """Aim for the slot under the midpoint of the requested vertices; if it
    is taken, pick the nearest free slot, leftmost on distance ties. The
    nearest free slots at or right of the target and left of it are
    neighbours in the ascending free list, so one bisection finds both."""
    free = _free_or_raise(board)
    target = (request.a + request.b) // 2
    k = bisect_left(free, target)
    if k == len(free) or (k and target - free[k - 1] <= free[k] - target):
        return free[k - 1]
    return free[k]


def greedy_scores(board: ReplayBoard, request: Request) -> dict[int, int]:
    """Score every free slot t of the board in one pass: the total
    edge-edge plus edge-arrow crossings with `request` placed at t.

    With r = (a, b) and `lv` the unfulfilled vertices once r is placed
    (the same for every t), the candidate's arrows are `lv` paired with the
    doubled free-slot list minus t's two entries. Take a placed slot s with
    f free slots left of it. If t lies left of s (t is the j-th free slot,
    j < f), 2f - 2 arrows point left of s, and otherwise 2f; either way the
    arrows crossing an edge at s are one contiguous run
    (`replay.arrows_crossing`). The new edge (a, t) crosses an edge (v, s)
    when v < a if t lies left of s, and when v > a if t lies right of it;
    likewise (b, t). So each placed slot adds one value to the score of
    every t left of it and another to that of every t right of it, and one
    difference array over the free slots sums them all. The arrows crossing
    the new edges are the runs of `lv` against 2j arrows pointing left of
    t. The board's own crossings are its running total.

    A board whose candidates have undefined arrows raises the error
    `propagation.arrows` raises for them. O(n) list work plus two
    bisections per placed edge.
    """
    free = _free_or_raise(board)
    a, b = request.a, request.b
    degree = board.degree
    if board.lv is None or degree[a] == 2 or degree[b] == 2:
        deg = degree.copy()
        deg[a] += 1
        deg[b] += 1
        raise degree_overflow_error(deg)
    lv = board.lv.copy()
    del lv[bisect_left(lv, a)]
    del lv[bisect_left(lv, b)]
    total = board.edge_edge_total
    step = [0] * (len(free) + 1)
    for i, (s, q) in enumerate(board.by_slot):
        f = s - 1 - i
        right = 2 * f
        left = right - 2
        qa, qb = q.a, q.b
        # The run lengths of `replay.arrows_crossing` at both splits, with
        # one pair of bisections per edge.
        lo, hi = bisect_left(lv, qa), bisect_right(lv, qa)
        on_left = left - hi if left > hi else lo - left if lo > left else 0
        on_right = right - hi if right > hi else lo - right if lo > right else 0
        lo, hi = bisect_left(lv, qb), bisect_right(lv, qb)
        on_left += left - hi if left > hi else lo - left if lo > left else 0
        on_right += right - hi if right > hi else lo - right if lo > right else 0
        on_left += (qa < a) + (qa < b) + (qb < a) + (qb < b)
        on_right += (qa > a) + (qa > b) + (qb > a) + (qb > b)
        # For f = 0 no free slot lies left of s, and on_left cancels at once.
        total += on_left
        step[f] += on_right - on_left
    lo_a, hi_a = bisect_left(lv, a), bisect_right(lv, a)
    lo_b, hi_b = bisect_left(lv, b), bisect_right(lv, b)
    scores = {}
    for j, t in enumerate(free):
        total += step[j]
        k = 2 * j
        scores[t] = total + max(k - hi_a, lo_a - k, 0) + max(k - hi_b, lo_b - k, 0)
    return scores


def greedy_choose(board: ReplayBoard, request: Request) -> int:
    """Pick the free slot whose insertion minimizes total edge-edge plus
    edge-arrow crossings, as scored by `greedy_scores`. `min` keeps the
    first of equal scores in the ascending scan, so ties go to the leftmost
    slot; a single free slot is taken without scoring."""
    if len(board.free) == 1:
        return board.free[0]
    scores = greedy_scores(board, request)
    return min(scores, key=scores.__getitem__)


def first_fit_choose(board: ReplayBoard, request: Request) -> int:
    """Baseline: always the lowest-index free slot."""
    return _free_or_raise(board)[0]


BARYCENTER = OnlineAlgorithm(name="barycenter", choose=barycenter_choose)
GREEDY = OnlineAlgorithm(name="greedy", choose=greedy_choose)
FIRST_FIT = OnlineAlgorithm(name="first_fit", choose=first_fit_choose)

ALGORITHMS = {alg.name: alg for alg in (BARYCENTER, GREEDY, FIRST_FIT)}


def get_algorithm(name: str) -> OnlineAlgorithm:
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise KeyError(f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}")


class _InstanceSource:
    """Adapts a fixed Instance to the adaptive request-source protocol."""

    def __init__(self, instance: Instance):
        self.n = instance.n
        self._requests = list(instance.requests)
        self._pos = 0

    def next_request(self, board: ReplayBoard) -> Optional[Request]:
        if self._pos >= len(self._requests):
            return None
        req = self._requests[self._pos]
        self._pos += 1
        return req


def play(source: Union[Instance, RequestSource], algorithm: OnlineAlgorithm) -> Trace:
    """Run a full online game on one `ReplayBoard`, recording each step's
    request, chosen slot and running edge-edge crossing total. The source
    and the algorithm see the live board. A request with a vertex above n
    raises ValueError before the algorithm is asked for a slot."""
    if isinstance(source, Instance):
        source = _InstanceSource(source)
    board = ReplayBoard(source.n)
    steps: list[TraceStep] = []
    while True:
        request = source.next_request(board)
        if request is None:
            break
        if request.b > board.n:
            raise ValueError(
                f"step {len(steps) + 1}: request ({request.a},{request.b}) "
                f"has a vertex above n={board.n}"
            )
        slot = algorithm.choose(board, request)
        board.place(request, slot)
        steps.append(TraceStep(request=request, slot=slot, edge_edge_total=board.edge_edge_total))
    return Trace(n=board.n, steps=tuple(steps))
