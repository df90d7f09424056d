"""Online placement algorithms and the game loop that plays them against a
request source (a fixed instance or an adaptive adversary).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Optional, Protocol, Union

from .model import Instance, PlacementState, Request, vertex_range_error
from .propagation import ReplayBoard, degree_overflow_error


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
    """An adaptive request source on an n-slot board. `play` asks it once
    per step with the live board, and it returns the next request or None
    when the game is done. A source plays one game."""

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


def greedy_scores(board: ReplayBoard, request: Request) -> list[int]:
    """Score every free slot t of the board in one sweep: the total
    edge-edge plus edge-arrow crossings with `request` placed at t, minus
    that total at the leftmost free slot, listed in `board.free` order.

    With r = (a, b) and `lv` the unfulfilled vertices once r is placed
    (the same for every t), the candidate's arrows are `lv` paired with the
    doubled free-slot list minus t's two entries. Moving r from the j-th
    free slot to the next one moves four segments: its edges (a, .) and
    (b, .) one free slot right, and the arrows u = lv[2j] and w = lv[2j + 1]
    from that slot back to the j-th. Only the crossings with the placed
    edges between the two slots change, by sgn(v - a) + sgn(v - b)
    - sgn(v - u) - sgn(v - w) for each vertex end v there, and the moving
    edges and arrows swap sides, by sgn(u - a) + sgn(u - b) + sgn(w - a)
    + sgn(w - b). A table over 1..n holds sgn(v - a) + sgn(v - b).

    So the sweep takes the swap term of every adjacent pair of free slots
    at once, then visits the placed requests between the first and the
    last free slot once each: the i-th placed slot s (from 0) lies between
    free slots j = s - 2 - i and j + 1, and adds its ends' term to step j.
    The scores are the prefix sums of the steps.

    A board whose candidates have undefined arrows raises the error
    `propagation.arrows` raises for them. O(n) comparisons.
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
    side = [-2] * a + [-1] + [0] * (b - a - 1) + [1] + [2] * (board.n - b)
    lower, upper = lv[::2], lv[1::2]
    steps = [side[u] + side[w] for u, w in zip(lower, upper)]
    first = free[0] - 1
    for i, (s, q) in enumerate(board.by_slot[first : free[-1] - len(free)], first):
        j = s - 2 - i
        u, w, x, y = lower[j], upper[j], q.a, q.b
        steps[j] += side[x] + side[y] + (x < u) - (x > u) + (x < w) - (x > w)
        steps[j] += (y < u) - (y > u) + (y < w) - (y > w)
    return [0, *accumulate(steps)]


def greedy_choose(board: ReplayBoard, request: Request) -> int:
    """Pick the free slot whose insertion minimizes total edge-edge plus
    edge-arrow crossings. `greedy_scores` shifts every score by the same
    constant, which leaves the minimizers as they are. `index` finds the
    first minimum in `free` order, so ties go to the leftmost slot.

    A single free slot is taken without scoring. Scoring it would need
    arrows that can be undefined there: thm1's last request raises a vertex
    to degree 3, where `greedy_scores` raises DegreeOverflowError, so
    greedy finishes that game only through this shortcut."""
    if len(board.free) == 1:
        return board.free[0]
    scores = greedy_scores(board, request)
    return board.free[scores.index(min(scores))]


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
        raise KeyError(f"unknown algorithm {name!r}; choose from {sorted(ALGORITHMS)}") from None


def play(
    source: Union[Instance, RequestSource],
    algorithm: OnlineAlgorithm,
    on_step: Optional[Callable[[int, TraceStep, ReplayBoard], None]] = None,
) -> Trace:
    """Run a full online game on one `ReplayBoard`, recording each step's
    request, chosen slot and running edge-edge crossing total. The source
    and the algorithm see the live board. A request with a vertex above n
    raises ValueError before the algorithm is asked for a slot.

    `on_step(index, step, board)`, when given, runs after each placement,
    with the index counted from 1, the step just recorded and the live
    board, before the source is asked for its next request. It must read
    the board only: the game goes on from that board (`harness` audits
    each state through it)."""
    if isinstance(source, Instance):
        requests = iter(source.requests)
        next_request = lambda board: next(requests, None)
    else:
        next_request = source.next_request
    board = ReplayBoard(source.n)
    steps: list[TraceStep] = []
    while (request := next_request(board)) is not None:
        if request.b > board.n:
            raise ValueError(f"step {len(steps) + 1}: {vertex_range_error(board.n, request)}")
        slot = algorithm.choose(board, request)
        board.place(request, slot)
        step = TraceStep(request=request, slot=slot, edge_edge_total=board.edge_edge_total)
        steps.append(step)
        if on_step is not None:
            on_step(len(steps), step, board)
    return Trace(n=board.n, steps=tuple(steps))
