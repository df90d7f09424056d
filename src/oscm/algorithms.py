"""Online placement algorithms and the game loop that plays them against a
request source (a fixed instance or an adaptive adversary).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Protocol, Union

from .crossings import added_crossings, segment_crossings
from .model import Instance, PlacementState, Request, apply, empty_state, free_slots
from .propagation import arrows, unfulfilled_slots


class NoFreeSlotError(RuntimeError):
    """The algorithm was asked to place a request into a full layout."""


@dataclass(frozen=True)
class OnlineAlgorithm:
    name: str
    choose: Callable[[PlacementState, Request], int]


@dataclass(frozen=True)
class TraceStep:
    request: Request
    slot: int
    edge_edge_total: int


@dataclass(frozen=True)
class Trace:
    n: int
    steps: tuple[TraceStep, ...]
    final_state: PlacementState

    @property
    def requests(self) -> list[Request]:
        return [step.request for step in self.steps]


class RequestSource(Protocol):
    n: int

    def next_request(self, state: PlacementState) -> Optional[Request]: ...


def edge_arrow_crossings(state: PlacementState) -> int:
    """Crossings between placed edges and the state's propagation arrows."""
    return sum(segment_crossings(state.edges(), arrows(state).arrows))


def _free_or_raise(state: PlacementState) -> list[int]:
    """The free slots of `state`, ascending; NoFreeSlotError if none."""
    free = free_slots(state)
    if not free:
        raise NoFreeSlotError("no free slot left")
    return free


def barycenter_choose(state: PlacementState, request: Request) -> int:
    """Aim for the slot under the midpoint of the requested vertices; if it
    is taken, pick the nearest free slot, leftmost on distance ties."""
    free = _free_or_raise(state)
    target = (request.a + request.b) // 2
    return min(free, key=lambda t: (abs(t - target), t))


def greedy_scores(state: PlacementState, request: Request) -> dict[int, int]:
    """Score every free slot t in one pass: the total edge-edge plus
    edge-arrow crossings of the state with `request` placed at t, exactly
    `total_crossings` plus `edge_arrow_crossings` of that candidate.

    With r = (a, b), `lv` the unfulfilled vertices once r is placed (the
    same for every t) and `ls` the doubled free-slot list of `state`, the
    candidate's arrows are `lv` paired with `ls` minus t's two entries.
    That is the arrow-shift identity: if t is the j-th free slot, arrow k
    points at ls[k] for k < 2j and at ls[k + 2] otherwise. So the score of
    t is the sum of
    - the crossings already on the board;
    - the crossings of the new edges (a, t) and (b, t) with placed edges;
    - sum(X[:2j]) + sum(Y[2j:]), where X[k] and Y[k] count the placed edges
      crossing (lv[k], ls[k]) and (lv[k], ls[k + 2]);
    - the arrows crossing the new edges: those with k < 2j whose vertex
      lies above a or b, and those with k >= 2j whose vertex lies below,
      counted by bisection on the sorted `lv`.
    A state whose candidates have undefined arrows raises the error
    `arrows` raises for them. O(n log n) comparisons per call.
    """
    free = _free_or_raise(state)
    lv = [v for v, _ in arrows(apply(state, request, free[0]))]
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


def greedy_choose(state: PlacementState, request: Request) -> int:
    """Pick the free slot whose insertion minimizes total edge-edge plus
    edge-arrow crossings, as scored by `greedy_scores`. `min` keeps the
    first of equal scores in the ascending scan, so ties go to the leftmost
    slot; a single free slot is taken without scoring."""
    free = free_slots(state)
    if len(free) == 1:
        return free[0]
    scores = greedy_scores(state, request)
    return min(scores, key=scores.__getitem__)


def first_fit_choose(state: PlacementState, request: Request) -> int:
    """Baseline: always the lowest-index free slot."""
    return _free_or_raise(state)[0]


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

    def next_request(self, state: PlacementState) -> Optional[Request]:
        if self._pos >= len(self._requests):
            return None
        req = self._requests[self._pos]
        self._pos += 1
        return req


def play(source: Union[Instance, RequestSource], algorithm: OnlineAlgorithm) -> Trace:
    """Run a full online game, recording each step's request, chosen slot
    and running edge-edge crossing total."""
    if isinstance(source, Instance):
        source = _InstanceSource(source)
    state = empty_state(source.n)
    steps: list[TraceStep] = []
    edge_edge_total = 0
    while True:
        request = source.next_request(state)
        if request is None:
            break
        slot = algorithm.choose(state, request)
        after = apply(state, request, slot)
        edge_edge_total += added_crossings(state, request, slot)
        state = after
        steps.append(TraceStep(request=request, slot=slot, edge_edge_total=edge_edge_total))
    return Trace(n=state.n, steps=tuple(steps), final_state=state)
