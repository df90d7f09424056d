"""Adversarial request sources: the non-competitiveness construction on
general graphs, the adaptive 4/3 lower-bound strategy for 2-regular
instances, and the static family on which the barycenter rule degrades.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional

from .model import Instance, RegularityClass, Request, make_request
from .propagation import ReplayBoard


class ProtocolError(RuntimeError):
    """The algorithm's observed placements violate the game protocol."""


class InfeasibleFillError(RuntimeError):
    """Leftover degree deficits cannot be paired without a self-loop."""


def endgame_fill(deficits: Mapping[int, int]) -> list[Request]:
    """Pair remaining degree deficits into requests completing 2-regularity.

    Repeatedly joins the two distinct vertices with the largest remaining
    deficit (leftmost on ties); for the all-deficit-two multisets produced
    by the adaptive rounds this yields a chain closed by one final request.
    """
    remaining = {v: d for v, d in deficits.items() if d > 0}
    if any(d > 2 for d in remaining.values()):
        raise InfeasibleFillError(f"deficit above two in {remaining}")
    out: list[Request] = []
    while remaining:
        if len(remaining) == 1:
            raise InfeasibleFillError(f"cannot pair leftover deficits {remaining}")
        x, y = sorted(remaining, key=lambda v: (-remaining[v], v))[:2]
        out.append(make_request(x, y))
        for v in (x, y):
            remaining[v] -= 1
            if remaining[v] == 0:
                del remaining[v]
    return out


class _RequestScript:
    """A request source written as one generator, `_script`, that yields
    the requests in the order the construction states them. Each
    `next_request` records the live board in `self._board`, where the
    script reads it once it resumes."""

    def next_request(self, board: ReplayBoard) -> Optional[Request]:
        self._board = board
        return next(self._requests, None)


class Thm1Adversary(_RequestScript):
    """Feeds a path of consecutive-pair requests, then duplicates the pair
    nearest the far end from wherever the single free slot was left.

    The completed sequence is a valid general instance; it is 2-regular
    only at the path's interior vertices.
    """

    name = "thm1"

    def __init__(self, n: int):
        if n < 4:
            raise ValueError(f"need n >= 4, got {n}")
        self.n = n
        self._requests = self._script()

    def _script(self) -> Iterator[Request]:
        for v in range(1, self.n):
            yield make_request(v, v + 1)
        free = self._board.free
        if len(free) != 1:
            raise ProtocolError(f"expected one free slot, found {free}")
        # Attack the side far from the hole: a left hole gets the
        # rightmost pair again, and vice versa.
        if free[0] <= (self.n + 1) // 2:
            yield make_request(self.n - 1, self.n)
        else:
            yield make_request(1, 2)


CASE1_OFFSETS = ((1, 2), (2, 4), (1, 3))
CASE2_OFFSETS = ((4, 5), (3, 5), (1, 2), (1, 2))
PROBE_OFFSET = (3, 4)
ENDGAME_RESERVE = 6


def thm2_board_size(rounds: int) -> int:
    return 5 * rounds + ENDGAME_RESERVE


class Thm2Adversary(_RequestScript):
    """Adaptive 2-regular strategy: repeatedly probes the five leftmost free
    slots and edge-free vertices with one request, branches on where the
    algorithm placed it, and finishes with a chain once at most six free
    slots remain. Sized so the endgame premise always holds."""

    name = "thm2"

    def __init__(self, rounds: int):
        if rounds < 1:
            raise ValueError(f"need rounds >= 1, got {rounds}")
        self.n = thm2_board_size(rounds)
        self._requests = self._script()

    def _script(self) -> Iterator[Request]:
        while len(self._board.free) > ENDGAME_RESERVE:
            slots, free_count = self._board.free[:5], len(self._board.free)
            deg = self._board.degree
            verts = [v for v in range(1, self.n + 1) if deg[v] == 0][:5]
            if len(verts) < 5:
                raise ProtocolError("fewer than five edge-free vertices mid-game")
            yield make_request(verts[PROBE_OFFSET[0] - 1], verts[PROBE_OFFSET[1] - 1])
            placements = free_count - len(self._board.free)
            if placements != 1:
                raise ProtocolError(f"expected one placement since the probe, saw {placements}")
            # The local slots are the leftmost free ones, so the probe went
            # to one of the first three exactly when one of them is taken.
            case1 = not all(self._board.is_free(s) for s in slots[:3])
            for i, j in CASE1_OFFSETS if case1 else CASE2_OFFSETS:
                yield make_request(verts[i - 1], verts[j - 1])
        free, deg = self._board.free, self._board.degree
        fill = endgame_fill({v: 2 - deg[v] for v in range(1, self.n + 1) if deg[v] < 2})
        if len(fill) != len(free):
            raise ProtocolError(f"endgame produced {len(fill)} requests for {len(free)} slots")
        yield from fill


def thm1_adversary(n: int) -> Thm1Adversary:
    return Thm1Adversary(n)


def thm2_adversary(rounds: int) -> Thm2Adversary:
    return Thm2Adversary(rounds)


def fig8_instance(n: int) -> Instance:
    """Duplicated consecutive pairs, presented right to left; the barycenter
    rule walks leftward and must dump the final request at the far right."""
    if n < 4 or n % 2 != 0:
        raise ValueError(f"need even n >= 4, got {n}")
    requests = []
    for hi in range(n, 0, -2):
        pair = make_request(hi - 1, hi)
        requests.extend([pair, pair])
    return Instance(
        n=n, requests=tuple(requests), regularity_class=RegularityClass.TWO_REGULAR
    )
