"""Propagation arrows: a greedy matching of missing vertex degrees to free
slot capacity that lower-bounds the crossings still to come.

The arrow set pairs the ordered list of unfulfilled vertices (each vertex
repeated once per missing edge) with the ordered list of unfulfilled slots
(each free slot repeated twice), position by position. Consecutive arrows
are monotone in both coordinates, so arrows never cross each other.

Also provides two state auditors: one for the forbidden double-crossing
configurations the greedy algorithm provably avoids, and one for the flow
balance identity that holds for every reachable state.

Each function here loads the state on a `replay.ReplayBoard`, the engine
that `play` and the trace audits run on, and reads the board's arrows.
"""

from __future__ import annotations

from .model import PlacementState
from .replay import ReplayBoard


class DegreeOverflowError(ValueError):
    """A vertex appears in more than two placed requests."""


def degree_overflow_error(deg: list[int]) -> DegreeOverflowError:
    """The error for the least vertex whose degree in `deg` exceeds two."""
    v = next(v for v, d in enumerate(deg) if d > 2)
    return DegreeOverflowError(f"vertex {v} has degree {deg[v]} > 2")


def _arrow_board(state: PlacementState) -> ReplayBoard:
    """`ReplayBoard.of(state)`, whose arrows must be defined: a vertex above
    degree two raises DegreeOverflowError. As in loading the board, a slot
    outside 1..n raises SlotRangeError and a vertex above n IndexError."""
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
    is not an invariant of greedy: an exact score tie, resolved leftward,
    can leave greedy in this shape (the avoided-configuration argument
    needs a strictly better slot further right, which a tie does not
    provide), and the share of games that reach it grows with n. Greedy on
    `random_two_regular(n, seed)`, seeds 0..count-1, games with at least
    one finding (`scripts/double_cross_rates.py`): 5/400 at n = 10, 67/200
    at n = 20, 83/100 at n = 40, and every game at n = 80 (50), 160 (20)
    and 320 (10). The audit reports the configuration; callers decide
    whether a finding is an error.

    `ReplayBoard.double_cross_findings` finds them with two bisections per
    fulfilled slot.
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
    So the audit cannot fire on any state `arrows` accepts; it stays as a
    cheap check of the board's arrow bookkeeping
    (`ReplayBoard.equator_findings`).
    """
    return _arrow_board(state).equator_findings()
