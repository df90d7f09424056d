"""Offline optimum of a request sequence.

The (a, b)-sorted order is exactly optimal at every size (the proof is in
`sorted_order_value`). `sorted_order_opt` lays that order out and counts
it once, and `sorted_order_value` returns that count without the witness. The
exponential subset dynamic program (`brute_force_opt`) stays as the exact
oracle that `harness.sweep` and the tests check the closed form against;
`harness.score_trace` reads the same optimum from a game's pair-kind
counts. Because crossings between two requests depend only on
their relative slot order, the optimum over all injective slot assignments
equals the optimum over request orderings, which makes the subset program
exact and far cheaper than enumerating slot permutations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crossings import order_counts, total_crossings
from .model import Assignment, Instance

MAX_N = 9


class OracleSizeError(ValueError):
    """Instance exceeds the exhaustive-search bound."""


@dataclass(frozen=True)
class OptResult:
    opt_crossings: int
    witness: Assignment


def _cost_matrix(requests) -> list[list[int]]:
    """c[i][j]: crossings between request i and j when i sits left of j."""
    m = len(requests)
    c = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            c[i][j], c[j][i] = order_counts(requests[i], requests[j])
    return c


def _subset_dp(c: list[list[int]]) -> list[int]:
    """dp[S] = minimum internal crossings over all orderings of subset S."""
    m = len(c)
    dp = [0] * (1 << m)
    for mask in range(1, 1 << m):
        best = None
        rest_members = [i for i in range(m) if mask >> i & 1]
        for last in rest_members:
            prev = mask ^ (1 << last)
            cost = dp[prev] + sum(c[other][last] for other in rest_members if other != last)
            if best is None or cost < best:
                best = cost
        dp[mask] = best
    return dp


def brute_force_opt(inst: Instance, max_n: int = MAX_N) -> OptResult:
    """Minimum crossings over all injective request-to-slot assignments,
    with the lexicographically smallest minimizing slot vector as witness.

    Accepts incomplete instances (fewer requests than slots); n above
    `max_n` raises OracleSizeError.
    """
    if inst.n > max_n:
        raise OracleSizeError(f"n={inst.n} exceeds the exhaustive-search bound {max_n}")
    requests = list(inst.requests)
    m = len(requests)
    if m == 0:
        return OptResult(opt_crossings=0, witness=Assignment(slot_of=()))
    c = _cost_matrix(requests)
    dp = _subset_dp(c)
    full = (1 << m) - 1
    opt = dp[full]

    pm = [[min(c[i][j], c[j][i]) for j in range(m)] for i in range(m)]

    # Lexicographic witness search: assign requests in index order, slots
    # ascending, pruning branches that provably cannot reach the optimum.
    slot_of = [0] * m
    used_slots = 0

    def remaining_bound(assigned: list[int], rest_mask: int) -> int:
        bound = dp[rest_mask]
        for i in assigned:
            for j in range(m):
                if rest_mask >> j & 1:
                    bound += pm[i][j]
        return bound

    def dfs(i: int, partial: int, assigned: list[int], rest_mask: int) -> bool:
        nonlocal used_slots
        if i == m:
            return partial == opt
        for slot in range(1, inst.n + 1):
            if used_slots >> slot & 1:
                continue
            delta = 0
            for j in assigned:
                delta += c[j][i] if slot_of[j] < slot else c[i][j]
            new_partial = partial + delta
            new_rest = rest_mask ^ (1 << i)
            if new_partial + remaining_bound(assigned + [i], new_rest) > opt:
                continue
            slot_of[i] = slot
            used_slots |= 1 << slot
            if dfs(i + 1, new_partial, assigned + [i], new_rest):
                return True
            used_slots ^= 1 << slot
        return False

    found = dfs(0, 0, [], full)
    assert found, "witness search must succeed once the optimum is known"
    return OptResult(opt_crossings=opt, witness=Assignment(slot_of=tuple(slot_of)))


def sorted_order_value(inst: Instance) -> int:
    """The optimum: crossings of the assignment that sorts the m requests by
    (min, max) endpoint and fills slots 1..m left to right; sequence position
    breaks ties. Only the slots' order counts, so this is an assignment of
    any instance, complete or not, of any size or degree. It is
    `sorted_order_opt`'s count, the one code path for this optimum.

    Proof that it is optimal, one pair of requests at a time:
    - Two requests (a, b) and (a', b') are comparable (a <= a', b <= b', or
      the reverse) or strictly nested (a < a' < b' < b, or the reverse).
    - A nested pair crosses twice in either order.
    - A comparable pair with its dominated request on the left pays its minimum.
    - (a, b) order extends dominance, so every pair pays its minimum, and no
      layout pays less than the sum of the pairwise minima.
    """
    return sorted_order_opt(inst).opt_crossings


def sorted_order_opt(inst: Instance) -> OptResult:
    """The optimum and its sorted-order witness: requests in (a, b, index)
    order fill slots 1..m. The value is the witness's own crossing count,
    which `sorted_order_value` returns."""
    requests = inst.requests
    order = sorted(range(len(requests)), key=lambda i: (requests[i].a, requests[i].b, i))
    slot_of = [0] * len(requests)
    for slot, i in enumerate(order, start=1):
        slot_of[i] = slot
    witness = Assignment(slot_of=tuple(slot_of))
    return OptResult(opt_crossings=total_crossings(zip(slot_of, requests)), witness=witness)
