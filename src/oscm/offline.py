"""Exact offline optimum for a request sequence, plus the sorted-order
heuristic used as a cross-check and as a cheap upper bound on larger games.

Because crossings between two requests depend only on their relative slot
order, the optimum over all injective slot assignments equals the optimum
over request orderings. That makes a subset dynamic program over request
orderings exact, and far cheaper than enumerating slot permutations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .crossings import pair_crossings, total_crossings
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
        for j in range(m):
            if i != j:
                c[i][j] = pair_crossings(requests[i], 1, requests[j], 2)
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
    """Crossings of the assignment that sorts the m requests by (min, max)
    endpoint and fills slots 1..m left to right; sequence position breaks
    ties. Only the slots' order counts, so this is an assignment of any
    instance, complete or not."""
    requests = inst.requests
    order = sorted(range(len(requests)), key=lambda i: (requests[i].a, requests[i].b, i))
    items = [(slot + 1, requests[i]) for slot, i in enumerate(order)]
    return total_crossings(items)
