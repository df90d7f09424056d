"""Instances, requests and placement states for slotted online crossing
minimization on a two-layer drawing.

Vertices live on the bottom line, slots on the top line; both are indexed
1..n. A request is a pair of bottom vertices that must be wired to a single
free slot. All values here are immutable; `apply` returns a new state.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping


class SlotOccupiedError(ValueError):
    """Raised when a request is assigned to an already fulfilled slot."""


class SlotRangeError(ValueError):
    """Raised when a slot index is outside 1..n."""


class RegularityClass(Enum):
    GENERAL = "general"
    TWO_REGULAR = "two_regular"


@dataclass(frozen=True, order=True)
class Request:
    """A 2-subset of bottom vertices, stored canonically with a < b. The
    endpoints are taken as they are: one that is not an int (a float, a
    string or a bool) raises ValueError, as in `_strict_int`."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if type(self.a) is not int or type(self.b) is not int:
            raise ValueError(f"request endpoints must be integers, got ({self.a!r}, {self.b!r})")
        if not (1 <= self.a < self.b):
            raise ValueError(f"request endpoints must satisfy 1 <= a < b, got ({self.a}, {self.b})")

    @property
    def vertices(self) -> tuple[int, int]:
        return (self.a, self.b)


def make_request(x: int, y: int) -> Request:
    """Build a request from endpoints in either order. Only two ints are
    ordered; `Request` refuses any other pair, shown in the order given."""
    if type(x) is int and type(y) is int and x > y:
        x, y = y, x
    return Request(x, y)


@dataclass(frozen=True)
class Instance:
    """A (possibly incomplete) request sequence over n slots and n vertices."""

    n: int
    requests: tuple[Request, ...]
    regularity_class: RegularityClass = RegularityClass.GENERAL

    def __post_init__(self) -> None:
        object.__setattr__(self, "requests", tuple(self.requests))


def validate_instance(inst: Instance) -> list[str]:
    """Return a list of invariant violations; an empty list means the
    instance is valid for its declared regularity class."""
    violations: list[str] = []
    if inst.n < 1:
        violations.append(f"n must be positive, got {inst.n}")
        return violations
    if len(inst.requests) > inst.n:
        violations.append(f"{len(inst.requests)} requests exceed {inst.n} slots")
    degree = [0] * (inst.n + 1)
    for idx, req in enumerate(inst.requests):
        if req.b > inst.n:
            violations.append(f"request {idx + 1} endpoint {req.b} exceeds n={inst.n}")
            continue
        degree[req.a] += 1
        degree[req.b] += 1
    if inst.regularity_class is RegularityClass.TWO_REGULAR:
        if len(inst.requests) != inst.n:
            violations.append(
                f"2-regular instance needs exactly {inst.n} requests, got {len(inst.requests)}"
            )
        for v in range(1, inst.n + 1):
            if degree[v] != 2:
                violations.append(f"vertex {v} appears {degree[v]} times, expected 2")
    return violations


@dataclass(frozen=True)
class PlacementState:
    """A partial assignment of requests to slots during an online game: a
    plain record, whose layout is read on a `propagation.ReplayBoard`."""

    n: int
    placed: Mapping[int, Request] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "placed", dict(self.placed))


@dataclass(frozen=True)
class Assignment:
    """An offline solution: slot_of[i] is the slot of the i-th request."""

    slot_of: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "slot_of", tuple(self.slot_of))
        if len(set(self.slot_of)) != len(self.slot_of):
            raise ValueError("assignment maps two requests to the same slot")


def unavailable_slot_error(n: int, slot: int) -> ValueError:
    """The error for placing into `slot` on an n-slot board where it is not
    free: SlotRangeError for a slot that is not an int (a bool, a float or
    a string, as in `_strict_int`) or lies outside 1..n, SlotOccupiedError
    otherwise."""
    if type(slot) is not int:
        return SlotRangeError(f"slot must be an integer, got {slot!r}")
    if not (1 <= slot <= n):
        return SlotRangeError(f"slot {slot} out of range 1..{n}")
    return SlotOccupiedError(f"slot {slot} is already fulfilled")


def vertex_range_error(n: int, request: Request) -> ValueError:
    """The error for placing `request` on an n-slot board when its larger
    vertex lies above n."""
    return ValueError(f"request ({request.a},{request.b}) has a vertex above n={n}")


def apply(state: PlacementState, request: Request, slot: int) -> PlacementState:
    """Record `request` at `slot`, returning the new state. A slot that is
    not an int or not free, then a vertex above n, raises the error
    `ReplayBoard.place` raises."""
    if type(slot) is not int or not 1 <= slot <= state.n or slot in state.placed:
        raise unavailable_slot_error(state.n, slot)
    if request.b > state.n:
        raise vertex_range_error(state.n, request)
    placed = dict(state.placed)
    placed[slot] = request
    return PlacementState(n=state.n, placed=placed)


def random_two_regular(n: int, seed: int) -> Instance:
    """Sample a valid 2-regular instance on n vertices and n slots.

    Shuffles the multiset {1,1,...,n,n} and pairs consecutive tokens,
    resampling whenever a pair would be a self-loop. Deterministic per seed.
    """
    if _strict_int(n, "n") < 2:
        raise ValueError(f"need n >= 2 for a 2-regular instance, got {n}")
    rng = random.Random(seed)
    tokens = [v for v in range(1, n + 1) for _ in range(2)]
    while True:
        rng.shuffle(tokens)
        pairs = [(tokens[i], tokens[i + 1]) for i in range(0, 2 * n, 2)]
        if all(x != y for x, y in pairs):
            break
    requests = tuple(make_request(x, y) for x, y in pairs)
    return Instance(n=n, requests=requests, regularity_class=RegularityClass.TWO_REGULAR)


def instance_to_dict(inst: Instance) -> dict:
    return {
        "n": inst.n,
        "k": 2,
        "regularity": inst.regularity_class.value,
        "requests": [[r.a, r.b] for r in inst.requests],
    }


def _strict_int(value, what: str) -> int:
    """`value` itself if it is an int (bool excluded); no coercion."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _request_from_pair(pair, index: int) -> Request:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"request {index} must be a pair of vertices, got {pair!r}")
    a, b = (_strict_int(v, f"request {index} endpoint") for v in pair)
    return make_request(a, b)


def instance_from_dict(data: dict) -> Instance:
    """Build and validate an instance from its JSON form. Values are taken
    as they are: a float, bool or string where an integer belongs, or a
    request that is not a two-element list, raises ValueError. An optional
    "k" must be the integer 2, as every request is a pair. A key other than
    the four `instance_to_dict` writes is refused, so a misspelt
    "regularity" cannot skip its check, and so is a "regularity" other than
    a `RegularityClass` value."""
    if not isinstance(data, dict):
        raise ValueError(f"an instance must be a JSON object, got {type(data).__name__}")
    if unknown := [key for key in data if key not in ("n", "k", "regularity", "requests")]:
        raise ValueError("instance has unknown key " + " and ".join(map(repr, unknown)))
    if missing := [key for key in ("n", "requests") if key not in data]:
        raise ValueError("instance is missing " + " and ".join(map(repr, missing)))
    if "k" in data and _strict_int(data["k"], "k") != 2:
        raise ValueError(f"k must be 2, as requests are pairs, got {data['k']}")
    kinds = tuple(kind.value for kind in RegularityClass)
    if (regularity := data.get("regularity", "general")) not in kinds:
        raise ValueError(f"regularity must be {' or '.join(map(repr, kinds))}, got {regularity!r}")
    requests = data["requests"]
    if not isinstance(requests, (list, tuple)):
        raise ValueError(f"requests must be a list of pairs, got {requests!r}")
    inst = Instance(
        n=_strict_int(data["n"], "n"),
        requests=tuple(_request_from_pair(pair, idx) for idx, pair in enumerate(requests, start=1)),
        regularity_class=RegularityClass(regularity),
    )
    violations = validate_instance(inst)
    if violations:
        raise ValueError("invalid instance: " + "; ".join(violations))
    return inst


def load_instance(path: str) -> Instance:
    with open(path) as fh:
        return instance_from_dict(json.load(fh))


def save_instance(inst: Instance, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_dict(inst), fh, indent=2)
        fh.write("\n")
