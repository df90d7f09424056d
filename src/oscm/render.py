"""Deterministic SVG rendering of placement states: slots as squares on the
top line (filled once fulfilled), vertices as circles on the bottom line,
placed edges as straight segments, and propagation arrows in their own
stroke class. Output is byte-stable for identical inputs so renders can be
golden-tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .model import PlacementState
from .propagation import ReplayBoard

_STYLE = (
    ".slot{fill:white;stroke:black;stroke-width:1.5}"
    ".slot.fulfilled{fill:black}"
    ".vertex{fill:white;stroke:black;stroke-width:1.5}"
    ".edge{stroke:black;stroke-width:1.5}"
    ".edge.highlight{stroke-width:3}"
    ".arrow{stroke:gray;stroke-width:1;stroke-dasharray:4 3}"
)
WIDTH = 640
HEIGHT = 240


@dataclass(frozen=True)
class RenderSpec:
    show_arrows: bool = True
    highlight: Optional[tuple[int, ...]] = None


def _fmt(x: float) -> str:
    return f"{x:.1f}"


def render_svg(state: PlacementState, spec: RenderSpec = RenderSpec()) -> str:
    """Render a state as an SVG document string, read from one
    `ReplayBoard`: a slot outside 1..n raises SlotRangeError and a vertex
    above n ValueError, whether or not arrows are shown. Where a vertex
    exceeds degree two the arrows are undefined, and none are drawn."""
    board = ReplayBoard.of(state)
    n = state.n
    margin = 40.0
    step = (WIDTH - 2 * margin) / max(n - 1, 1)
    top_y = margin
    bottom_y = HEIGHT - margin
    x = lambda i: margin + (i - 1) * step

    if spec.highlight is not None:
        items = board.by_slot
        for idx in spec.highlight:
            if not (0 <= idx < len(items)):
                raise ValueError(f"highlight index {idx} has no placed request")
        highlighted_slots = {items[idx][0] for idx in spec.highlight}
    else:
        highlighted_slots = set()

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f"<style>{_STYLE}</style>",
        '<defs><marker id="head" markerWidth="6" markerHeight="6" refX="5" refY="3" '
        'orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="gray"/></marker></defs>',
    ]

    if spec.show_arrows and board.lv is not None:
        for v, s in board.arrows():
            parts.append(
                f'<line class="arrow" x1="{_fmt(x(v))}" y1="{_fmt(bottom_y - 8)}" '
                f'x2="{_fmt(x(s))}" y2="{_fmt(top_y + 8)}" marker-end="url(#head)"/>'
            )

    for slot, req in board.by_slot:
        cls = "edge highlight" if slot in highlighted_slots else "edge"
        for v in req.vertices:
            parts.append(
                f'<line class="{cls}" x1="{_fmt(x(v))}" y1="{_fmt(bottom_y)}" '
                f'x2="{_fmt(x(slot))}" y2="{_fmt(top_y)}"/>'
            )

    half = 7.0
    for s in range(1, n + 1):
        cls = "slot" if board.is_free(s) else "slot fulfilled"
        parts.append(
            f'<rect class="{cls}" x="{_fmt(x(s) - half)}" y="{_fmt(top_y - half)}" '
            f'width="{_fmt(2 * half)}" height="{_fmt(2 * half)}"/>'
        )
    for v in range(1, n + 1):
        parts.append(
            f'<circle class="vertex" cx="{_fmt(x(v))}" cy="{_fmt(bottom_y)}" r="{_fmt(half)}"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
