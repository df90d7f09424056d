import functools
import hashlib

import pytest

from oscm.adversaries import fig8_instance, thm1_adversary
from oscm.algorithms import ALGORITHMS, FIRST_FIT, GREEDY, play
from oscm.model import Instance, Request, apply, empty_state, random_two_regular
from oscm.render import RenderSpec, render_svg


def fig4_state():
    state = apply(empty_state(5), Request(1, 3), 2)
    return apply(state, Request(3, 5), 5)


def test_empty_board_counts():
    svg = render_svg(empty_state(3))
    assert svg.count('class="slot"') == 3
    assert svg.count('class="vertex"') == 3
    assert svg.count('class="arrow"') == 6
    assert svg.count('class="edge"') == 0


def test_partial_state_counts():
    svg = render_svg(fig4_state())
    assert svg.count('class="slot fulfilled"') == 2
    assert svg.count('class="slot"') == 3
    assert svg.count('class="edge"') == 4
    assert svg.count('class="arrow"') == 6


def test_full_state_has_no_arrows():
    state = apply(empty_state(2), Request(1, 2), 1)
    state = apply(state, Request(1, 2), 2)
    svg = render_svg(state, RenderSpec(show_arrows=True))
    assert svg.count('class="arrow"') == 0


def test_arrows_can_be_hidden():
    svg = render_svg(empty_state(4), RenderSpec(show_arrows=False))
    assert svg.count('class="arrow"') == 0


def test_highlight_marks_requested_edges():
    svg = render_svg(fig4_state(), RenderSpec(highlight=(0,)))
    assert svg.count('class="edge highlight"') == 2
    assert svg.count('class="edge"') == 2
    with pytest.raises(ValueError):
        render_svg(fig4_state(), RenderSpec(highlight=(5,)))


def test_render_is_byte_stable():
    trace = play(random_two_regular(7, seed=13), GREEDY)
    a = render_svg(trace.final_state)
    b = render_svg(trace.final_state)
    assert a == b
    assert a.startswith("<svg ") and a.endswith("</svg>\n")


def prefix_states(source, alg):
    """The empty board and every state after each step of one game."""
    trace = play(source, alg)
    state = empty_state(trace.n)
    states = [state]
    for step in trace.steps:
        state = apply(state, step.request, step.slot)
        states.append(state)
    return states


def render_grid_sha256(states):
    """sha256 of every state rendered with arrows, without them, and with
    its first and last placed requests highlighted."""
    specs = (RenderSpec(), RenderSpec(show_arrows=False))
    svgs = [render_svg(state, spec) for state in states for spec in specs]
    svgs += [
        render_svg(state, RenderSpec(highlight=(0, len(state.placed) - 1)))
        for state in states
        if state.placed
    ]
    return hashlib.sha256("".join(svgs).encode()).hexdigest()


def overflow_finals():
    # thm1's last request pushes a vertex to degree three, and a general
    # instance may do so at any step: those states render without arrows.
    finals = [prefix_states(thm1_adversary(n), alg)[-1] for n in (4, 6) for alg in ALGORITHMS.values()]
    inst = Instance(n=5, requests=(Request(1, 2), Request(1, 3), Request(1, 4), Request(2, 5)))
    return finals + prefix_states(inst, FIRST_FIT)[1:]


RENDER_GRID = {
    "empty boards n=1..8": lambda: [empty_state(n) for n in range(1, 9)],
    "fig4": lambda: [fig4_state()],
    **{
        f"{name} on {label}, every prefix": functools.partial(prefix_states, make(), ALGORITHMS[name])
        for name in sorted(ALGORITHMS)
        for label, make in (
            ("random_two_regular(7, 13)", lambda: random_two_regular(7, seed=13)),
            ("random_two_regular(9, 39)", lambda: random_two_regular(9, seed=39)),
            ("fig8(6)", lambda: fig8_instance(6)),
        )
    },
    "degree-overflow finals": overflow_finals,
}

# sha256 of `render_grid_sha256` over each group of states: a change to any
# coordinate, class, arrow or the order of the elements fails here.
RENDER_SHA256 = {
    "empty boards n=1..8": "9f52f67cb09718b18a9407905ffd7cf6cbf2ae9931d0773e311bd3c5779644c5",
    "fig4": "8adae4fea01829400de4db14e602a4740ec5a41062bb8f6c4b3ee692ebdfc70a",
    "barycenter on random_two_regular(7, 13), every prefix": "a08595a65c648526464f4b859a11c349787c8759f4c23a8090a40a7bf8949fc3",
    "barycenter on random_two_regular(9, 39), every prefix": "7230b9b3a3c57525c1a6d6e9a11dd576d25f527912801e51f55c144525ab313f",
    "barycenter on fig8(6), every prefix": "4858e2a10afa572348a908b9a68822c9de70d661077d0e85843c475b3f57e21a",
    "first_fit on random_two_regular(7, 13), every prefix": "41651dcf9c2b965b651339f244e612fc2950a0c723a24f7ae471405ae3548425",
    "first_fit on random_two_regular(9, 39), every prefix": "09fbcafa66ce2798bf62c5a3fb059c55bb214355057b70b3f82f9323d8543c0c",
    "first_fit on fig8(6), every prefix": "d3f357c640ecd0703f77699c622d6e3cda29bae047b980fe33c74cc41f3c4fac",
    "greedy on random_two_regular(7, 13), every prefix": "ee6c8a6d20e9fc16bf0d909bf13e8a13efd5cc83bcd3db306a4a55d60d324a1c",
    "greedy on random_two_regular(9, 39), every prefix": "16f0f95f092e263198d57a1d23231bd9076326f1dfe62f54e16f030f3f87a685",
    "greedy on fig8(6), every prefix": "06cbbffd35fb88ba6a08e0b961cdcb0c1eaae484e35bd998950b9e379683b237",
    "degree-overflow finals": "db8f6adc42bee90040debd58d502cb7b8d7248b8db66d3363054de76edb0be2e",
}


@pytest.mark.parametrize("group", RENDER_GRID)
def test_render_bytes_are_pinned(group):
    assert render_grid_sha256(RENDER_GRID[group]()) == RENDER_SHA256[group]
