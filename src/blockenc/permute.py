"""Unitary amplitude reordering among computational basis states.

A single fully-controlled X exchanges exactly two basis labels that differ in
one bit.  Chaining such swaps realizes an arbitrary bijection between two
sets of basis states while leaving every amplitude a pure relocation: the
resulting circuit is always a 0/1 permutation matrix.  ``route_permutation``
plans the chain as a list of ``(a, b)`` label swaps; ``permute_circuit``
turns it into gates.
"""

from __future__ import annotations

from collections.abc import Collection, Container

from .errors import BadInput
from .assignment import Pairs, hamming
from .ir import Circuit, Gate, instance, integer, mcx


def basis_swap(a: int, b: int, width: int) -> Gate:
    """Gate exchanging the amplitudes of two width-bit labels one bit apart."""
    a, b, width = integer(a, "label a"), integer(b, "label b"), integer(width, "width")
    diff = a ^ b
    if width < 0 or diff.bit_count() != 1 or (a | b) >> width:
        raise BadInput(f"{a} and {b} do not differ in exactly one of {width} bits")
    return mcx((((1 << width) - 1) ^ diff, a & ~diff), width - diff.bit_length())


def _bfs_path(start: int, goal: int, blocked: set[int], bits: list[int]) -> list[int] | None:
    """Shortest hypercube path avoiding blocked labels (endpoints exempt).

    ``bits`` lists the single-bit flips in the order they are tried.
    """
    frontier = {start: None}
    parents: dict[int, int | None] = {start: None}
    while frontier:
        nxt = {}
        for s in sorted(frontier):
            for bit in bits:
                t = s ^ bit
                if t in parents or (t in blocked and t != goal):
                    continue
                parents[t] = s
                if t == goal:
                    path = [t]
                    while path[-1] != start:
                        path.append(parents[path[-1]])
                    return path[::-1]
                nxt[t] = s
        frontier = nxt
    return None


def _next_swaps(cur: int, goal: int, settled: set[int], occupied: Container[int],
                bits: list[int]) -> list[tuple[int, int]]:
    """Swaps of the next routing step for the amplitude at ``cur``.

    One swap along the most significant differing bit whose neighbour is
    neither settled nor holding a pending amplitude, else along the first
    whose neighbour is not settled (the goal always qualifies).  When every
    such neighbour is settled, the shortest path around the settled states;
    when they cut ``cur`` off from ``goal``, the direct path there and back,
    which leaves every intermediate state where it was.
    """
    diffs = [bit for bit in bits if (cur ^ goal) & bit]
    for avoid in (occupied, ()):
        for bit in diffs:
            t = cur ^ bit
            if t == goal or (t not in settled and t not in avoid):
                return [(cur, t)]
    path = _bfs_path(cur, goal, settled, bits)
    if path is None:
        path = [cur]
        for bit in diffs:
            path.append(path[-1] ^ bit)
        there = list(zip(path, path[1:]))
        return there + there[-2::-1]
    return list(zip(path, path[1:]))


def route_permutation(pairs: Pairs, width: int) -> list[tuple[int, int]]:
    """Adjacent-state swaps carrying every source label to its target.

    ``pairs`` is a matching of width-bit labels; pairs with equal ends are
    settled states the route never borrows.  Sources are processed in
    ascending order of distance to target, each by ``_next_swaps`` until it
    arrives; a swap also moves the pending amplitude it meets.  Two maps
    track the pending amplitudes both ways, ``pos`` from each source to the
    label its amplitude sits on and ``at`` back, so a swap looks up the
    sources on its two labels and the labels holding a pending amplitude
    are the keys of ``at``.  A width that is not an integer >= 0, pairs
    that are not a collection, labels that are not integers in
    ``0 .. 2**width - 1`` and repeated sources or targets are ``BadInput``;
    numpy integer labels are taken as ints.
    """
    if integer(width, "width") < 0:
        raise BadInput(f"width must be >= 0, got {width}")
    instance(pairs, Collection, "pairs")
    try:  # numpy integers become ints, so no swap carries one
        pairs = [(integer(s, "pair label"), integer(t, "pair label")) for s, t in pairs]
    except (TypeError, ValueError):
        raise BadInput(f"pairs must be (source, target) pairs, got {pairs!r}") from None
    sources, targets = {s for s, _ in pairs}, {t for _, t in pairs}
    # a label outside the width, negative ones included, shifts to nonzero
    if not len(sources) == len(targets) == len(pairs) or any(
            x >> width for x in sources | targets):
        raise BadInput(f"pairs must match distinct sources to distinct targets, "
                       f"all labels of {width} bits")
    moves = {s: t for s, t in pairs if s != t}
    settled = {s for s, t in pairs if s == t}
    pos = {s: s for s in moves}  # source -> label its amplitude sits on
    at = dict(pos)  # label -> source whose amplitude sits on it
    bits = [1 << b for b in range(width - 1, -1, -1)]  # most significant first
    swaps: list[tuple[int, int]] = []
    for src in sorted(moves, key=lambda s: (hamming(s, moves[s]), s)):
        goal = moves[src]
        while pos[src] != goal:
            for a, b in _next_swaps(pos[src], goal, settled, at, bits):
                swaps.append((a, b))
                qa, qb = at.pop(a, None), at.pop(b, None)
                if qa is not None:
                    pos[qa], at[b] = b, qa
                if qb is not None:
                    pos[qb], at[a] = a, qb
        del pos[src], at[goal]
        settled.add(goal)
    return swaps


def permute_circuit(pairs: Pairs, width: int) -> Circuit:
    """Circuit whose unitary is a permutation matrix agreeing with the pairs.

    Every source column carries its amplitude to the mapped target; states
    outside the sources are permuted among the leftover positions.
    """
    swaps = route_permutation(pairs, width)
    return Circuit(width, tuple(basis_swap(a, b, width) for a, b in swaps))
