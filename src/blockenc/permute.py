"""Unitary amplitude reordering among computational basis states.

A single fully-controlled X exchanges exactly two basis labels that differ in
one bit.  Chaining such swaps realizes an arbitrary bijection between two
sets of basis states while leaving every amplitude a pure relocation: the
resulting circuit is always a 0/1 permutation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotAdjacent
from .assignment import Bijection, hamming
from .ir import Circuit, Gate, mcx, select_pattern


def basis_swap(a: int, b: int, width: int) -> Gate:
    """Gate exchanging the amplitudes of two width-bit labels one bit apart."""
    diff = a ^ b
    if diff.bit_count() != 1 or (a | b) >> width:
        raise NotAdjacent(f"{a} and {b} do not differ in exactly one of {width} bits")
    return mcx(select_pattern(((1 << width) - 1) ^ diff, a, width), width - diff.bit_length())


@dataclass
class RoutingPlan:
    """Swap schedule realizing a bijection, with bookkeeping for stats."""

    width: int
    swaps: list[tuple[int, int]] = field(default_factory=list)
    hamming_bound: int = 0
    detour_steps: int = 0

    @property
    def gate_count(self) -> int:
        return len(self.swaps)


def _bfs_path(start: int, goal: int, blocked: set[int], bits: list[int]) -> list[int] | None:
    """Shortest hypercube path avoiding blocked labels (endpoints exempt).

    ``bits`` lists the single-bit flips in the order they are tried.
    """
    if start == goal:
        return [start]
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


def route_permutation(phi: Bijection) -> RoutingPlan:
    """Plan adjacent-state swaps realizing phi on every source state.

    Sources are processed in ascending order of distance to target; the
    default path flips differing bits from most to least significant,
    detouring around states whose amplitudes are already settled.
    """
    plan = RoutingPlan(width=phi.width)
    moves = {s: t for s, t in phi.pairs if s != t}
    if not moves:
        return plan
    bits = [1 << b for b in range(phi.width - 1, -1, -1)]  # most significant first
    plan.hamming_bound = sum(hamming(s, t) for s, t in moves.items())
    settled = {s for s, t in phi.pairs if s == t}
    pos = {s: s for s in moves}
    order = sorted(moves, key=lambda s: (hamming(s, moves[s]), s))

    def emit(a: int, b: int) -> None:
        plan.swaps.append((a, b))
        displaced = [q for q, p in pos.items() if p == b]
        for q in displaced:
            pos[q] = a
            if hamming(a, moves[q]) > hamming(b, moves[q]):
                plan.detour_steps += 1  # pending amplitude pushed one step out

    for src in order:
        goal = moves[src]
        cur = pos[src]
        del pos[src]  # own position tracked locally while routing
        while cur != goal:
            diffs = [bit for bit in bits if (cur ^ goal) & bit]
            occupied = set(pos.values())
            step = None
            for prefer_free in (True, False):
                for bit in diffs:
                    cand = cur ^ bit
                    if cand in settled and cand != goal:
                        continue
                    if prefer_free and cand in occupied and cand != goal:
                        continue
                    step = cand
                    break
                if step is not None:
                    break
            if step is None:
                path = _bfs_path(cur, goal, settled, bits)
                if path is not None:
                    plan.detour_steps += (len(path) - 1 - len(diffs)) // 2
                    for nxt in path[1:]:
                        emit(cur, nxt)
                        cur = nxt
                    continue
                # settled states disconnect the route: conjugate swaps along
                # the direct path restore every intermediate state
                path = [cur]
                for bit in diffs:
                    path.append(path[-1] ^ bit)
                seq = list(zip(path, path[1:]))
                for a, b in seq[:-1]:
                    plan.swaps.append((a, b))
                plan.swaps.append(seq[-1])
                for a, b in reversed(seq[:-1]):
                    plan.swaps.append((a, b))
                plan.detour_steps += len(seq) - 1
                displaced = [q for q, p in pos.items() if p == goal]
                for q in displaced:
                    pos[q] = cur
                cur = goal
                continue
            emit(cur, step)
            cur = step
        settled.add(goal)
    return plan


def permute_circuit(phi: Bijection) -> Circuit:
    """Circuit whose unitary is a permutation matrix agreeing with phi.

    Every source column carries its amplitude to the mapped target; states
    outside the sources are permuted among the leftover positions.
    """
    plan = route_permutation(phi)
    return Circuit(plan.width, tuple(basis_swap(a, b, plan.width) for a, b in plan.swaps))


def permute_inverse(circuit: Circuit) -> Circuit:
    """Same swaps in reverse order; composition with the original is identity."""
    return Circuit(circuit.n_qubits, tuple(reversed(circuit.gates)),
                   circuit.layout, -circuit.global_phase)


def controlled_swap(a: int, b: int, width: int) -> list[Gate]:
    """Exchange two labels differing in exactly two bits, as three MCX gates.

    Convenience equivalent of a fully controlled SWAP gate, kept in the MCX
    family: route through the intermediate that flips the higher differing
    bit first, then undo the first step.
    """
    diff = a ^ b
    if diff.bit_count() != 2 or (a | b) >> width:
        raise NotAdjacent(f"{a} and {b} must differ in exactly two of {width} bits")
    mid = a ^ (1 << (diff.bit_length() - 1))
    first = basis_swap(a, mid, width)
    return [first, basis_swap(mid, b, width), first]
