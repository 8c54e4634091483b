"""Unitary amplitude reordering among computational basis states.

A single fully-controlled X exchanges exactly two basis states that differ in
one bit.  Chaining such swaps realizes an arbitrary bijection between two
sets of basis states while leaving every amplitude a pure relocation: the
resulting circuit is always a 0/1 permutation matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotAdjacent
from .assignment import Bijection, hamming
from .ir import Circuit, Gate, mcx


def basis_swap(a: str, b: str) -> Gate:
    """Gate exchanging the amplitudes of two states that differ in one bit."""
    diff = [i for i in range(len(a)) if a[i] != b[i]]
    if len(a) != len(b) or len(diff) != 1:
        raise NotAdjacent(f"{a!r} and {b!r} do not differ in exactly one position")
    target = diff[0]
    pattern = a[:target] + "X" + a[target + 1:]
    return mcx(pattern, target)


@dataclass
class RoutingPlan:
    """Swap schedule realizing a bijection, with bookkeeping for stats."""

    width: int
    swaps: list[tuple[str, str]] = field(default_factory=list)
    hamming_bound: int = 0
    detour_steps: int = 0

    @property
    def gate_count(self) -> int:
        return len(self.swaps)


def _flip(s: str, pos: int) -> str:
    return s[:pos] + ("1" if s[pos] == "0" else "0") + s[pos + 1:]


def _bfs_path(start: str, goal: str, blocked: set[str]) -> list[str] | None:
    """Shortest hypercube path avoiding blocked states (endpoints exempt)."""
    if start == goal:
        return [start]
    frontier = {start: None}
    parents: dict[str, str | None] = {start: None}
    while frontier:
        nxt = {}
        for s in sorted(frontier):
            for pos in range(len(s)):
                t = _flip(s, pos)
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
    moves = {s: t for s, t in phi.pairs if s != t}
    if not moves:
        return RoutingPlan(width=len(phi.pairs[0][0]) if phi.pairs else 0)
    width = len(next(iter(moves)))
    plan = RoutingPlan(width=width)
    plan.hamming_bound = sum(hamming(s, t) for s, t in moves.items())
    settled = {s for s, t in phi.pairs if s == t}
    pos = {s: s for s in moves}
    order = sorted(moves, key=lambda s: (hamming(s, moves[s]), s))

    def emit(a: str, b: str) -> None:
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
            diffs = [p for p in range(width) if cur[p] != goal[p]]
            occupied = set(pos.values())
            step = None
            for prefer_free in (True, False):
                for p in diffs:
                    cand = _flip(cur, p)
                    if cand in settled and cand != goal:
                        continue
                    if prefer_free and cand in occupied and cand != goal:
                        continue
                    step = cand
                    break
                if step is not None:
                    break
            if step is None:
                path = _bfs_path(cur, goal, settled)
                if path is not None:
                    plan.detour_steps += (len(path) - 1 - len(diffs)) // 2
                    for nxt in path[1:]:
                        emit(cur, nxt)
                        cur = nxt
                    continue
                # settled states disconnect the route: conjugate swaps along
                # the direct path restore every intermediate state
                path = [cur]
                for p in diffs:
                    path.append(_flip(path[-1], p))
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
    gates = tuple(basis_swap(a, b) for a, b in plan.swaps)
    return Circuit(plan.width, gates)


def permute_inverse(circuit: Circuit) -> Circuit:
    """Same swaps in reverse order; composition with the original is identity."""
    return Circuit(circuit.n_qubits, tuple(reversed(circuit.gates)),
                   circuit.layout, -circuit.global_phase)


def controlled_swap(a: str, b: str) -> list[Gate]:
    """Exchange two states differing in exactly two bits, as three MCX gates.

    Convenience equivalent of a fully controlled SWAP gate, kept in the MCX
    family: route through the intermediate that flips the higher differing
    bit first, then undo the first step.
    """
    diff = [i for i in range(len(a)) if a[i] != b[i]]
    if len(a) != len(b) or len(diff) != 2:
        raise NotAdjacent(f"{a!r} and {b!r} must differ in exactly two positions")
    mid = a[:diff[0]] + b[diff[0]] + a[diff[0] + 1:]
    first = basis_swap(a, mid)
    return [first, basis_swap(mid, b), first]
