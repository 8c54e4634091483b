"""Shared fixtures and independent oracles for the test suite."""

import math
from itertools import combinations, permutations

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from blockenc.ir import Circuit, Gate, circuit_unitary, pattern_select
from blockenc.mcx import ControlSet


def reference_apply_gate(state: np.ndarray, gate: Gate, width: int) -> None:
    """Apply a gate in place to the rows of a matrix by fancy-index row swaps."""
    dim = 1 << width
    idx = np.arange(dim)
    mask, value = pattern_select(gate.pattern, width)
    matched = (idx & mask) == value
    tbit = 1 << (width - 1 - gate.target)
    if gate.kind in ("x", "mcx"):
        i0 = idx[matched & ((idx & tbit) == 0)]
        if len(i0) == 0:
            return
        i1 = i0 | tbit
        state[np.concatenate([i0, i1])] = state[np.concatenate([i1, i0])]
    elif gate.kind == "ry":
        i0 = idx[matched & ((idx & tbit) == 0)]
        i1 = i0 | tbit
        c, s = math.cos(gate.angle / 2), math.sin(gate.angle / 2)
        r0 = state[i0].copy()
        state[i0] = c * r0 - s * state[i1]
        state[i1] = s * r0 + c * state[i1]
    else:
        i1 = idx[matched & ((idx & tbit) != 0)]
        state[i1] = state[i1] * np.exp(1j * gate.angle)


def reference_circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Gate-by-gate dense unitary with one fancy-index update per gate."""
    u = np.eye(1 << circuit.n_qubits, dtype=complex)
    for g in circuit.gates:
        reference_apply_gate(u, g, circuit.n_qubits)
    if circuit.global_phase:
        u = u * np.exp(1j * circuit.global_phase)
    return u


def reference_unitarity_residual(u: np.ndarray) -> float:
    """max |u^H u - I| from the full dense product."""
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[0])).max())


def brute_force_assignment(sources, targets):
    """Exhaustive minimum Hamming-cost bijection over the residual sets."""
    sources = sorted(sources)
    targets = sorted(targets)
    common = set(sources) & set(targets)
    rs = [s for s in sources if s not in common]
    rt = [t for t in targets if t not in common]
    best = None
    for perm in permutations(rt):
        cost = sum(sum(a != b for a, b in zip(s, t)) for s, t in zip(rs, perm))
        if best is None or cost < best:
            best = cost
    return best or 0


def brute_force_unrestricted(sources, targets):
    """Minimum cost over all bijections, without forcing identity on overlaps."""
    sources = sorted(sources)
    best = None
    for perm in permutations(sorted(targets)):
        cost = sum(sum(a != b for a, b in zip(s, t)) for s, t in zip(sources, perm))
        if best is None or cost < best:
            best = cost
    return best


def brute_force_reducible(strings: set[str]) -> bool:
    """A set reduces iff some fixed positions + pattern generate exactly it."""
    P = len(next(iter(strings)))
    size = len(strings)
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError("size must be a power of two")
    from itertools import combinations, product
    for fixed in combinations(range(P), P - n):
        for bits in product("01", repeat=P - n):
            gen = set()
            free = [i for i in range(P) if i not in fixed]
            for fb in product("01", repeat=len(free)):
                chars = [""] * P
                for i, c in zip(fixed, bits):
                    chars[i] = c
                for i, c in zip(free, fb):
                    chars[i] = c
                gen.add("".join(chars))
            if gen == strings:
                return True
    return False


def reference_greedy_cubes(strings: list[str]) -> list[str]:
    """Disjoint cube cover on strings, largest cube first.

    For each free-position combination the remaining strings are grouped by
    their pattern with X on those positions.  The smallest pattern of a full
    group (2**f strings) at the largest f is taken and its strings dropped.
    """
    remaining = set(strings)
    width = len(strings[0])
    out = []
    while remaining:
        found = None
        for f in range(min(len(remaining).bit_length() - 1, width), -1, -1):
            cands = []
            for free in combinations(range(width), f):
                groups: dict[str, int] = {}
                for s in remaining:
                    key = "".join("X" if i in free else c for i, c in enumerate(s))
                    groups[key] = groups.get(key, 0) + 1
                cands.extend(k for k, cnt in groups.items() if cnt == (1 << f))
            if cands:
                found = min(cands)
                break
        out.append(found)
        remaining -= {s for s in remaining
                      if all(p in ("X", c) for c, p in zip(s, found))}
    return out


def reference_tie_break(cost: np.ndarray) -> list[int]:
    """Lexicographically smallest optimal assignment, one LSAP per candidate.

    Row j takes the first free column k for which an optimal completion of
    the remaining rows and columns still reaches the overall optimum.
    """
    def optimal(sub):
        if sub.size == 0:
            return 0
        r, c = linear_sum_assignment(sub)
        return int(sub[r, c].sum())

    n = cost.shape[0]
    base = optimal(cost)
    free = list(range(n))
    spent = 0
    out = []
    for j in range(n):
        for k in free:
            rest = cost[np.ix_(range(j + 1, n), [c for c in free if c != k])]
            if spent + cost[j, k] + optimal(rest) == base:
                out.append(k)
                spent += int(cost[j, k])
                free.remove(k)
                break
    return out


def reference_assignment(sources, targets) -> tuple[tuple[str, str], ...]:
    """Sorted (source, target) pairs, identity on the overlap.

    The rest are matched by ``reference_tie_break`` over string Hamming
    distances.
    """
    common = set(sources) & set(targets)
    rs = sorted(set(sources) - common)
    rt = sorted(set(targets) - common)
    pairs = [(s, s) for s in common]
    if rs:
        cost = np.array([[sum(a != b for a, b in zip(s, t)) for t in rt] for s in rs])
        pairs += [(s, rt[k]) for s, k in zip(rs, reference_tie_break(cost))]
    return tuple(sorted(pairs))


def as_strings(labels, width: int) -> set[str]:
    """Integer labels as width-character binary strings, the oracles' form."""
    return {format(v, f"0{width}b") for v in labels}


def composition_unitary(s2: ControlSet, target: int) -> np.ndarray:
    """Ordered product of the individual fully-controlled X unitaries."""
    from blockenc.ir import Circuit
    from blockenc.mcx import control_gate

    gates = tuple(control_gate(v, s2.P, target) for v in sorted(s2.labels))
    return circuit_unitary(Circuit(s2.P + 1, gates))


def random_control_set(rng: np.random.Generator, P: int, size: int) -> ControlSet:
    picks = rng.choice(1 << P, size=size, replace=False)
    return ControlSet(P, frozenset(int(v) for v in picks))


def assert_permutation_matrix(u: np.ndarray):
    """Entries exactly 0/1, one per row and column."""
    assert np.all((u == 0) | (u == 1)), "entries must be exactly 0 or 1"
    assert np.all(u.sum(axis=0) == 1)
    assert np.all(u.sum(axis=1) == 1)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
