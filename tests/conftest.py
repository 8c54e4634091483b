"""Shared fixtures and independent oracles for the test suite."""

import cmath
import math
import numbers
from dataclasses import dataclass, field
from itertools import combinations, permutations
from operator import itemgetter

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from blockenc.assignment import hamming, submasks
from blockenc.errors import BadDimension, BadInput, BlockencError, EmptyMatrix
from blockenc.index_map import is_reducible
from blockenc.ingest import (OperationPlan, PlanItem, _alpha_weight, _components, _powers,
                             _signed_offset)
from blockenc.ir import Circuit, Cube, Gate, circuit_unitary, mcx, x


def reference_apply_gate(state: np.ndarray, gate: Gate, width: int) -> None:
    """Apply a gate in place to the rows of a matrix by fancy-index row swaps."""
    dim = 1 << width
    idx = np.arange(dim)
    mask, value = gate.controls
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
    """max |u^H u - I| of a dim x k input from the full complex product."""
    return float(np.abs(u.conj().T @ u - np.eye(u.shape[1])).max())


@dataclass(frozen=True)
class ReferenceMatrix:
    """Sorted (row, col, value) triples, checked one entry at a time."""

    n: int
    entries: tuple[tuple[int, int, complex], ...]

    def __post_init__(self):
        dim = 1 << self.n
        entries = []
        for e in self.entries:
            r, c, v = e
            if type(r) is not int or type(c) is not int or type(v) is not complex:
                if not (_reference_is_index(r) and _reference_is_index(c)):
                    raise BadInput(f"entry coordinates ({r!r}, {c!r}) must be integers")
                if not isinstance(v, numbers.Number):
                    raise BadInput(f"entry ({r}, {c}) value {v!r} is not a number")
                e = r, c, v = int(r), int(c), complex(v)
            if not (0 <= r < dim and 0 <= c < dim):
                raise BadInput(f"entry ({r}, {c}) outside a {dim}x{dim} matrix")
            if not cmath.isfinite(v):
                raise BadInput(f"entry ({r}, {c}) value {v} is not finite")
            entries.append(e)
        if not entries:
            raise BadInput("matrix needs at least one entry")
        entries.sort(key=itemgetter(0, 1))
        for a, b in zip(entries, entries[1:]):
            if a[0] == b[0] and a[1] == b[1]:
                raise BadInput(f"duplicate entry at ({a[0]}, {a[1]})")
        object.__setattr__(self, "entries", tuple(entries))

    @property
    def dim(self) -> int:
        return 1 << self.n


def _reference_is_index(i) -> bool:
    return isinstance(i, numbers.Integral) and not isinstance(i, bool)


def reference_matrix_from_dict(doc: dict) -> ReferenceMatrix:
    """Per-entry reading of a matrix document; any malformed field raises BadInput."""
    if not isinstance(doc, dict):
        raise BadInput(f"matrix document must be an object, got {type(doc).__name__}")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1 or dim & (dim - 1):
        raise BadDimension(f"dimension {dim!r} is not a power of two")
    raw = doc.get("entries", [])
    if not isinstance(raw, list):
        raise BadInput("matrix entries must be a list")
    entries = []
    try:
        for e in raw:
            re, im = e.get("re", 0.0), e.get("im", 0.0)
            if type(re) not in (int, float) or type(im) not in (int, float):
                raise BadInput(f"matrix entry {e!r} needs numeric re and im")
            entries.append((e["row"], e["col"], complex(re, im)))
    except (AttributeError, KeyError):
        raise BadInput(f"matrix entry {e!r} needs a row and a col") from None
    except OverflowError:
        raise BadInput(f"matrix entry value out of range: {re!r}, {im!r}") from None
    return ReferenceMatrix((dim - 1).bit_length(), tuple(entries))


class _ReferenceGroup:
    """One (offset, value) dictionary entry before component splitting."""

    def __init__(self, offset: int, value: complex, rows: list[int]):
        self.offset = offset
        self.value = value
        self.rows = sorted(rows)
        self.first_row = self.rows[0]


def _reference_collect_groups(matrix: ReferenceMatrix) -> list[_ReferenceGroup]:
    dim = matrix.dim
    by_key: dict[tuple[int, complex], list[int]] = {}
    for r, c, v in matrix.entries:
        if v == 0:
            continue
        by_key.setdefault(((c - r) % dim, v), []).append(r)
    if not by_key:
        raise EmptyMatrix("matrix has no nonzero entries")
    return [_ReferenceGroup(off, val, rows) for (off, val), rows in by_key.items()]


def _reference_diagonal_strategy(groups, strategy):
    diag = sorted((g for g in groups if g.offset == 0), key=lambda g: g.first_row)
    if len(diag) != 2:
        return groups, None
    g1, g2 = diag
    union = sorted(set(g1.rows) | set(g2.rows))
    candidates = {
        1: [(g1.value, g1.rows), (g2.value, g2.rows)],
        2: [(g2.value - g1.value, g2.rows), (g1.value, union)],
        3: [(g2.value, union), (g1.value - g2.value, g1.rows)],
    }
    if strategy == "auto":
        scores = {k: sum(_alpha_weight(v) for v, _ in c) for k, c in candidates.items()}
        choice = min(scores, key=lambda k: (scores[k], k))
    else:
        choice = int(strategy)
        if choice not in candidates:
            raise BadInput(f"unknown strategy {strategy!r}")
    rest = [g for g in groups if g.offset != 0]
    rest.extend(_ReferenceGroup(0, v, list(rows)) for v, rows in candidates[choice] if v != 0)
    return rest, choice


def _reference_shift_for(group, dim: int, n: int):
    o = group.offset
    if o == 0 or n == 0:
        return None, 0
    wrapped = [r for r in group.rows if r + o >= dim]
    if not wrapped:
        return "R", o
    if len(wrapped) == len(group.rows):
        return "L", dim - o
    return ("L", dim - o) if dim - o <= o else ("R", o)


def reference_analyze(matrix: ReferenceMatrix, strategy="auto") -> OperationPlan:
    """Plan built one entry and one row at a time, for parity with ``analyze``."""
    dim = matrix.dim
    groups = _reference_collect_groups(matrix)
    groups, chosen = _reference_diagonal_strategy(groups, strategy)
    records = []
    for g in groups:
        direction, amount = _reference_shift_for(g, dim, matrix.n)
        present = tuple(g.rows)
        n_absent = dim - len(present)
        if not n_absent:
            mode, delete_rows, insert_rows = "none", (), ()
        elif len(present) <= n_absent:
            mode, delete_rows, insert_rows = "insert", (), present
        else:
            rows = set(present)
            absent = tuple(r for r in range(dim) if r not in rows)
            mode, delete_rows, insert_rows = "delete", absent, ()
        for magnitude, ph, rank in _components(g.value):
            key = (_signed_offset(g.offset, dim), g.first_row, rank)
            records.append((key, magnitude, ph, direction, amount, mode,
                            delete_rows, insert_rows))
    records.sort(key=lambda rec: rec[0])
    if not records:
        raise EmptyMatrix("matrix has no nonzero entries")
    items = tuple(
        PlanItem(index=p, magnitude=magnitude, phase=ph, offset=key[0],
                 direction=direction, amount=amount, powers=_powers(amount), mode=mode,
                 delete_rows=delete_rows, insert_rows=insert_rows)
        for p, (key, magnitude, ph, direction, amount, mode,
                delete_rows, insert_rows) in enumerate(records))
    return OperationPlan(matrix.n, items, chosen)


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


class NotReducible(BlockencError):
    """Control set does not collapse to a single gate."""


class BadExpansion(BlockencError):
    """Invalid qubit choice when expanding a gate into a composition."""


def _place_controls(cube: Cube, P: int, target: int) -> Cube:
    """Lift a P-bit cube onto the P + 1 qubits around ``target``.

    The control labels map onto the non-target qubits in order, so a zero
    bit is inserted at the target's bit index ``P - target``.
    """
    tb = P - target
    low = (1 << tb) - 1
    return tuple(v >> tb << (tb + 1) | v & low for v in cube)


def control_gate(label: int, P: int, target: int) -> Gate:
    """MCX fully controlled on one P-bit label, over P + 1 qubits."""
    return mcx(_place_controls(((1 << P) - 1, label), P, target), target)


def reduce_composition(labels, P: int, target: int) -> Gate:
    """Single gate equal to the product of MCX(a, target) over the P-bit labels.

    The ambient circuit has P + 1 qubits; ``target`` is its qubit index and
    the control labels map onto the remaining qubits in order.  The cube
    comes from the compiler's ``is_reducible``.
    """
    cube = is_reducible(labels, P)
    if cube is None:
        raise NotReducible("control labels do not share a fixed sub-pattern")
    if not 0 <= target <= P:
        raise BadInput(f"target {target} outside the {P + 1}-qubit span")
    if not cube[0]:
        return x(target)
    return mcx(_place_controls(cube, P, target), target)


def expand_mcx(gate: Gate, width: int, grow) -> frozenset[int]:
    """Expand a single gate into the composition over the grown positions.

    ``gate`` is an MCX over ``width`` qubits (its target free of controls);
    ``grow`` lists bit indices that are currently uncontrolled and get
    enumerated.  Together with the target they must cover every free bit,
    so the result is a set of full control labels over the width - 1
    non-target qubits whose MCX product equals the original gate exactly.
    """
    mask, value = gate.controls
    target_bit = width - 1 - gate.target
    if mask >> target_bit & 1:
        raise BadExpansion("target qubit must be free of controls")
    if target_bit in grow:
        raise BadExpansion("cannot grow over the target qubit")
    grown = 0
    for b in grow:
        if not 0 <= b < width:
            raise BadExpansion(f"bit index {b} outside the {width} qubits")
        if mask >> b & 1:
            raise BadExpansion(f"bit {b} is already constrained")
        grown |= 1 << b
    if ((1 << width) - 1) & ~(mask | grown | 1 << target_bit):
        raise BadExpansion("free bits left outside grow")
    low = (1 << target_bit) - 1
    labels = set()
    for sub in submasks(grown):
        v = value | sub
        labels.add(v >> (target_bit + 1) << target_bit | v & low)  # target bit dropped
    return frozenset(labels)


def composition_unitary(labels, P: int, target: int) -> np.ndarray:
    """Ordered product of the individual fully-controlled X unitaries."""
    gates = tuple(control_gate(v, P, target) for v in sorted(labels))
    return circuit_unitary(Circuit(P + 1, gates))


@dataclass
class ReferenceRoutingPlan:
    """Swap schedule realizing a matching, with bookkeeping for stats."""

    width: int
    swaps: list[tuple[int, int]] = field(default_factory=list)
    hamming_bound: int = 0
    detour_steps: int = 0

    @property
    def gate_count(self) -> int:
        return len(self.swaps)


def _reference_bfs_path(start: int, goal: int, blocked: set[int],
                        bits: list[int]) -> list[int] | None:
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


def reference_route_permutation(pairs, width: int) -> ReferenceRoutingPlan:
    """The router with per-swap bookkeeping that ``permute.route_permutation`` replaced.

    ``pairs`` is a matching of width-bit labels; pairs with equal ends are
    settled states the route never borrows.  Sources are processed in
    ascending order of distance to target; the default path flips differing
    bits from most to least significant, detouring around settled states.
    """
    plan = ReferenceRoutingPlan(width=width)
    moves = {s: t for s, t in pairs if s != t}
    if not moves:
        return plan
    bits = [1 << b for b in range(width - 1, -1, -1)]  # most significant first
    plan.hamming_bound = sum(hamming(s, t) for s, t in moves.items())
    settled = {s for s, t in pairs if s == t}
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
                path = _reference_bfs_path(cur, goal, settled, bits)
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


def random_labels(rng: np.random.Generator, P: int, size: int) -> frozenset[int]:
    """``size`` distinct P-bit labels."""
    return frozenset(int(v) for v in rng.choice(1 << P, size=size, replace=False))


def permute_inverse(circuit: Circuit) -> Circuit:
    """Same gates in reverse order; composed with a swap circuit it is the identity."""
    return Circuit(circuit.n_qubits, tuple(reversed(circuit.gates)),
                   circuit.layout, -circuit.global_phase)


def dense(matrix) -> np.ndarray:
    """The matrix as a dense d x d array, for comparisons at small n."""
    a = np.zeros((matrix.dim, matrix.dim), dtype=complex)
    a[matrix.rows, matrix.cols] = matrix.values
    return a


def reconstruct(plan: OperationPlan) -> np.ndarray:
    """Dense matrix implied by the plan, on the rows the circuit acts on.

    An item covers every row in mode "none", every row but its delete rows
    in mode "delete", and its insert rows in mode "insert".
    """
    dim = 1 << plan.n
    out = np.zeros((dim, dim), dtype=complex)
    for item in plan.items:
        if item.mode == "insert":
            rows = item.insert_rows
        else:
            rows = sorted(set(range(dim)) - set(item.delete_rows))
        for r in rows:
            if item.direction == "L":
                c = (r - item.amount) % dim
            elif item.direction == "R":
                c = (r + item.amount) % dim
            else:
                c = r
            out[r, c] += item.phase * item.magnitude
    return out


def prep_target(items, phases) -> np.ndarray:
    """Reference statevector the forward oracle must produce."""
    amps = np.zeros(1 << (len(items) - 1).bit_length(), dtype=complex)
    amps[: len(items)] = np.sqrt(np.asarray(items) / sum(items)) * np.asarray(phases)
    return amps


def assert_permutation_matrix(u: np.ndarray):
    """Entries exactly 0/1, one per row and column."""
    assert np.all((u == 0) | (u == 1)), "entries must be exactly 0 or 1"
    assert np.all(u.sum(axis=0) == 1)
    assert np.all(u.sum(axis=1) == 1)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
