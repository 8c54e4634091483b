"""Cost-minimal mapping of an arbitrary control set onto a reducible one.

Given control labels that do not collapse to a single gate, pick fixed bit
positions (a mask), build the reducible target set that shares the most
frequent value on that mask, and match the leftover sources to leftover
targets with minimum total Hamming distance (a linear assignment problem).
All tie-breaking is deterministic and lexicographic.

Labels are ints and a label set is any iterable of distinct ints with its
width P passed alongside; a matching is a sorted tuple of (source, target)
pairs.  The Hamming cost matrix is the popcount of their XOR.  The
lexicographic tie-break fixes one source at a time to the first target that
still allows an optimal completion.  Under the dual potentials of the first
solve, such completions use only tight (source, target) pairs, so the
feasible targets are found by a path search in that tight graph.  It returns
the same matching as trying every target with one LSAP each, and solves one
LSAP in all.
"""

from __future__ import annotations

from enum import Enum

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import BadInput

Pairs = tuple[tuple[int, int], ...]  # (source, target), sorted by source


def submasks(mask: int):
    """Every submask of ``mask``, ascending."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def hamming(a: int, b: int) -> int:
    """Number of differing bits between two basis labels."""
    return (a ^ b).bit_count()


class FixedIndexPolicy(Enum):
    """Which end of a P-bit label holds the fixed bits of a fused gate's cube.

    The member's value is its command-line word, so ``FixedIndexPolicy("left")``
    is ``LEFT_ENDED``.
    """

    RIGHT_ENDED = "right"  # the low bits
    LEFT_ENDED = "left"  # the high bits

    def resolve(self, P: int, set_size: int) -> int:
        """Mask of the bits to hold fixed for a size-2^n set over P bits."""
        if set_size & (set_size - 1) or set_size == 0:
            raise BadInput(f"set size {set_size} is not a power of two")
        n_free = set_size.bit_length() - 1
        count = P - n_free
        if count < 0:
            raise BadInput("set larger than the full space")
        if self is FixedIndexPolicy.RIGHT_ENDED:
            return (1 << count) - 1
        return ((1 << count) - 1) << n_free


def mode_pattern(labels, mask: int) -> int:
    """Most frequent value of ``label & mask`` over the labels, smallest on ties."""
    counts: dict[int, int] = {}
    for v in labels:
        counts[v & mask] = counts.get(v & mask, 0) + 1
    best = max(counts.values())
    return min(k for k, c in counts.items() if c == best)


def build_target_set(mask: int, value: int, P: int) -> list[int]:
    """The P-bit labels of the cube (mask, value), ascending; always reducible."""
    full = (1 << P) - 1
    if mask & ~full or value & ~mask:
        raise BadInput(f"value {value} must lie inside the mask {mask} of {P} bits")
    return [value | sub for sub in submasks(full ^ mask)]


def _hamming_matrix(sources: list[int], targets: list[int], width: int) -> np.ndarray:
    """Pairwise Hamming distances: XOR of the labels, then popcount."""
    diff = np.array(sources, dtype=np.int64)[:, None] ^ np.array(targets, dtype=np.int64)
    cost = np.zeros(diff.shape, dtype=np.int64)
    for _ in range(width):
        cost += diff & 1
        diff >>= 1
    return cost


def _dual_potentials(cost: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal LP duals (u, v) for the optimal assignment row j -> cols[j].

    Column potentials are shortest-path distances (Bellman-Ford, integer) in
    the graph with an edge cols[j] -> k of weight cost[j, k] - cost[j, cols[j]],
    which has no negative cycle because the assignment is optimal; then
    u_j + v_k <= cost[j, k] everywhere, with equality on the assignment.
    """
    n = cost.shape[0]
    assigned = cost[np.arange(n), cols]
    weight = cost - assigned[:, None]
    v = np.zeros(n, dtype=cost.dtype)
    for _ in range(n):
        relaxed = np.minimum(v, (v[cols][:, None] + weight).min(axis=0))
        if np.array_equal(relaxed, v):
            break
        v = relaxed
    return assigned - v[cols], v


def _tie_break(cost: np.ndarray) -> list[int]:
    """Lexicographically smallest optimal assignment of a square cost matrix.

    Row by row, the first free column from which the remaining rows can still
    be completed at the optimum is taken.  An optimal completion uses only
    columns tight under the first solve's duals (u_j + v_k == cost[j, k]), so
    a perfect matching of the tight graph (rows >= j onto the free columns)
    is kept, starting from the first solve.  Row j can take a tight column k
    exactly when k leads back to j's own column t: the row holding k moves to
    another tight column, whose row moves on, and so on until one takes t.
    When a tight column comes before t, one breadth-first pass from t finds
    every such k; the matching is then shifted along the path from the
    smallest one.  Returns the column of each row.
    """
    n = cost.shape[0]
    rows, match = linear_sum_assignment(cost)
    u, v = _dual_potentials(cost, match)
    tight = u[:, None] + v[None, :] == cost
    owner = np.empty(n, dtype=np.intp)  # row matched to each column
    owner[match] = rows
    free = np.ones(n, dtype=bool)
    for j in range(n):
        t = match[j]
        if np.flatnonzero(tight[j] & free)[0] != t:
            moves = tight[owner] & free  # moves[x, y]: the row holding x may take y
            level = np.full(n, -1)  # steps from column t, -1 if it cannot reach t
            level[t] = 0
            while True:
                d = level.max()
                reached = free & (level < 0) & moves[:, level == d].any(axis=1)
                if not reached.any():
                    break
                level[reached] = d + 1
            path = [int(np.flatnonzero(tight[j] & (level >= 0))[0])]
            while path[-1] != t:
                x = path[-1]
                path.append(int(np.flatnonzero(moves[x] & (level == level[x] - 1))[0]))
            movers = owner[path[:-1]]
            match[movers] = path[1:]
            owner[path[1:]] = movers
            match[j] = path[0]
            owner[path[0]] = j
        free[match[j]] = False
    return [int(k) for k in match]


def solve_assignment(sources, targets, P: int) -> Pairs:
    """Minimum-Hamming-cost matching of the P-bit sources onto the targets.

    Shared labels map to themselves; the rest is solved as a linear
    assignment problem.  Among cost-optimal solutions the one minimal under
    lexicographic ordering of (source, target) pairs is returned.
    """
    sources, targets = set(sources), set(targets)
    if len(sources) != len(targets) or any(v >> P for v in sources | targets):
        raise BadInput(f"source and target sets must have equal size and {P}-bit labels")
    common = sources & targets
    residual_s = sorted(sources - common)
    residual_t = sorted(targets - common)
    pairs = [(s, s) for s in common]
    if residual_s:
        cols = _tie_break(_hamming_matrix(residual_s, residual_t, P))
        pairs += [(src, residual_t[k]) for src, k in zip(residual_s, cols)]
    return tuple(sorted(pairs))
