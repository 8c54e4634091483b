"""Cost-minimal mapping of an arbitrary control set onto a reducible one.

Given control labels that do not collapse to a single gate, pick fixed bit
positions (a mask), build the reducible target set that shares the most
frequent value on that mask, and match the leftover sources to leftover
targets with minimum total Hamming distance (a linear assignment problem).
All tie-breaking is deterministic and lexicographic.

Labels are ints and a label set is any iterable of distinct ints with its
width P passed alongside; a matching is a sorted tuple of (source, target)
pairs.  The Hamming cost matrix is the popcount of their XOR, held as lists
of Python ints.  One exact integer solver, ``linear_sum_assignment``, finds
an optimal matching by shortest augmenting paths and returns it with integer
dual potentials (u, v): u_j + v_k <= cost[j][k] everywhere, with equality on
the matching.  The lexicographic tie-break then fixes one source at a time
to the first target that still allows an optimal completion.  Every optimal
matching is tight under those duals, so the feasible targets are found by a
path search in the tight graph, and one solve serves the whole tie-break.
"""

from __future__ import annotations

from enum import Enum
from operator import sub

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


def linear_sum_assignment(cost: list[list[int]]) -> tuple[list[int], list[int], list[int]]:
    """Minimum-cost perfect matching of a square integer cost matrix.

    Returns ``(cols, u, v)``: row j takes column cols[j], and the integer
    duals satisfy u[j] + v[k] <= cost[j][k] for every pair, with equality on
    the matching, which proves it optimal.  In the manner of Jonker and
    Volgenant, v starts as the column minima and a greedy pass gives each
    row a free column of least reduced cost cost[j][k] - v[k].  Every
    matched row keeps that property, so u[j] is its assigned reduced cost.
    Each row left over is matched along one shortest augmenting path over
    the reduced costs (Dijkstra, all columns at the least distance scanned
    together), after which v is lowered on the columns the search finished
    so that the path is tight (Crouse, IEEE TAES 2016).
    """
    n = len(cost)
    v = [min(column) for column in zip(*cost)]
    cols = [-1] * n  # column of each row
    rows = [-1] * n  # row of each column
    for j, row in enumerate(cost):
        reduced = list(map(sub, row, v))
        least = min(reduced)
        for k in range(n):
            if rows[k] < 0 and reduced[k] == least:
                cols[j], rows[k] = k, j
                break
    for start in range(n):
        if cols[start] >= 0:
            continue
        dist = list(map(sub, cost[start], v))  # shortest path to each column
        via = [start] * n  # row before each column on that path
        todo = list(range(n))  # columns whose distance is not final yet
        done = []  # columns whose distance is final
        end = -1  # the free column the path reaches
        while end < 0:
            low = min([dist[k] for k in todo])
            scan = [k for k in todo if dist[k] == low]
            todo = [k for k in todo if dist[k] != low]
            for k in scan:  # scan grows by the columns its rows reach at low
                if rows[k] < 0:
                    end = k
                    break
                j = rows[k]
                row, base = cost[j], low - cost[j][k] + v[k]
                reached = []
                for c in todo:
                    d = base + row[c] - v[c]
                    if d < dist[c]:
                        dist[c], via[c] = d, j
                        if d == low:
                            reached.append(c)
                if reached:
                    scan += reached
                    todo = [c for c in todo if dist[c] != low]
            done += scan
        for c in done:  # a column at distance low keeps its potential
            v[c] += dist[c] - low
        k = end
        while True:  # flip the path from k back to the start row
            j = via[k]
            rows[k] = j
            cols[j], k = k, cols[j]
            if j == start:
                break
    u = [row[k] - v[k] for row, k in zip(cost, cols)]
    return cols, u, v


def _tie_break(cost: list[list[int]]) -> list[int]:
    """Lexicographically smallest optimal assignment of a square cost matrix.

    Row by row, the first free column from which the remaining rows can still
    be completed at the optimum is taken.  An optimal completion uses only
    columns tight under the solve's duals (u_j + v_k == cost[j][k]), so a
    perfect matching of the tight graph (rows >= j onto the free columns) is
    kept, starting from the solve's.  Row j can take a tight column k
    exactly when k leads back to j's own column t: the row holding k moves to
    another tight column, whose row moves on, and so on until one takes t.
    When a tight column comes before t, one backward breadth-first search
    from t finds every such k; the matching is then shifted along the path
    from the smallest one.  The tight graph is held as bitmasks, a row's
    tight columns and a column's tight rows.  Returns the column of each row.
    """
    n = len(cost)
    match, u, v = linear_sum_assignment(cost)
    owner = [0] * n  # row matched to each column
    for j, k in enumerate(match):
        owner[k] = j
    tight_cols = [0] * n
    tight_rows = [0] * n
    for j, row in enumerate(cost):
        for k, slack in enumerate(map(sub, row, v)):
            if slack == u[j]:
                tight_cols[j] |= 1 << k
                tight_rows[k] |= 1 << j
    free = (1 << n) - 1
    for j in range(n):
        t = match[j]
        options = tight_cols[j] & free
        if options & -options != 1 << t:
            toward = {t: t}  # next column on the way to t
            queue = [t]
            waiting = (1 << n) - (2 << j)  # rows after j not yet reached
            for y in queue:  # the rows that may take y, and the columns they hold
                movers = tight_rows[y] & waiting
                waiting ^= movers
                while movers:
                    x = match[(movers & -movers).bit_length() - 1]
                    movers &= movers - 1
                    toward[x] = y
                    queue.append(x)
            k = min(x for x in toward if options >> x & 1)
            path = [k]
            while path[-1] != t:
                path.append(toward[path[-1]])
            movers = [owner[x] for x in path[:-1]]
            for r, y in zip(movers, path[1:]):
                match[r], owner[y] = y, r
            match[j], owner[k] = k, j
        free ^= 1 << match[j]
    return match


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
        cols = _tie_break([[(s ^ t).bit_count() for t in residual_t] for s in residual_s])
        pairs += [(src, residual_t[k]) for src, k in zip(residual_s, cols)]
    return tuple(sorted(pairs))
