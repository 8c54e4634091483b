"""Cost-minimal mapping of an arbitrary control set onto a reducible one.

Given control labels that do not collapse to a single gate, pick fixed bit
positions (a mask), build the reducible target set that shares the most
frequent value on that mask, and match the leftover sources to leftover
targets with minimum total Hamming distance (a linear assignment problem).
All tie-breaking is deterministic and lexicographic.

Labels are ints and a label set is any iterable of distinct ints with its
width P passed alongside; ``sorted_labels`` is the one rule for both, which
every entry of the fusion layer that takes labels or a label width applies
(see its docstring).  A matching is a sorted tuple of (source, target)
pairs.  The Hamming cost matrix is the popcount of their XOR, taken by
numpy on the labels as uint64, so ``label_width`` holds every width to 64.
One exact integer solver, ``linear_sum_assignment``, returns the
lexicographically smallest optimal matching with the integer dual
potentials that prove it optimal; its docstring describes both of its
phases.
"""

from __future__ import annotations

from collections.abc import Iterable
from enum import Enum

import numpy as np

from .errors import BadInput
from .ir import instance, integer

Pairs = tuple[tuple[int, int], ...]  # (source, target), sorted by source
_BITS = 1 << np.arange(62, dtype=np.int64)  # the columns one int64 word of a bitmask holds


def submasks(mask: int):
    """Every submask of ``mask``, ascending."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def label_width(width, what: str = "label width P") -> int:
    """``width`` as an int, or BadInput naming ``what`` unless it is an integer
    from 0 to 64: a label is at most 64 bits, as the Hamming cost takes the
    labels as uint64."""
    width = integer(width, what)
    if not 0 <= width <= 64:
        raise BadInput(f"{what} must be in 0 .. 64, got {width}")
    return width


def sorted_labels(labels, width, what: str) -> list[int]:
    """The labels as ints, ascending: the one rule for a label set.

    The width must be an integer from 0 to 64 (``label_width``), and the labels
    distinct integers in 0 .. 2**width - 1, bools refused and numpy integers
    taken as ints; anything else is BadInput naming ``what``.
    """
    width = label_width(width)
    try:
        labels = sorted(labels)
    except (TypeError, ValueError):
        raise BadInput(f"{what} must be an iterable of integers, got {labels!r}") from None
    for v in labels:
        if type(v) is not int:  # numpy integers, or not integers at all
            labels = [integer(v, what) for v in labels]
            break
    if labels and (labels[0] < 0 or labels[-1] >> width):
        raise BadInput(f"{what} must lie in 0 .. 2**{width} - 1")
    if len(set(labels)) < len(labels):
        again = next(a for a, b in zip(labels, labels[1:]) if a == b)
        raise BadInput(f"{what} must be distinct, but {again} repeats")
    return labels


def hamming(a: int, b: int) -> int:
    """Number of differing bits between two basis labels."""
    return (integer(a, "label") ^ integer(b, "label")).bit_count()


class FixedIndexPolicy(Enum):
    """Which end of a P-bit label holds the fixed bits of a fused gate's cube.

    The member's value is its command-line word, so ``FixedIndexPolicy("left")``
    is ``LEFT_ENDED``.
    """

    RIGHT_ENDED = "right"  # the low bits
    LEFT_ENDED = "left"  # the high bits

    def resolve(self, P: int, set_size: int) -> int:
        """Mask of the bits to hold fixed for a size-2^n set over P bits."""
        P, set_size = label_width(P), integer(set_size, "set size")
        if set_size & (set_size - 1) or set_size == 0:
            raise BadInput(f"set size {set_size} is not a power of two")
        n_free = set_size.bit_length() - 1
        count = P - n_free
        if count < 0:
            raise BadInput("set larger than the full space")
        if self is FixedIndexPolicy.RIGHT_ENDED:
            return (1 << count) - 1
        return ((1 << count) - 1) << n_free


def fixed_policy(policy, what: str = "policy") -> FixedIndexPolicy:
    """``policy`` as a ``FixedIndexPolicy``, from a member or its word, right or
    left; anything else is BadInput naming ``what``."""
    try:
        return FixedIndexPolicy(policy)
    except ValueError:
        raise BadInput(f"{what} must be right or left, got {policy!r}") from None


def mode_pattern(labels, mask: int) -> int:
    """Most frequent value of ``label & mask`` over the labels, smallest on ties.

    The mask is an integer >= 0 and the labels an iterable of integers;
    anything else is BadInput naming the argument.
    """
    if integer(mask, "mask") < 0:
        raise BadInput(f"mask must be >= 0, got {mask}")
    counts: dict[int, int] = {}
    for v in instance(labels, Iterable, "labels"):
        key = integer(v, "label") & mask
        counts[key] = counts.get(key, 0) + 1
    if not counts:
        raise BadInput("labels must hold at least one label")
    best = max(counts.values())
    return min(k for k, c in counts.items() if c == best)


def build_target_set(mask: int, value: int, P: int) -> list[int]:
    """The P-bit labels of the cube (mask, value), ascending; always reducible."""
    full = (1 << label_width(P)) - 1
    if integer(mask, "mask") & ~full or integer(value, "value") & ~mask:
        raise BadInput(f"value {value} must lie inside the mask {mask} of {P} bits")
    return [value | sub for sub in submasks(full ^ mask)]


def _bitmasks(flags: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int, with bit k set where column k is."""
    n_cols = flags.shape[1]
    masks = (flags[:, :62] @ _BITS[:n_cols]).tolist()
    for i in range(62, n_cols, 62):
        word = (flags[:, i:i + 62] @ _BITS[:n_cols - i]).tolist()
        masks = [mask | w << i for mask, w in zip(masks, word)]
    return masks


def linear_sum_assignment(cost) -> tuple[list[int], list[int], list[int]]:
    """Lexicographically smallest minimum-cost perfect matching of a square
    integer cost matrix.

    Returns ``(cols, u, v)``: row j takes column cols[j], and the integer
    duals satisfy u[j] + v[k] <= cost[j][k] for every pair, with equality on
    the matching, which proves it optimal; among the optimal matchings cols
    is the smallest as a sequence.  Both phases work on the tight graph, the
    edges of zero slack cost[j][k] - u[j] - v[k], held as bitmasks: each
    row's tight columns, and for the second phase each column's tight rows.

    The first phase is the Hungarian method.  v starts as the column minima
    and u as the row minima of cost - v.  Each row in turn grows a tree of
    tight edges and matched ones, breadth first, until it reaches a free
    column, its own first free tight column if it has one, and the matching
    is flipped along the path there.  When the tree stops short, u
    rises on its rows and v falls on its columns by the least slack between
    its rows and the other columns: the tree and the matching stay tight and
    at least one edge out of the tree becomes tight.

    The second phase, the tie-break, gives each row in turn the first
    column from which the rows after it can still be completed at the
    optimum.  Every optimal matching is tight under the final duals, so the
    duals stay fixed and the phase keeps a perfect matching of the tight
    graph, starting from the first phase's.  Row j can take a tight column k
    exactly when k leads back to j's own column t: the row holding k moves
    to another tight column, whose row moves on, and so on until one takes
    t.  One backward breadth-first search from t finds every such k, and the
    matching shifts along the path from the smallest.

    ``cost`` is nested lists or an array of integers, held as int64; any
    other shape or dtype is ``BadInput``, and a 0 x 0 matrix gives three
    empty lists.  With lo and hi the least and the greatest entry and
    R = hi - lo, u stays in [0, R]: while a row is unmatched some column k
    is free, its v is still the column minimum, and so u[j] <= cost[j][k] -
    v[k] <= R.  A matched edge is tight, so v stays in [lo - R, hi] and
    every slack in [0, 2R], dipping to -2R inside a dual step.  A matrix
    with hi >= 2^63, 2R >= 2^63 or lo - R < -2^63 could wrap in int64 and
    is ``BadInput``.
    """
    try:
        given = np.asarray(cost)
    except ValueError:  # ragged rows
        raise BadInput("cost matrix rows differ in length") from None
    if given.shape in ((0,), (0, 0)):
        return [], [], []
    n = len(given)
    if given.shape != (n, n) or given.dtype.kind not in "iu":
        raise BadInput(f"cost must be a square integer matrix, not {given.dtype} {given.shape}")
    lo, hi = int(given.min()), int(given.max())
    if hi >= 1 << 63 or 2 * (hi - lo) >= 1 << 63 or 2 * lo - hi < -1 << 63:
        raise BadInput(f"cost entries from {lo} to {hi} could carry a dual or a slack "
                       "past int64")
    slack = given.astype(np.int64)
    v = slack.min(axis=0)
    slack -= v
    u = slack.min(axis=1)
    slack -= u[:, None]
    tight = _bitmasks(slack == 0)  # current throughout: only a dual step changes slack
    cols = [-1] * n  # column of each row
    rows = [-1] * n  # row of each column
    via = [-1] * n  # tree row before each column
    for start in range(n):
        tree, tree_cols, seen = [start], [], 0  # seen: tree_cols as a bitmask
        end = -1  # the free column the tree reaches
        while end < 0:
            for j in tree:  # the tree grows while it is walked
                new = tight[j] & ~seen
                seen |= new
                while new:
                    k = (new & -new).bit_length() - 1
                    new &= new - 1
                    via[k] = j
                    if rows[k] < 0:
                        end = k
                        break
                    tree_cols.append(k)
                    tree.append(rows[k])
                if end >= 0:
                    break
            if end < 0:  # the tree stops short: move the duals
                rows_in, cols_in = np.array(tree), np.array(tree_cols, dtype=np.intp)
                outside = np.ones(n, bool)
                outside[cols_in] = False
                near = slack[rows_in]
                delta = near[:, outside].min()
                slack[rows_in] = near - delta
                slack[:, cols_in] += delta
                u[rows_in] += delta
                v[cols_in] -= delta
                tight = _bitmasks(slack == 0)
        k = end
        while True:  # flip the path from k back to the start row
            j = via[k]
            rows[k] = j
            cols[j], k = k, cols[j]
            if j == start:
                break
    tight_rows = _bitmasks((slack == 0).T)
    free = (1 << n) - 1  # columns no row before j holds
    for j in range(n):
        t = cols[j]
        options = tight[j] & free
        if options & -options != 1 << t:
            toward = {t: t}  # next column on the way to t
            queue = [t]
            waiting = (1 << n) - (2 << j)  # rows after j not yet reached
            for y in queue:  # the rows that may take y, and the columns they hold
                movers = tight_rows[y] & waiting
                waiting ^= movers
                while movers:
                    x = cols[(movers & -movers).bit_length() - 1]
                    movers &= movers - 1
                    toward[x] = y
                    queue.append(x)
            k, r = min(x for x in toward if options >> x & 1), j
            while k != t:  # r takes k, and the row that held k moves on toward t
                cols[r], rows[k], r = k, r, rows[k]
                k = toward[k]
            cols[r], rows[t] = t, r
        free ^= 1 << cols[j]
    return cols, u.tolist(), v.tolist()


def solve_assignment(sources, targets, P: int) -> Pairs:
    """Minimum-Hamming-cost matching of the P-bit sources onto the targets.

    Shared labels map to themselves; the rest is solved as a linear
    assignment problem.  Among cost-optimal solutions the one minimal under
    lexicographic ordering of (source, target) pairs is returned.
    """
    sources, targets = sorted_labels(sources, P, "sources"), sorted_labels(targets, P, "targets")
    if len(sources) != len(targets):
        raise BadInput(f"{len(sources)} sources for {len(targets)} targets")
    common = set(sources).intersection(targets)
    residual_s = [v for v in sources if v not in common]
    residual_t = [v for v in targets if v not in common]
    xor = np.array(residual_s, np.uint64)[:, None] ^ np.array(residual_t, np.uint64)
    cols = linear_sum_assignment(np.bitwise_count(xor))[0]
    pairs = [(s, s) for s in common] + [(src, residual_t[k]) for src, k in zip(residual_s, cols)]
    return tuple(sorted(pairs))
