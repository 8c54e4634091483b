"""Matrix ingestion: the columnar matrix form and the per-item operation plan.

A ``SparseMatrix`` holds its entries as three numpy arrays sorted by
(row, col): int64 ``rows`` and ``cols`` and complex128 ``values``.  Every
check on them (integer coordinates in range, finite values, at least one
entry, no duplicates) runs on whole arrays.  The dimension 2**n must itself
fit in an int64, so n is at most ``MAX_QUBITS`` = 62; a larger matrix is a
``BadInput``, never a wrapped label.

Entries are grouped by cyclic diagonal offset and by distinct complex value
along each offset, with one lexsort and a split into runs.  Every distinct
(offset, value) pair contributes one data item per nonzero real/imaginary
component.  The plan records, per item, its magnitude and unit phase
(+-1, +-i), the column shift realizing its offset and the rows where the item
must be deleted or inserted afterwards.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import BadInput
from .ir import instance

MAX_QUBITS = 62  # 2**62 is the largest power-of-two dimension an int64 holds


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Complex matrix of dimension 2**n in coordinate form.

    ``rows`` and ``cols`` (int64) and ``values`` (complex128) are read-only
    arrays sorted by (row, col).  The constructor takes any integer and
    numeric arrays and checks them; ``from_entries`` builds a matrix from
    ``(row, col, value)`` triples.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        n = self.n
        if not _is_index(type(n)) or not 0 <= n <= MAX_QUBITS:
            raise BadInput(f"matrix qubit count {n!r} outside 0..{MAX_QUBITS}")
        dim = 1 << int(n)
        rows, cols, values = (np.asarray(a) for a in (self.rows, self.cols, self.values))
        if not (rows.ndim == cols.ndim == values.ndim == 1
                and len(rows) == len(cols) == len(values)):
            raise BadInput("rows, cols and values must be 1-D arrays of one length")
        if not len(values):
            raise BadInput("matrix needs at least one entry")
        if rows.dtype.kind not in "iu" or cols.dtype.kind not in "iu":
            raise BadInput(f"entry coordinates must be integers, got {rows.dtype} "
                           f"and {cols.dtype}")
        if values.dtype.kind not in "iufc":
            raise BadInput(f"entry values must be numbers, got {values.dtype}")
        outside = (rows < 0) | (rows >= dim) | (cols < 0) | (cols >= dim)
        if outside.any():
            i = int(outside.argmax())
            raise BadInput(f"entry ({rows[i]}, {cols[i]}) outside a {dim}x{dim} matrix")
        values = values.astype(complex, copy=False)
        finite = np.isfinite(values)
        if not finite.all():
            i = int(finite.argmin())
            raise BadInput(f"entry ({rows[i]}, {cols[i]}) value {values[i]} is not finite")
        order = np.lexsort((cols, rows))
        rows = rows.astype(np.int64, copy=False)[order]
        cols = cols.astype(np.int64, copy=False)[order]
        values = values[order]
        same = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        if same.any():
            i = int(same.argmax())
            raise BadInput(f"duplicate entry at ({rows[i]}, {cols[i]})")
        object.__setattr__(self, "n", int(n))
        for name, a in (("rows", rows), ("cols", cols), ("values", values)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @classmethod
    def from_entries(cls, n: int, entries) -> SparseMatrix:
        """Matrix from ``(row, col, value)`` triples, e.g. ``((0, 0, 0.5 + 0j), ...)``.

        Coordinates must be integers (not bool) and values numbers; anything
        else is a BadInput, as in the constructor, and so is an entry that
        is not a triple.
        """
        try:  # an entry that is not iterable, or not of length three
            rows, cols, values = tuple(zip(*entries, strict=True)) or ((), (), ())
        except (TypeError, ValueError):
            raise BadInput("matrix entries must be (row, col, value) triples") from None
        return cls(n, _array(rows, np.int64, _is_index, "row"),
                   _array(cols, np.int64, _is_index, "col"),
                   _array(values, complex, _is_number, "value"))

    @property
    def dim(self) -> int:
        return 1 << self.n

    def __eq__(self, other):
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (self.n == other.n and np.array_equal(self.rows, other.rows)
                and np.array_equal(self.cols, other.cols)
                and np.array_equal(self.values, other.values))


def _is_index(t: type) -> bool:
    return issubclass(t, numbers.Integral) and t is not bool


def _is_number(t: type) -> bool:
    return issubclass(t, numbers.Number) and t is not bool


def _is_json_number(t: type) -> bool:
    return t is int or t is float


def _array(seq, dtype, accepts, what: str) -> np.ndarray:
    """``seq`` as a numpy array, once every element type passes ``accepts``."""
    for t in set(map(type, seq)):
        if not accepts(t):
            raise BadInput(f"matrix entry {what} of type {t.__name__} is not allowed")
    try:
        return np.fromiter(seq, dtype=dtype, count=len(seq))
    except OverflowError:
        raise BadInput(f"matrix entry {what} out of range") from None


def matrix_from_dict(doc: dict) -> SparseMatrix:
    """Matrix from its JSON document; any malformed field raises BadInput."""
    if not isinstance(doc, dict):
        raise BadInput(f"matrix document must be an object, got {type(doc).__name__}")
    dim = doc.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1 or dim & (dim - 1):
        raise BadInput(f"dimension {dim!r} is not a power of two")
    if dim > 1 << MAX_QUBITS:
        raise BadInput(f"dimension {dim} is above 2**{MAX_QUBITS}, the int64 label limit")
    raw = doc.get("entries", [])
    if not isinstance(raw, list):
        raise BadInput("matrix entries must be a list")
    try:
        rows = [e["row"] for e in raw]
        cols = [e["col"] for e in raw]
        re = [e.get("re", 0.0) for e in raw]
        im = [e.get("im", 0.0) for e in raw]
    except (AttributeError, KeyError, TypeError):
        raise BadInput("every matrix entry must be an object with a row and a col") from None
    values = np.empty(len(raw), dtype=complex)
    values.real = _array(re, float, _is_json_number, "re")
    values.imag = _array(im, float, _is_json_number, "im")
    return SparseMatrix(dim.bit_length() - 1, _array(rows, np.int64, _is_index, "row"),
                        _array(cols, np.int64, _is_index, "col"), values)


def matrix_to_dict(matrix: SparseMatrix) -> dict:
    instance(matrix, SparseMatrix, "matrix")
    fields = (matrix.rows.tolist(), matrix.cols.tolist(),
              matrix.values.real.tolist(), matrix.values.imag.tolist())
    return {
        "dim": matrix.dim,
        "entries": [{"row": r, "col": c, "re": re, "im": im}
                    for r, c, re, im in zip(*fields)],
    }


def load_matrix(path: str | Path) -> SparseMatrix:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError
        raise BadInput(f"cannot read matrix file {path}: {exc}") from exc
    return matrix_from_dict(doc)


def save_matrix(matrix: SparseMatrix, path: str | Path) -> None:
    try:
        Path(path).write_text(json.dumps(matrix_to_dict(matrix), indent=2) + "\n")
    except OSError as exc:
        raise BadInput(f"cannot write matrix file {path}: {exc}") from exc


class PlanItem(NamedTuple):
    """Shift / delete / insert schedule for one data item."""

    index: int                 # also the m-bit label of the item slot
    magnitude: float
    phase: complex
    offset: int                # signed column offset the shift realizes
    direction: str | None      # "L" | "R" | None for the main diagonal
    amount: int
    powers: tuple[int, ...]    # binary decomposition of amount, ascending
    mode: str                  # "delete" | "insert" | "none"
    delete_rows: tuple[int, ...]
    insert_rows: tuple[int, ...]


@dataclass(frozen=True)
class OperationPlan:
    n: int
    items: tuple[PlanItem, ...]
    strategy: int | None = None  # repeated-main-diagonal encoding choice


class _Group(NamedTuple):
    """One (offset, value) run of entries before component splitting."""

    offset: int
    value: complex
    rows: np.ndarray  # ascending int64, never empty
    first: int  # rows[0]
    wrapped: int  # rows r with r + offset >= dim; 0 on the main diagonal


def _signed_offset(cyclic: int, dim: int) -> int:
    return cyclic if cyclic <= dim // 2 else cyclic - dim


def _collect_groups(matrix: SparseMatrix) -> list[_Group]:
    """Nonzero entries split into runs of equal (cyclic offset, value).

    One lexsort on (offset, re, im, row) puts each group's rows together in
    ascending order; ``+ 0.0`` folds -0.0 into 0.0, so values equal as
    complex numbers share a group.  A group keeps the value at its first row.
    The first rows and the wrapped counts of all groups are taken at once,
    not by numpy calls per group: a group's rows ascend, so the rows that
    wrap (r + offset >= dim) are a suffix of them, all of them when the first
    row wraps and none unless the last does.  Only a group that straddles
    the edge is searched, as a band does; a random matrix has none.
    """
    nonzero = matrix.values != 0
    if not nonzero.any():
        raise BadInput("matrix has no nonzero entries")
    rows, values = matrix.rows[nonzero], matrix.values[nonzero]
    off = (matrix.cols[nonzero] - rows) & (matrix.dim - 1)
    re, im = values.real + 0.0, values.imag + 0.0
    order = np.lexsort((rows, im, re, off))
    rows, values, off, re, im = (a[order] for a in (rows, values, off, re, im))
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (off[1:] != off[:-1]) | (re[1:] != re[:-1]) | (im[1:] != im[:-1])
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], len(rows))
    first, edge = rows[starts], matrix.dim - off[starts]  # rows from edge on wrap
    wrapped = np.where(first >= edge, ends - starts, 0)
    for i in np.flatnonzero((first < edge) & (rows[ends - 1] >= edge)).tolist():
        a, b = starts[i], ends[i]
        wrapped[i] = b - a - np.searchsorted(rows[a:b], edge[i])
    return [_Group(o, v, rows[a:b], r, w) for o, v, r, w, a, b in
            zip(off[starts].tolist(), values[starts].tolist(), first.tolist(),
                wrapped.tolist(), starts.tolist(), ends.tolist())]


def _alpha_weight(value: complex) -> float:
    return abs(value.real) + abs(value.imag)


def _apply_diagonal_strategy(groups: list[_Group],
                             strategy: str | int) -> tuple[list[_Group], int | None]:
    """Re-encode two distinct main-diagonal values to shrink the item weight.

    Three encodings exist: keep both values with complementary deletions, or
    encode one difference plus the value covering the union of rows.  The one
    minimizing the summed magnitude contribution wins, earliest on ties.
    """
    diag = sorted((g for g in groups if g.offset == 0), key=lambda g: g.first)
    if len(diag) != 2:
        return groups, None
    g1, g2 = diag
    union = np.union1d(g1.rows, g2.rows)
    candidates = {
        1: [(g1.value, g1.rows), (g2.value, g2.rows)],
        2: [(g2.value - g1.value, g2.rows), (g1.value, union)],
        3: [(g2.value, union), (g1.value - g2.value, g1.rows)],
    }
    if strategy == "auto":
        scores = {k: sum(_alpha_weight(v) for v, _ in c) for k, c in candidates.items()}
        choice = min(scores, key=lambda k: (scores[k], k))
    else:
        choice = strategy
    rest = [g for g in groups if g.offset != 0]
    rest.extend(_Group(0, v, rows, int(rows[0]), 0) for v, rows in candidates[choice] if v != 0)
    return rest, choice


def _shift_for(group: _Group, dim: int) -> tuple[str | None, int]:
    """Direction and amount moving the main diagonal onto this group's offset."""
    o, wrapped = group.offset, group.wrapped
    if o == 0:
        return None, 0
    if not wrapped:           # every entry above the diagonal
        return "R", o
    if wrapped == len(group.rows):  # every entry below the diagonal
        return "L", dim - o
    # genuinely cyclic band: shorter direction, left on ties
    return ("L", dim - o) if dim - o <= o else ("R", o)


def _powers(amount: int) -> tuple[int, ...]:
    return tuple(1 << b for b in range(amount.bit_length()) if amount >> b & 1)


def _components(value: complex):
    """(magnitude, unit phase, rank) per nonzero real/imaginary part."""
    out = []
    if value.real != 0:
        out.append((abs(value.real), complex(1.0 if value.real > 0 else -1.0), 0))
    if value.imag != 0:
        out.append((abs(value.imag), 1j if value.imag > 0 else -1j, 1))
    return out


def analyze(matrix: SparseMatrix, strategy: str | int = "auto") -> OperationPlan:
    """Shared extraction + planning pass; deterministic item ordering.

    ``strategy`` is ``"auto"`` or one of the integers 1, 2, 3 (see
    ``_apply_diagonal_strategy``); anything else is ``BadInput``.
    """
    instance(matrix, SparseMatrix, "matrix")
    if type(strategy) not in (str, int) or strategy not in ("auto", 1, 2, 3):
        raise BadInput(f"strategy must be 'auto', 1, 2 or 3, got {strategy!r}")
    dim = matrix.dim
    groups = _collect_groups(matrix)
    groups, chosen = _apply_diagonal_strategy(groups, strategy)
    records = []  # (sort key, PlanItem fields after the index)
    for g in groups:
        direction, amount = _shift_for(g, dim)
        n_absent = dim - len(g.rows)
        if not n_absent:
            mode, delete_rows, insert_rows = "none", (), ()
        elif len(g.rows) <= n_absent:
            mode, delete_rows, insert_rows = "insert", (), tuple(g.rows.tolist())
        else:  # fewer absent rows than present ones, so this is O(nnz)
            absent = np.ones(dim, dtype=bool)
            absent[g.rows] = False
            delete_rows = tuple(np.flatnonzero(absent).tolist())
            mode, insert_rows = "delete", ()
        offset, powers = _signed_offset(g.offset, dim), _powers(amount)
        for magnitude, ph, rank in _components(g.value):
            records.append(((offset, g.first, rank),
                            (magnitude, ph, offset, direction, amount, powers, mode,
                             delete_rows, insert_rows)))
    records.sort(key=itemgetter(0))  # stable: equal keys keep group order
    items = tuple(PlanItem(p, *fields) for p, (_, fields) in enumerate(records))
    return OperationPlan(matrix.n, items, chosen)
