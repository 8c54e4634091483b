"""Matrix ingestion: dictionary extraction and the per-item operation plan.

Entries are grouped by cyclic diagonal offset and by distinct complex value
along each offset.  Every distinct (offset, value) pair contributes one data
item per nonzero real/imaginary component; the item magnitudes form the data
vector and their unit phases (+-1, +-i) the sign vector.  The plan records,
per item, the column shift realizing its offset and the rows where the item
must be deleted or inserted afterwards.
"""

from __future__ import annotations

import cmath
import json
import numbers
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import BadDimension, BadInput, EmptyMatrix


@dataclass(frozen=True)
class SparseMatrix:
    """Coordinate-form complex matrix of dimension 2**n."""

    n: int
    entries: tuple[tuple[int, int, complex], ...]

    def __post_init__(self):
        dim = 1 << self.n
        entries = []
        for e in self.entries:
            r, c, v = e
            if type(r) is not int or type(c) is not int or type(v) is not complex:
                if not (_is_index(r) and _is_index(c)):
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

    def dense(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim), dtype=complex)
        for r, c, v in self.entries:
            a[r, c] = v
        return a


def _is_index(i) -> bool:
    return isinstance(i, numbers.Integral) and not isinstance(i, bool)


def matrix_from_dict(doc: dict) -> SparseMatrix:
    """Matrix from its JSON document; any malformed field raises BadInput."""
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
    return SparseMatrix((dim - 1).bit_length(), tuple(entries))


def matrix_to_dict(matrix: SparseMatrix) -> dict:
    return {
        "dim": matrix.dim,
        "entries": [{"row": r, "col": c, "re": v.real, "im": v.imag}
                    for r, c, v in matrix.entries],
    }


def load_matrix(path: str | Path) -> SparseMatrix:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError
        raise BadInput(f"cannot read matrix file {path}: {exc}") from exc
    return matrix_from_dict(doc)


def save_matrix(matrix: SparseMatrix, path: str | Path) -> None:
    Path(path).write_text(json.dumps(matrix_to_dict(matrix), indent=2) + "\n")


@dataclass(frozen=True)
class DataVector:
    """Positive item magnitudes, padded to 2**m slots for state preparation."""

    items: tuple[float, ...]

    @property
    def s(self) -> int:
        return len(self.items)

    @property
    def m(self) -> int:
        return max(self.s - 1, 0).bit_length()

    @property
    def alpha(self) -> float:
        return float(sum(self.items))


@dataclass(frozen=True)
class SignVector:
    """Unit phase per data item, each one of +1, -1, +i, -i."""

    phases: tuple[complex, ...]


@dataclass(frozen=True)
class PlanItem:
    """Shift / delete / insert schedule for one data item."""

    index: int                 # also the m-bit label of the item slot
    magnitude: float
    phase: complex
    offset: int                # signed column offset the shift realizes
    direction: str | None      # "L" | "R" | None for the main diagonal
    amount: int
    powers: tuple[int, ...]    # binary decomposition of amount, ascending
    mode: str                  # "delete" | "insert" | "none"
    present_rows: tuple[int, ...]
    delete_rows: tuple[int, ...]
    insert_rows: tuple[int, ...]


@dataclass(frozen=True)
class OperationPlan:
    n: int
    items: tuple[PlanItem, ...]
    strategy: int | None = None  # repeated-main-diagonal encoding choice


class _Group:
    """One (offset, value) dictionary entry before component splitting."""

    __slots__ = ("offset", "value", "rows", "first_row")

    def __init__(self, offset: int, value: complex, rows: list[int]):
        self.offset = offset
        self.value = value
        self.rows = sorted(rows)
        self.first_row = self.rows[0]


def _signed_offset(cyclic: int, dim: int) -> int:
    return cyclic if cyclic <= dim // 2 else cyclic - dim


def _collect_groups(matrix: SparseMatrix) -> list[_Group]:
    dim = matrix.dim
    by_key: dict[tuple[int, complex], list[int]] = {}
    for r, c, v in matrix.entries:
        if v == 0:
            continue
        by_key.setdefault(((c - r) % dim, v), []).append(r)
    if not by_key:
        raise EmptyMatrix("matrix has no nonzero entries")
    return [_Group(off, val, rows) for (off, val), rows in by_key.items()]


def _alpha_weight(value: complex) -> float:
    return abs(value.real) + abs(value.imag)


def _apply_diagonal_strategy(groups: list[_Group],
                             strategy: str | int) -> tuple[list[_Group], int | None]:
    """Re-encode two distinct main-diagonal values to shrink the item weight.

    Three encodings exist: keep both values with complementary deletions, or
    encode one difference plus the value covering the union of rows.  The one
    minimizing the summed magnitude contribution wins, earliest on ties.
    """
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
    rest.extend(_Group(0, v, list(rows)) for v, rows in candidates[choice] if v != 0)
    return rest, choice


def _shift_for(group: _Group, dim: int, n: int) -> tuple[str | None, int]:
    """Direction and amount moving the main diagonal onto this group's offset."""
    o = group.offset
    if o == 0 or n == 0:
        return None, 0
    wrapped = [r for r in group.rows if r + o >= dim]
    if not wrapped:           # every entry above the diagonal
        return "R", o
    if len(wrapped) == len(group.rows):  # every entry below the diagonal
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


def analyze(matrix: SparseMatrix, strategy: str | int = "auto"
            ) -> tuple[DataVector, SignVector, OperationPlan]:
    """Shared extraction + planning pass; deterministic item ordering."""
    dim = matrix.dim
    groups = _collect_groups(matrix)
    groups, chosen = _apply_diagonal_strategy(groups, strategy)
    records = []
    for g in groups:
        direction, amount = _shift_for(g, dim, matrix.n)
        present = tuple(g.rows)
        n_absent = dim - len(present)
        if not n_absent:
            mode, delete_rows, insert_rows = "none", (), ()
        elif len(present) <= n_absent:
            mode, delete_rows, insert_rows = "insert", (), present
        else:  # fewer absent rows than present ones, so this is O(nnz)
            rows = set(present)
            absent = tuple(r for r in range(dim) if r not in rows)
            mode, delete_rows, insert_rows = "delete", absent, ()
        for magnitude, ph, rank in _components(g.value):
            key = (_signed_offset(g.offset, dim), g.first_row, rank)
            records.append((key, magnitude, ph, g, direction, amount, mode,
                            present, delete_rows, insert_rows))
    records.sort(key=lambda rec: rec[0])
    if not records:
        raise EmptyMatrix("matrix has no nonzero entries")
    s = len(records)
    m = max(s - 1, 0).bit_length()
    items = []
    for p, (key, magnitude, ph, g, direction, amount, mode,
            present, delete_rows, insert_rows) in enumerate(records):
        items.append(PlanItem(
            index=p,
            magnitude=magnitude,
            phase=ph,
            offset=key[0],
            direction=direction,
            amount=amount,
            powers=_powers(amount),
            mode=mode,
            present_rows=present,
            delete_rows=delete_rows,
            insert_rows=insert_rows,
        ))
    data = DataVector(tuple(it.magnitude for it in items))
    signs = SignVector(tuple(it.phase for it in items))
    plan = OperationPlan(matrix.n, tuple(items), chosen)
    return data, signs, plan


def extract_data_vectors(matrix: SparseMatrix,
                         strategy: str | int = "auto") -> tuple[DataVector, SignVector]:
    """Positive magnitudes and separated unit phases of the matrix dictionary."""
    data, signs, _ = analyze(matrix, strategy)
    return data, signs


def plan_operations(matrix: SparseMatrix, data: DataVector | None = None,
                    strategy: str | int = "auto") -> OperationPlan:
    """Tabulate shift, delete and insert operations for every data item."""
    extracted, _, plan = analyze(matrix, strategy)
    if data is not None and extracted.items != data.items:
        raise BadInput("data vector does not match this matrix")
    return plan


def reconstruct(plan: OperationPlan) -> np.ndarray:
    """Dense matrix implied by the plan; equals the input matrix exactly."""
    dim = 1 << plan.n
    out = np.zeros((dim, dim), dtype=complex)
    for item in plan.items:
        for r in item.present_rows:
            if item.direction == "L":
                c = (r - item.amount) % dim
            elif item.direction == "R":
                c = (r + item.amount) % dim
            else:
                c = r
            out[r, c] += item.phase * item.magnitude
    return out
