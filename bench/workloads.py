"""Benchmark inputs: matrix documents and the operations that compile them.

Every input is the dict that ``blockenc compile`` reads from a matrix file
(``{"dim": ..., "entries": [{"row", "col", "re", "im"}, ...]}``); the program
never sees a seed.  Sparsity patterns are drawn once from ``PATTERN_SEED`` so
that the compile work is the same at every workload seed; the workload seed
draws every value, so each seed gives different angles, signs and digests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PATTERN_SEED = 20250829
DEFAULT_SEED = 0

# Dense verification cost grows 4x per qubit; each workload verifies every
# circuit up to its cap, so outputs are checked at any seed, not only at the
# seeds that have golden digests.
VERIFY_QUBITS = {"structured": 11, "random-sparse": 11, "verify-dense": 12}
WORKLOADS = tuple(VERIFY_QUBITS)

CONFIGS = ("default", "defer_restore", "naive", "no_zero_pad")


@dataclass(frozen=True)
class Op:
    """One compile of one matrix document under one named config."""

    id: str
    doc: dict
    config: str = "default"

    @property
    def key(self) -> str:
        return f"{self.id}/{self.config}"


def _value_rng(seed: int, *tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tag])


def _nonzero(rng: np.random.Generator, low: float = -1.0, high: float = 1.0) -> float:
    while True:
        v = float(rng.uniform(low, high))
        if abs(v) > 1e-6:
            return v


def _doc(n: int, entries) -> dict:
    return {"dim": 1 << n,
            "entries": [{"row": r, "col": c, "re": v.real, "im": v.imag}
                        for r, c, v in entries]}


def _distinct_complex(rng: np.random.Generator, count: int) -> list[complex]:
    values = [complex(_nonzero(rng), _nonzero(rng)) for _ in range(count)]
    if len(set(values)) != count:
        raise ValueError("value draw repeated a value")
    return values


def tridiagonal(n: int, seed: int) -> dict:
    """Sub-, main and super-diagonal, one complex value each."""
    z1, z2, z3 = _distinct_complex(_value_rng(seed, 1, n), 3)
    dim = 1 << n
    entries = [(i, i, z2) for i in range(dim)]
    entries += [(i, i - 1, z1) for i in range(1, dim)]
    entries += [(i, i + 1, z3) for i in range(dim - 1)]
    return _doc(n, entries)


# The paper's 32x32 example: five bands (the main diagonal split into two
# values) plus eight isolated cells, 14 distinct positive values in all.
_BANDS = (
    (-5, tuple(range(10, 32))),
    (-1, tuple(r for r in range(32) if r not in (0, 5, 10, 15, 20, 25, 30, 31))),
    (0, tuple(range(0, 5))),
    (0, tuple(range(5, 32))),
    (1, tuple(r for r in range(32) if r not in (4, 9, 14, 19, 24, 29, 30, 31))),
    (5, tuple(range(5, 27))),
)
_CELLS = ((6, 0), (10, 1), (12, 1), (16, 2), (18, 2), (22, 3), (24, 3), (28, 4))


def structured32(seed: int) -> dict:
    rng = _value_rng(seed, 2)
    values = []
    while len(values) < len(_BANDS) + len(_CELLS):
        v = float(rng.uniform(0.1, 1.0))
        if v not in values:
            values.append(v)
    entries = []
    for (offset, rows), v in zip(_BANDS, values):
        entries += [(r, r + offset, complex(v)) for r in rows]
    entries += [(r, c, complex(v)) for (r, c), v in zip(_CELLS, values[len(_BANDS):])]
    return _doc(5, entries)


def single_entry(n: int, seed: int) -> dict:
    row, col = (int(v) for v in np.random.default_rng([PATTERN_SEED, 3, n]).integers(1 << n, size=2))
    (value,) = _distinct_complex(_value_rng(seed, 3, n), 1)
    return _doc(n, [(row, col, value)])


def random_sparse(n: int, nnz: int, seed: int) -> dict:
    """nnz cells at fixed random positions, each with a distinct complex value."""
    dim = 1 << n
    cells = np.random.default_rng([PATTERN_SEED, 4, n, nnz]).choice(dim * dim, size=nnz,
                                                                   replace=False)
    values = _distinct_complex(_value_rng(seed, 4, n, nnz), nnz)
    return _doc(n, [(int(c) // dim, int(c) % dim, v) for c, v in zip(sorted(cells), values)])


def build(workload: str, seed: int) -> list[Op]:
    """Operations of one pass of a workload, in execution order."""
    if workload == "structured":
        ops = [Op(f"tridiagonal-n{n}", tridiagonal(n, seed)) for n in range(3, 17)]
        ops.append(Op("structured32", structured32(seed)))
        ops += [Op(f"single-n{n}", single_entry(n, seed)) for n in (16, 20, 22)]
        return ops
    if workload == "random-sparse":
        return [Op(f"random-n{n}-nnz{nnz}", random_sparse(n, nnz, seed))
                for n, nnz in ((4, 30), (5, 60), (6, 120), (7, 120))]
    if workload == "verify-dense":
        # 10-11 qubit circuits also take the restore, naive and no-padding
        # paths; the 12-qubit tridiagonal n=8 compiles under the default only.
        small = [("tridiagonal-n7", tridiagonal(7, seed)),
                 ("structured32", structured32(seed)),
                 ("random-n3-nnz24", random_sparse(3, 24, seed)),
                 ("random-n4-nnz30", random_sparse(4, 30, seed))]
        ops = [Op(name, doc, cfg) for name, doc in small for cfg in CONFIGS]
        ops.append(Op("tridiagonal-n8", tridiagonal(8, seed)))
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
