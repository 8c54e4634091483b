"""Bundled example matrices used by the demo subcommand and the test suite."""

from __future__ import annotations

import numpy as np

from .errors import BadInput
from .ingest import SparseMatrix


def _nonzero_uniform(rng: np.random.Generator, low=-1.0, high=1.0) -> float:
    while True:
        v = float(rng.uniform(low, high))
        if abs(v) > 1e-9:
            return v


def random_tridiagonal(n: int, rng: np.random.Generator) -> SparseMatrix:
    """Complex tridiagonal matrix with random nonzero component values."""
    coeffs = [_nonzero_uniform(rng) for _ in range(6)]
    z1 = complex(coeffs[0], coeffs[1])
    z2 = complex(coeffs[2], coeffs[3])
    z3 = complex(coeffs[4], coeffs[5])
    return tridiagonal(n, z1, z2, z3)


def tridiagonal(n: int, z1: complex, z2: complex, z3: complex) -> SparseMatrix:
    if n < 0:
        raise BadInput(f"matrix qubit count must be non-negative, got {n}")
    dim = 1 << n
    entries = [(i, i, z2) for i in range(dim)]
    entries += [(i, i - 1, z1) for i in range(1, dim)]
    entries += [(i, i + 1, z3) for i in range(dim - 1)]
    return SparseMatrix.from_entries(n, tuple(entries))


# 32x32 structured example: five bands plus eight isolated entries.
_BAND_SPECS = [
    # (label, column offset, present rows)
    ("b-5", -5, tuple(range(10, 32))),
    ("b-1", -1, tuple(r for r in range(32) if r not in (0, 5, 10, 15, 20, 25, 30, 31))),
    ("d-low", 0, tuple(range(0, 5))),
    ("d-high", 0, tuple(range(5, 32))),
    ("b+1", 1, tuple(r for r in range(32) if r not in (4, 9, 14, 19, 24, 29, 30, 31))),
    ("b+5", 5, tuple(range(5, 27))),
]

_ISOLATED_CELLS = [(6, 0), (10, 1), (12, 1), (16, 2), (18, 2), (22, 3), (24, 3), (28, 4)]


def structured32(rng: np.random.Generator) -> SparseMatrix:
    """Structured 32x32 real matrix with distinct positive random values."""
    values = sorted(set(float(v) for v in rng.uniform(0.1, 1.0, size=64)))
    if len(values) < 14:
        raise BadInput("rng produced too few distinct values")
    values = values[:14]
    rng.shuffle(values)
    entries: list[tuple[int, int, complex]] = []
    for (label, offset, rows), value in zip(_BAND_SPECS, values[:6]):
        for r in rows:
            entries.append((r, r + offset, complex(value)))
    for (r, c), value in zip(_ISOLATED_CELLS, values[6:]):
        entries.append((r, c, complex(value)))
    return SparseMatrix.from_entries(5, tuple(entries))
