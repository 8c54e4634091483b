"""Dense simulation oracle: rebuild the block columns and compare against the input.

The flag registers (data and delete qubits) are the most significant bits, so
postselecting them on zero reads the encoded block straight out of the
top-left corner of the unitary: the first d = 2^n rows of its first d columns.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BadInput, BadLayout
from .ingest import SparseMatrix
from .ir import Circuit, RegisterLayout, circuit_unitary, unitarity_residual
from .pipeline import EncodedCircuit

DEFAULT_TOL = 1e-9  # max |alpha*B - A| a passing circuit may reach
UNITARITY_TOL = 1e-10


def extract_block(u: np.ndarray, layout: RegisterLayout) -> np.ndarray:
    """Submatrix at rows and columns where every flag qubit reads zero.

    ``u`` is the unitary or any run of its leading columns that holds the
    block's d columns, as ``circuit_unitary(circuit, d)`` returns.
    """
    d = layout.block_dim
    if u.ndim != 2 or u.shape[0] != 1 << layout.total or u.shape[1] < d:
        raise BadLayout(f"operator shape {u.shape} does not hold the block of "
                        f"{layout.total} qubits")
    return u[:d, :d]


@dataclass
class VerificationReport:
    passed: bool
    max_abs_error: float
    unitarity_residual: float
    tolerance: float
    alpha: float
    dim: int
    worst_cells: list  # [(row, col, error), ...] largest first

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        head = (f"{status}: max |alpha*B - A| = {self.max_abs_error:.3e} "
                f"(tol {self.tolerance:.1e}), unitarity residual "
                f"{self.unitarity_residual:.3e}, alpha = {self.alpha:.12g}")
        cells = ", ".join(f"({r},{c})={e:.2e}" for r, c, e in self.worst_cells[:3])
        return head + (f"\n  worst cells: {cells}" if cells else "")


def check_tolerance(tol: float) -> None:
    """Refuse a tolerance that is not a finite non-negative number."""
    if not math.isfinite(tol) or tol < 0:
        raise BadInput(f"tolerance must be a finite non-negative number, got {tol}")


def verify_circuit(matrix: SparseMatrix, circuit: Circuit, alpha: float,
                   tol: float = DEFAULT_TOL) -> VerificationReport:
    """Compare alpha times the extracted block against the matrix entrywise."""
    check_tolerance(tol)
    if not math.isfinite(alpha):
        raise BadInput(f"alpha must be a finite number, got {alpha}")
    layout = circuit.layout
    if layout is None or layout.n != matrix.n:
        raise BadLayout("circuit layout does not match the matrix dimension")
    columns = circuit_unitary(circuit, layout.block_dim)
    residual = unitarity_residual(columns)
    block = extract_block(columns, layout)
    err = np.abs(alpha * block - matrix.dense())
    max_err = float(err.max())
    flat = np.argsort(err, axis=None)[::-1][:5]
    worst = [(int(i // err.shape[0]), int(i % err.shape[0]), float(err.flat[i]))
             for i in flat if err.flat[i] > tol]
    passed = max_err <= tol and residual <= UNITARITY_TOL
    return VerificationReport(passed, max_err, residual, tol, alpha,
                              matrix.dim, worst)


def verify(matrix: SparseMatrix, encoded: EncodedCircuit,
           tol: float = DEFAULT_TOL) -> VerificationReport:
    """Verify a compiled circuit against its source matrix."""
    return verify_circuit(matrix, encoded.circuit, encoded.alpha, tol)
