"""Simulation oracle: rebuild the encoded block and compare against the input.

The flag registers (data and delete qubits) are the most significant bits, so
postselecting them on zero reads the encoded block straight out of the
top-left corner of the unitary: the first d = 2^n rows of its first d columns.

A compiled circuit is PREP on the m data qubits, an index map of x/mcx gates
only, then UNPREP on the data qubits, and ``encoded_block`` builds the block
from that shape.  The leading gates that act on the data register alone (the
prefix) prepare one m-qubit state a from |0>; the trailing ones (the suffix)
form one m-qubit unitary S.  The x/mcx gates between them map basis labels to
labels, so ``ir.apply_gates`` runs them on an int32 array over all basis
positions that holds, at the position of each start label ``p << n+1 | j``
of a data state p and block column j, that label's index, and -1 at every
position with the delete bit set.  Each gate swaps two views of the
positions, as in the simulator.  The positions with the delete bit clear
then name the start label each one holds, and those fall into fibers, one
per (column j, row i): the data register vector w with w[q] = a_p for each
label p that reaches data state q of row i.  One suffix run of
``apply_gates`` in place on ``[I | all w]``, its global phase after it,
then gives S and every block entry, ``block[i, j] = (S w)[0]``.  Each entry
goes through the same floating-point operations as in the dense columns, so
the block is bit for bit the first d rows of ``circuit_unitary(circuit, d)``.

The residual on that path is max(|a^H a - 1|, max |S^H S - I|).  The label
map is a bijection, so it certifies the same orthonormality of the block
columns that max |V^H V - I| of the d dense columns V does.  A circuit whose
middle holds a ry or phase gate is simulated densely on its d block columns,
and its residual is that of the columns.  Each path checks the arrays it
builds against ``ir.MAX_SIM_ENTRIES``: the structured one its 2^m x d labels,
whose 2 x 2^m x d int32 positions take the bytes of 2^m x d int64, and its
``[I | all w]`` (the least one, for a single reached cell, before the walk),
the dense one its d columns.
``check_structured_budget(m, n)`` bounds ``[I | all w]`` from m and n alone,
before a circuit exists; it caps ``blockenc demo tridiagonal --n``.

Either way the block comes out as cells, row-major keys ``row << n | col``
with their values, and ``verify_circuit`` compares them with the matrix
entries on the union of both key sets, so the comparison costs in
proportion to the reached cells and the nonzeros, not to d x d.
``verify_circuit`` is the one entry point; from the package the module
imports only ``errors``, ``ingest`` and ``ir``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import BadInput, TooLarge
from .ingest import SparseMatrix
from .ir import (MAX_SIM_ENTRIES, Circuit, apply_gates, check_budget,
                 circuit_unitary, finite_number, gate_of, instance, unitarity_residual)

DEFAULT_TOL = 1e-9  # max |alpha*B - A| a passing circuit may reach
UNITARITY_TOL = 1e-10


def _split(circuit: Circuit) -> tuple[Circuit, tuple, tuple] | None:
    """(prefix, middle, suffix) of the circuit, or None if the middle holds
    a rotation.

    The prefix is the longest leading run of gates on the data register
    alone, controls included, and the suffix the longest trailing one after
    it.  Both come lowered to the m data qubits: the prefix as a circuit,
    which ``circuit_unitary`` runs, and the suffix as its gates, which
    ``apply_gates`` runs and no one checks again, since the circuit's own
    gates are checked; the circuit's global phase goes after the suffix.
    The middle is the gates between them.
    """
    gates, m, shift = circuit.gates, circuit.layout.m, circuit.layout.n + 1
    flags = (1 << shift) - 1  # the delete and matrix bits of a label

    def lowered(run):
        for g in run:  # stops at the first gate off the data register
            mask, value = g.controls
            if g.target >= m or mask & flags:
                return
            yield gate_of((g.kind, g.target, (mask >> shift, value >> shift), g.angle))

    prefix = tuple(lowered(gates))
    suffix = tuple(lowered(reversed(gates[len(prefix):])))[::-1]
    middle = gates[len(prefix):len(gates) - len(suffix)]
    if any(g.kind in ("ry", "phase") for g in middle):
        return None
    return Circuit(m, prefix), middle, suffix


def _structured_block(circuit: Circuit, prefix: Circuit, middle,
                      suffix: tuple) -> tuple[np.ndarray, np.ndarray, float]:
    """(keys, values, residual) from the prefix state, the position walk
    through the middle and one suffix run in place on ``[I | all w]``."""
    layout = circuit.layout
    m, n, d, size = layout.m, layout.n, layout.block_dim, 1 << layout.m
    # before the walk: the 2^m x d labels, whose 2^m x 2 x d int32 positions
    # take the bytes of 2^m x d int64, and the least [I | all w], one reached cell
    check_budget(m, max(d, size + 1))
    # Two start columns, so that no rotation meets a one-entry view: numpy
    # rounds a complex product on one element apart from its vector loop,
    # and in the dense columns a data-register view spans the delete qubit.
    a = circuit_unitary(prefix, min(2, size))[:, 0]
    # the index p * d + j of each start label p << n+1 | j at its position,
    # -1 where the delete bit is set; the middle permutes the positions
    at = np.full((size, 2, d), -1, dtype=np.int32)
    at[:, 0] = np.arange(size * d, dtype=np.int32).reshape(size, d)
    apply_gates(middle, at.reshape((2,) * layout.total + (1,)))
    held = at[:, 0] >= 0  # a label at position q * d + i, delete bit clear
    final, reached = np.flatnonzero(held), at[:, 0][held]
    keys, fiber = np.unique((final & d - 1) << n | reached & d - 1, return_inverse=True)
    check_budget(m, size + len(keys))  # [I | all w]
    start = np.zeros((size, size + len(keys)), dtype=complex)
    np.fill_diagonal(start, 1)
    start[final >> n, size + fiber] = a[reached >> n]
    apply_gates(suffix, start.reshape((2,) * m + (-1,)))
    if circuit.global_phase:
        start *= np.exp(1j * circuit.global_phase)
    residual = max(unitarity_residual(a[:, None]), unitarity_residual(start[:, :size]))
    return keys, start[0, size:].copy(), residual  # a copy frees the suffix array


def check_structured_budget(m: int, n: int) -> None:
    """Raise TooLarge if ``[I | all w]`` on m data and n matrix qubits may
    exceed the budget: with at most 2^m cells per block column it holds
    2^m x (2^m + cells) <= 2^(2m + n + 1) entries, compared as exponents."""
    if 2 * m + n + 1 > MAX_SIM_ENTRIES.bit_length() - 1:
        raise TooLarge(f"m = {m} data qubits on n = {n} matrix qubits may exceed "
                       f"the {MAX_SIM_ENTRIES}-entry simulation budget of verify")


def encoded_block(circuit: Circuit) -> tuple[np.ndarray, np.ndarray, float]:
    """(keys, values, unitarity residual) of a circuit with a register layout.

    The block's cells come as sorted row-major keys ``row << n | col`` and
    their values; a cell with no key is zero.  The block is read through the
    circuit's prefix, label map and suffix where the gates between prefix
    and suffix are x/mcx only (the reached cells), else from the d dense
    block columns (their nonzero entries).
    """
    layout = instance(circuit, Circuit, "circuit").layout
    if layout is None:
        raise BadInput("circuit has no register layout")
    parts = _split(circuit)
    if parts is not None:
        return _structured_block(circuit, *parts)
    d = layout.block_dim
    columns = circuit_unitary(circuit, d)
    keys = np.flatnonzero(columns[:d])
    return keys, columns[:d].ravel()[keys], unitarity_residual(columns)


@dataclass
class VerificationReport:
    passed: bool
    max_abs_error: float
    unitarity_residual: float
    tolerance: float
    alpha: float
    dim: int
    worst_cells: list  # [(row, col, error), ...] largest first, ties row-major

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
    if finite_number(tol, "tolerance") < 0:
        raise BadInput(f"tolerance must be non-negative, got {tol!r}")


def verify_circuit(matrix: SparseMatrix, circuit: Circuit, alpha: float,
                   tol: float = DEFAULT_TOL) -> VerificationReport:
    """Compare alpha times the extracted block against the matrix entrywise."""
    check_tolerance(tol)
    finite_number(alpha, "alpha")
    instance(matrix, SparseMatrix, "matrix")
    layout = instance(circuit, Circuit, "circuit").layout
    if layout is None or layout.n != matrix.n:
        raise BadInput("circuit layout does not match the matrix dimension")
    keys, values, residual = encoded_block(circuit)
    n = layout.n
    # alpha*B - A on the union of the reached cells and the matrix entries:
    # a cell of one side only is |alpha*B| or |A|, every other cell is zero
    cells, at = np.unique(np.concatenate([keys, matrix.rows << n | matrix.cols]),
                          return_inverse=True)
    diff = np.zeros(len(cells), dtype=complex)
    diff[at[:len(keys)]] = alpha * values
    diff[at[len(keys):]] -= matrix.values
    err = np.abs(diff)
    max_err = float(err.max())
    worst = []
    if not max_err <= tol:  # rank the cells of a failing block only
        worst = [(int(cells[i] >> n), int(cells[i] & matrix.dim - 1), float(err[i]))
                 for i in np.argsort(-err, kind="stable")[:5] if err[i] > tol]
    passed = max_err <= tol and residual <= UNITARITY_TOL
    return VerificationReport(passed, max_err, residual, tol, alpha,
                              matrix.dim, worst)
