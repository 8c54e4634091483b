import json

import numpy as np
import pytest

from blockenc.demo import random_tridiagonal, tridiagonal
from blockenc.errors import BadLayout
from blockenc.ingest import SparseMatrix
from blockenc.ir import Circuit, RegisterLayout, circuit_unitary
from blockenc.pipeline import CompileConfig, compile_matrix
from blockenc.verify import extract_block, verify, verify_circuit


def test_extract_block_identity():
    lay = RegisterLayout(1, 2)
    assert np.array_equal(extract_block(np.eye(16), lay), np.eye(4))


def test_extract_block_dimension_mismatch():
    with pytest.raises(BadLayout):
        extract_block(np.eye(4), RegisterLayout(1, 2))


def test_compiled_tridiagonal_block_matches(rng):
    m = random_tridiagonal(3, rng)
    enc = compile_matrix(m)
    block = extract_block(circuit_unitary(enc.circuit), enc.layout)
    assert np.abs(enc.alpha * block - m.dense()).max() <= 1e-9


def test_verify_pass_report(rng):
    m = random_tridiagonal(3, rng)
    enc = compile_matrix(m)
    report = verify(m, enc)
    assert report.passed and report.max_abs_error <= 1e-9
    assert report.unitarity_residual <= 1e-10
    doc = json.loads(report.to_json())
    assert doc["passed"] is True and doc["dim"] == 8
    assert "PASS" in str(report)


def test_fault_injection_localizes_error(rng):
    m = random_tridiagonal(3, rng)
    enc = compile_matrix(m)
    # drop one deletion gate: the leaked value lands on a known boundary cell
    gates = list(enc.circuit.gates)
    drop = next(i for i, g in enumerate(gates)
                if g.kind == "mcx" and g.target == enc.layout.del_qubit)
    tampered = Circuit(enc.circuit.n_qubits, tuple(gates[:drop] + gates[drop + 1:]),
                       enc.circuit.layout, enc.circuit.global_phase)
    report = verify_circuit(m, tampered, enc.alpha)
    assert not report.passed
    rows = {cell[0] for cell in report.worst_cells}
    cols = {cell[1] for cell in report.worst_cells}
    # the first delete group guards the wrap row of the subdiagonal band
    assert rows == {0} and cols == {7}
    assert "FAIL" in str(report)


def test_block_spectral_norm_bounded(rng):
    for seed in range(5):
        m = random_tridiagonal(2, np.random.default_rng(seed))
        enc = compile_matrix(m)
        block = extract_block(circuit_unitary(enc.circuit), enc.layout)
        assert np.linalg.norm(block, 2) <= 1 + 1e-12


def test_eta_only_circuit_verifies_against_diagonal(rng):
    m = random_tridiagonal(3, rng)
    enc = compile_matrix(m, CompileConfig(skip_index_map=True))
    eta = sum(p * v for p, v in zip(enc.signs.phases, enc.data.items))
    diag = SparseMatrix(3, tuple((i, i, eta) for i in range(8)))
    report = verify(diag, enc, tol=1e-10)
    assert report.passed
