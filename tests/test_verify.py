import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockenc import verify
from blockenc.assignment import FixedIndexPolicy
from blockenc.demo import random_tridiagonal, structured32, tridiagonal
from blockenc.errors import BadInput, BadLayout, TooLarge
from blockenc.ingest import SparseMatrix
from blockenc.ir import Circuit, RegisterLayout, circuit_unitary, mcx, phase, ry
from blockenc.pipeline import CompileConfig, compile_matrix
from blockenc.verify import check_structured_budget, encoded_block, verify_circuit

from conftest import dense


def test_compiled_tridiagonal_block_matches(rng):
    m = random_tridiagonal(3, rng)
    enc = compile_matrix(m)
    d = enc.layout.block_dim
    block = circuit_unitary(enc.circuit, d)[:d]
    assert np.abs(enc.alpha * block - dense(m)).max() <= 1e-9


def test_verify_pass_report(rng):
    m = random_tridiagonal(3, rng)
    enc = compile_matrix(m)
    report = verify_circuit(m, enc.circuit, enc.alpha)
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
        d = enc.layout.block_dim
        assert np.linalg.norm(circuit_unitary(enc.circuit, d)[:d], 2) <= 1 + 1e-12


def test_eta_only_circuit_verifies_against_diagonal(rng):
    m = random_tridiagonal(3, rng)
    enc = compile_matrix(m, CompileConfig(skip_index_map=True))
    eta = sum(it.phase * it.magnitude for it in enc.plan.items)
    diag = SparseMatrix.from_entries(3, tuple((i, i, eta) for i in range(8)))
    report = verify_circuit(diag, enc.circuit, enc.alpha, tol=1e-10)
    assert report.passed


@pytest.mark.parametrize("alpha", [float("nan"), float("inf"), float("-inf")])
def test_verify_rejects_non_finite_alpha(rng, alpha):
    m = random_tridiagonal(3, rng)
    enc = compile_matrix(m)
    with pytest.raises(BadInput, match="alpha"):
        verify_circuit(m, enc.circuit, alpha)


def test_verify_rejects_layout_of_another_dimension(rng):
    m = random_tridiagonal(3, rng)
    enc = compile_matrix(random_tridiagonal(2, rng))
    with pytest.raises(BadLayout):
        verify_circuit(m, enc.circuit, enc.alpha)


_CONFIGS = {"default": CompileConfig(), "defer_restore": CompileConfig(defer_restore=True),
            "naive": CompileConfig(naive=True), "no_zero_pad": CompileConfig(zero_pad=False)}


# n = None is structured32; tridiagonal n = 8 is 12 qubits
@pytest.mark.parametrize("n, config",
                         [(n, cfg) for n in (3, 4, 5, 6, 7, 8, None) for cfg in _CONFIGS])
def test_verify_reads_the_full_unitary_block(rng, n, config):
    m = structured32(rng) if n is None else random_tridiagonal(n, rng)
    enc = compile_matrix(m, _CONFIGS[config])
    d = enc.layout.block_dim
    full = circuit_unitary(enc.circuit)
    assert np.array_equal(circuit_unitary(enc.circuit, d), full[:, :d])
    report = verify_circuit(m, enc.circuit, enc.alpha)
    assert report.passed and report.unitarity_residual <= 1e-12
    assert report.max_abs_error == float(np.abs(enc.alpha * full[:d, :d] - dense(m)).max())


def test_verify_reaches_past_12_qubits(rng):
    # 2^13 rows by 2^9 block columns, within the 2^24-entry budget
    m = random_tridiagonal(9, rng)
    enc = compile_matrix(m)
    assert enc.circuit.n_qubits == 13
    report = verify_circuit(m, enc.circuit, enc.alpha)
    assert report.passed and report.unitarity_residual <= 1e-12


def test_passing_report_ranks_no_cells(rng):
    m = structured32(rng)
    enc = compile_matrix(m)
    report = verify_circuit(m, enc.circuit, enc.alpha)
    assert report.passed and report.worst_cells == []


def _tampered(circuit, gates, global_phase=None):
    return Circuit(circuit.n_qubits, tuple(gates), circuit.layout,
                   circuit.global_phase if global_phase is None else global_phase)


def _assert_structured_block_is_dense(circuit):
    # a compiled circuit with a data register has no global phase; give it one
    n, d = circuit.layout.n, circuit.layout.block_dim
    for c in (circuit, _tampered(circuit, circuit.gates, global_phase=0.7)):
        keys, values, residual = verify._structured_block(c, *verify._split(c))
        assert np.array_equal(keys, np.unique(keys))
        block = np.zeros((d, d), dtype=complex)
        block[keys >> n, keys & d - 1] = values
        assert np.array_equal(block, circuit_unitary(c, d)[:d])
        assert residual <= 1e-12


# n = None is structured32
@pytest.mark.parametrize("n, config",
                         [(n, cfg) for n in (3, 4, 5, 6, 7, 8, None) for cfg in _CONFIGS])
def test_structured_block_is_the_dense_block(rng, n, config):
    m = structured32(rng) if n is None else random_tridiagonal(n, rng)
    _assert_structured_block_is_dense(compile_matrix(m, _CONFIGS[config]).circuit)


def test_structured_block_without_index_map(rng):
    enc = compile_matrix(structured32(rng), CompileConfig(skip_index_map=True))
    _assert_structured_block_is_dense(enc.circuit)


def test_structured_block_of_one_item():
    m = SparseMatrix.from_entries(2, ((1, 2, -0.25j),))
    enc = compile_matrix(m)
    # no data qubit: the phase of the one item is the global phase
    assert enc.layout.m == 0 and enc.circuit.global_phase
    _assert_structured_block_is_dense(enc.circuit)
    assert verify_circuit(m, enc.circuit, enc.alpha).passed


@st.composite
def _distinct_valued_matrices(draw):
    n = draw(st.integers(1, 4))
    index = st.integers(0, (1 << n) - 1)
    cells = draw(st.lists(st.tuples(index, index), min_size=1, max_size=3 << n, unique=True))
    parts = st.integers(-8, 8).filter(bool)
    return SparseMatrix.from_entries(n, tuple(
        (r, c, complex(draw(parts), draw(parts)) / 8) for r, c in cells))


@settings(max_examples=40, deadline=None)
@given(_distinct_valued_matrices(), st.sampled_from(("auto", 1, 2, 3)),
       st.booleans(), st.booleans(), st.booleans(),
       st.sampled_from(FixedIndexPolicy), st.sampled_from(FixedIndexPolicy))
def test_structured_block_is_the_dense_block_on_random_matrices(m, strategy, zero_pad,
                                                                defer_restore, naive,
                                                                data_policy, matrix_policy):
    cfg = CompileConfig(strategy=strategy, zero_pad=zero_pad, defer_restore=defer_restore,
                        naive=naive, data_policy=data_policy, matrix_policy=matrix_policy)
    _assert_structured_block_is_dense(compile_matrix(m, cfg).circuit)


def _spy_widths(monkeypatch):
    """The widths of the circuits verify simulates, from now on."""
    widths = []

    def spy(circuit, columns=None):
        widths.append(circuit.n_qubits)
        return circuit_unitary(circuit, columns)

    monkeypatch.setattr(verify, "circuit_unitary", spy)
    return widths


def test_rotation_in_the_middle_takes_the_dense_path(rng, monkeypatch):
    m = random_tridiagonal(3, rng)
    enc = compile_matrix(m)
    prefix, middle, _ = verify._split(enc.circuit)
    at = len(prefix) + len(middle) // 2
    target = enc.layout.matrix_qubits[0]
    gates = list(enc.circuit.gates)
    gates[at:at] = [ry(0.3, target), ry(-0.3, target)]
    circuit = _tampered(enc.circuit, gates)
    assert verify._split(circuit) is None
    widths = _spy_widths(monkeypatch)
    assert verify_circuit(m, circuit, enc.alpha).passed
    assert widths == [enc.layout.total]


def test_wide_data_register_takes_the_structured_path():
    # [I | all w] holds 64 x 68 entries, more than the 256 x 2 dense columns;
    # each path checks only the arrays it builds
    _assert_structured_block_is_dense(
        Circuit(8, (ry(0.5, 0), mcx((0b10000000, 0b10000000), 7), ry(-0.5, 0)),
                RegisterLayout(6, 1)))


def test_one_gate_deletions_read_alike_through_both_paths(rng, monkeypatch):
    m = random_tridiagonal(3, rng)
    enc = compile_matrix(m)
    prefix, middle, suffix = verify._split(enc.circuit)
    gates = enc.circuit.gates
    regions = (range(len(prefix)), range(len(prefix), len(gates) - len(suffix)),
               range(len(gates) - len(suffix), len(gates)))
    assert all(regions)
    for region in regions:
        for drop in region:
            circuit = _tampered(enc.circuit, gates[:drop] + gates[drop + 1:])
            assert verify._split(circuit) is not None
            structured = verify_circuit(m, circuit, enc.alpha)
            with monkeypatch.context() as mp:
                mp.setattr(verify, "_split", lambda c: None)
                dense = verify_circuit(m, circuit, enc.alpha)
            assert structured.max_abs_error == dense.max_abs_error
            assert structured.worst_cells == dense.worst_cells


def test_wide_suffix_array_verifies(rng):
    # a real circulant: 128 distinct bands, one item each, so m = 7 and the
    # suffix runs on a 128 x (128 + 128^2) array, rows wider than one chunk
    v = rng.uniform(-1, 1, 128)
    m = SparseMatrix.from_entries(7, tuple((r, (r + k) % 128, v[k])
                                           for r in range(128) for k in range(128)))
    enc = compile_matrix(m)
    assert enc.layout == RegisterLayout(7, 7)
    assert verify_circuit(m, enc.circuit, enc.alpha).passed
    _assert_structured_block_is_dense(enc.circuit)


def test_encoded_block_needs_a_register_layout():
    with pytest.raises(BadLayout):
        encoded_block(Circuit(2))


def test_refusals_are_those_of_the_arrays_each_path_builds():
    # 2^3 data states by 2^22 block columns is 2^25 labels, over the
    # 2^24-entry budget, refused before they are allocated although the
    # circuit holds no gate
    m = SparseMatrix.from_entries(22, ((0, 0, 1.0),))
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            verify_circuit(m, Circuit(26, (), RegisterLayout(3, 22)), 1.0)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    with pytest.raises(BadLayout):
        verify_circuit(m, Circuit(26), 1.0)


def test_dropped_insert_flip_reports_the_unreached_entries(rng):
    m = structured32(rng)
    enc = compile_matrix(m)
    assert enc.stats["insert"]["row_groups"]
    n, gates = enc.layout.n, enc.circuit.gates
    # inserts come last in the index map, and an insert stage ends with the
    # flips that un-delete its items on their rows
    drop = max(i for i, g in enumerate(gates)
               if g.target == enc.layout.del_qubit and g.controls[0] & enc.layout.block_dim - 1)
    circuit = _tampered(enc.circuit, gates[:drop] + gates[drop + 1:])
    keys, _, _ = encoded_block(circuit)
    entries = m.rows << n | m.cols
    unreached = np.isin(entries, keys, invert=True)
    assert unreached.any()
    report = verify_circuit(m, circuit, enc.alpha)
    assert not report.passed
    expected = sorted(((int(r), int(c), float(abs(v))) for r, c, v in
                       zip(m.rows[unreached], m.cols[unreached], m.values[unreached])),
                      key=lambda cell: -cell[2])
    assert report.worst_cells == expected[:5]
    assert report.max_abs_error == expected[0][2]


# The d = 1024 dense block columns of tridiagonal n = 10 (14 qubits) would be
# one 256 MiB buffer; the others are past the budget of the dense columns.
@pytest.mark.parametrize("matrix, qubits", [
    (lambda: tridiagonal(10, 0.5 - 0.25j, 0.75 + 0.125j, -0.5j), 14),
    (lambda: tridiagonal(16, 0.5 - 0.25j, 0.75 + 0.125j, -0.5j), 20),
    (lambda: SparseMatrix.from_entries(16, ((12345, 54321, 0.5 - 0.5j),)), 18),
    (lambda: SparseMatrix.from_entries(20, ((1 << 19, 7, -0.75j),)), 21),
], ids=["tridiagonal-n10", "tridiagonal-n16", "single-entry-n16", "single-entry-n20"])
def test_verify_stays_small(matrix, qubits):
    m = matrix()
    enc = compile_matrix(m)
    assert enc.circuit.n_qubits == qubits
    tracemalloc.start()
    try:
        report = verify_circuit(m, enc.circuit, enc.alpha)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 128 << 20


# Prefixes whose phases, simulated on one start column alone, round apart
# from the dense columns: numpy multiplies a one-entry view apart from its
# vector loop.
@pytest.mark.parametrize("angles", [(-2.202456899359727, -0.3497366441721974, 1.3270685342718114),
                                    (2.171850534697036, -5.496127522185846, -4.018436205082271),
                                    (6.470155299291017, 3.0358909928195317, 3.7533010514879592)])
def test_structured_block_rounds_as_the_dense_columns(angles):
    theta, phi0, phi1 = angles
    gates = (ry(theta, 0), phase(phi0, 0), phase(phi1, 0),
             mcx((0b100, 0b100), 2), ry(0.5, 0))
    _assert_structured_block_is_dense(Circuit(3, gates, RegisterLayout(1, 1)))


def test_structured_budget_caps_tridiagonal_at_n_17():
    # m = 3: [I | all w] stays within 2^(2m + n + 1) entries, 2^24 at n = 17
    check_structured_budget(3, 17)
    with pytest.raises(TooLarge, match="n = 18"):
        check_structured_budget(3, 18)
    with pytest.raises(TooLarge):
        check_structured_budget(3, 10**30)  # no 2^n is built



@pytest.mark.parametrize("what, tol, alpha", [
    ("tolerance", "1e-9", 1.0), ("tolerance", None, 1.0), ("tolerance", True, 1.0),
    ("tolerance", -1e-9, 1.0), ("alpha", 1e-9, None), ("alpha", 1e-9, "1"),
    ("alpha", 1e-9, True)])
def test_verify_refuses_an_argument_that_is_not_a_number(rng, what, tol, alpha):
    m = random_tridiagonal(3, rng)
    enc = compile_matrix(m)
    with pytest.raises(BadInput, match=what):
        verify_circuit(m, enc.circuit, alpha, tol)
