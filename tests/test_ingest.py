import json
import time

import numpy as np
import pytest

from blockenc.demo import structured32, tridiagonal
from blockenc.errors import BadDimension, BadInput, EmptyMatrix
from blockenc.ingest import SparseMatrix, analyze, load_matrix, matrix_from_dict, save_matrix
from blockenc.pipeline import compile_matrix

from conftest import reconstruct


def test_tridiagonal_extraction_order_and_phases():
    m = tridiagonal(3, complex(0.3, -0.2), complex(-0.5, 0.4), complex(0.7, 0.6))
    data, signs, _ = analyze(m)
    assert data.items == (0.3, 0.2, 0.5, 0.4, 0.7, 0.6)
    assert signs.phases == (1, -1j, -1, 1j, 1, 1j)
    assert data.s == 6 and data.m == 3


def test_identity_matrix_single_item():
    m = SparseMatrix(3, tuple((i, i, 1 + 0j) for i in range(8)))
    data, signs, _ = analyze(m)
    assert data.items == (1.0,) and signs.phases == (1,)
    assert data.s == 1 and data.m == 0


def test_structured32_has_fourteen_items(rng):
    data, signs, _ = analyze(structured32(rng))
    assert data.s == 14 and data.m == 4
    assert all(p == 1 for p in signs.phases)
    assert all(v > 0 for v in data.items)


def test_zero_valued_entries_rejected_as_empty():
    m = SparseMatrix(1, ((0, 0, 0j),))
    with pytest.raises(EmptyMatrix):
        analyze(m)


def test_bad_dimension_rejected():
    with pytest.raises(BadDimension):
        matrix_from_dict({"dim": 3, "entries": [{"row": 0, "col": 0, "re": 1}]})


def test_duplicate_entries_rejected():
    with pytest.raises(BadInput):
        SparseMatrix(1, ((0, 0, 1 + 0j), (0, 0, 2 + 0j)))


def test_plan_band_shift_decomposition():
    # band five columns below the diagonal: left shift 5 = 1 + 4
    entries = tuple((r, r - 5, 0.9 + 0j) for r in range(10, 32))
    entries += tuple((i, i, 0.4 + 0j) for i in range(32))
    m = SparseMatrix(5, entries)
    _, _, plan = analyze(m)
    band = next(it for it in plan.items if it.direction == "L")
    assert band.amount == 5 and band.powers == (1, 4)
    assert band.mode == "delete" and band.delete_rows == tuple(range(10))


def test_plan_single_value_cyclic_subdiagonal():
    dim = 8
    entries = tuple(((i + 1) % dim, i, 0.6 + 0j) for i in range(dim))
    _, _, plan = analyze(SparseMatrix(3, entries))
    item = plan.items[0]
    assert item.direction == "L" and item.amount == 1
    assert item.mode == "none" and not item.delete_rows and not item.insert_rows


def test_plan_isolated_entry_below_diagonal_prefers_left():
    # an isolated cell far below the diagonal keeps the left shift even though
    # the cyclic right distance is shorter
    entries = ((28, 4, 0.5 + 0j),) + tuple((i, i, 0.3 + 0j) for i in range(32))
    _, _, plan = analyze(SparseMatrix(5, entries))
    cell = next(it for it in plan.items if it.mode == "insert")
    assert cell.direction == "L" and cell.amount == 24 and cell.powers == (8, 16)
    assert cell.insert_rows == (28,)


def test_plan_insert_vs_delete_threshold():
    # present rows <= absent rows switches the item to insert mode
    entries = tuple((r, r, 1 + 0j) for r in range(3))
    _, _, plan = analyze(SparseMatrix(2, entries))
    item = plan.items[0]
    assert item.mode == "delete" and item.delete_rows == (3,)
    entries = tuple((r, r, 1 + 0j) for r in range(2))
    _, _, plan = analyze(SparseMatrix(2, entries))
    item = plan.items[0]
    assert item.mode == "insert" and item.insert_rows == (0, 1)


def test_single_entry_plan_costs_nnz_not_dim():
    # n = 40: a row set of the matrix dimension could not even be allocated
    start = time.perf_counter()
    enc = compile_matrix(SparseMatrix(40, ((3, 5, 0.5 + 0j),)))
    assert time.perf_counter() - start < 1.0
    (item,) = enc.plan.items
    assert item.mode == "insert" and item.insert_rows == (3,) and not item.delete_rows
    assert enc.circuit.n_qubits == 41


def test_diagonal_strategy_difference_encoding():
    entries = tuple((r, r, 0.8 + 0j) for r in range(5))
    entries += tuple((r, r, 0.85 + 0j) for r in range(5, 32))
    m = SparseMatrix(5, entries)
    data, signs, plan = analyze(m, "auto")
    assert plan.strategy == 2
    # one item is the small difference deleted on the low rows, the other the
    # shared value on every row
    diff = next(it for it in plan.items if it.delete_rows == tuple(range(5)))
    rest = next(it for it in plan.items if it.mode == "none")
    assert np.isclose(diff.magnitude, 0.05)
    assert np.isclose(rest.magnitude, 0.8)
    assert np.isclose(sum(data.items), 0.85)


def test_diagonal_strategy_third_form():
    entries = tuple((r, r, 0.85 + 0j) for r in range(5))
    entries += tuple((r, r, 0.8 + 0j) for r in range(5, 32))
    _, _, plan = analyze(SparseMatrix(5, entries), "auto")
    assert plan.strategy == 3
    # the difference value survives only on the low rows; with few present
    # rows the planner flips the complementary deletion into an insertion
    diff = next(it for it in plan.items if it.mode == "insert")
    assert np.isclose(diff.magnitude, 0.05)
    assert diff.insert_rows == tuple(range(5))
    rest = next(it for it in plan.items if it.mode == "none")
    assert np.isclose(rest.magnitude, 0.8)


def test_diagonal_strategy_override_and_weight_monotone(rng):
    for _ in range(40):
        v1, v2 = (complex(rng.normal(), rng.normal()) for _ in range(2))
        if v1 == v2:
            continue
        entries = tuple((r, r, v1) for r in range(4))
        entries += tuple((r, r, v2) for r in range(4, 8))
        m = SparseMatrix(3, entries)
        weights = {}
        for strat in (1, 2, 3, "auto"):
            data, _, plan = analyze(m, strat)
            weights[strat] = sum(data.items)
            assert np.abs(reconstruct(plan) - m.dense()).max() <= 1e-12
        assert weights["auto"] <= weights[1] + 1e-15


def test_strategy_requires_two_values():
    entries = tuple((r, r, 0.5 + 0j) for r in range(4))
    _, _, plan = analyze(SparseMatrix(2, entries), 2)
    assert plan.strategy is None


def test_shared_shift_for_real_and_imaginary_parts():
    m = tridiagonal(3, complex(0.3, -0.2), complex(-0.5, 0.4), complex(0.7, 0.6))
    _, _, plan = analyze(m)
    by_offset = {}
    for it in plan.items:
        by_offset.setdefault(it.offset, []).append(it)
    for items in by_offset.values():
        assert len({(it.direction, it.amount) for it in items}) == 1
        assert len({it.delete_rows for it in items}) == 1


def test_powers_are_binary_expansion(rng):
    for _ in range(50):
        n = int(rng.integers(1, 6))
        dim = 1 << n
        r, c = int(rng.integers(dim)), int(rng.integers(dim))
        entries = ((r, c, 1 + 0j),)
        _, _, plan = analyze(SparseMatrix(n, entries))
        item = plan.items[0]
        assert sum(item.powers) == item.amount
        assert all(p & (p - 1) == 0 for p in item.powers)
        assert item.amount < dim


def test_reconstruction_exact(rng):
    for seed in range(25):
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 5))
        dim = 1 << n
        cells = {(int(r.integers(dim)), int(r.integers(dim))) for _ in range(dim)}
        entries = tuple((a, b, complex(r.normal(), r.normal())) for a, b in cells)
        m = SparseMatrix(n, entries)
        _, _, plan = analyze(m, strategy=1)
        assert np.array_equal(reconstruct(plan), m.dense())


def test_subnormalization_values():
    from blockenc.ingest import DataVector
    assert DataVector((1.0, 2.0, 3.0)).alpha == 6.0
    assert DataVector((0.5,)).alpha == 0.5
    m = tridiagonal(3, complex(0.3, -0.2), complex(-0.5, 0.4), complex(0.7, 0.6))
    data, _, _ = analyze(m)
    assert np.isclose(data.alpha, 0.3 + 0.2 + 0.5 + 0.4 + 0.7 + 0.6)


def test_alpha_bounds_row_and_column_sums(rng):
    for seed in range(20):
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 4))
        dim = 1 << n
        cells = {(int(r.integers(dim)), int(r.integers(dim))) for _ in range(2 * dim)}
        m = SparseMatrix(n, tuple((a, b, complex(r.normal(), r.normal()))
                                  for a, b in cells))
        data, _, _ = analyze(m)
        dense = np.abs(m.dense())
        assert data.alpha >= dense.sum(axis=0).max() - 1e-12
        assert data.alpha >= dense.sum(axis=1).max() - 1e-12


def test_json_round_trip(tmp_path):
    m = tridiagonal(2, 0.1 + 0.2j, -0.3 + 0j, 0.5 - 0.6j)
    path = tmp_path / "m.json"
    save_matrix(m, path)
    back = load_matrix(path)
    assert back == m
    doc = json.loads(path.read_text())
    assert doc["dim"] == 4 and {"row", "col", "re", "im"} == set(doc["entries"][0])
