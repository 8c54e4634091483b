import hashlib
import json
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockenc.demo import structured32, tridiagonal
from blockenc.errors import BadInput, BlockencError
from blockenc.ingest import SparseMatrix, analyze, load_matrix, matrix_from_dict, save_matrix
from blockenc.ir import export_text
from blockenc.pipeline import compile_matrix

from conftest import dense, reconstruct, reference_analyze, reference_matrix_from_dict


def test_tridiagonal_extraction_order_and_phases():
    m = tridiagonal(3, complex(0.3, -0.2), complex(-0.5, 0.4), complex(0.7, 0.6))
    items = analyze(m).items
    assert tuple(it.magnitude for it in items) == (0.3, 0.2, 0.5, 0.4, 0.7, 0.6)
    assert tuple(it.phase for it in items) == (1, -1j, -1, 1j, 1, 1j)
    assert compile_matrix(m).layout.m == 3


def test_identity_matrix_single_item():
    m = SparseMatrix.from_entries(3, tuple((i, i, 1 + 0j) for i in range(8)))
    (item,) = analyze(m).items
    assert item.magnitude == 1.0 and item.phase == 1
    assert compile_matrix(m).layout.m == 0


def test_structured32_has_fourteen_items(rng):
    m = structured32(rng)
    items = analyze(m).items
    assert len(items) == 14 and compile_matrix(m).layout.m == 4
    assert all(it.phase == 1 for it in items)
    assert all(it.magnitude > 0 for it in items)


def test_zero_valued_entries_rejected_as_empty():
    m = SparseMatrix.from_entries(1, ((0, 0, 0j),))
    with pytest.raises(BadInput, match="matrix has no nonzero entries"):
        analyze(m)


def test_bad_dimension_rejected():
    with pytest.raises(BadInput, match="dimension 3 is not a power of two"):
        matrix_from_dict({"dim": 3, "entries": [{"row": 0, "col": 0, "re": 1}]})


def test_matrix_is_unequal_to_a_non_matrix():
    m = SparseMatrix.from_entries(1, ((0, 0, 1 + 0j),))
    assert m != "m" and not m == 1


def test_duplicate_entries_rejected():
    with pytest.raises(BadInput):
        SparseMatrix.from_entries(1, ((0, 0, 1 + 0j), (0, 0, 2 + 0j)))


@pytest.mark.parametrize("build", [
    lambda: SparseMatrix(1, [0, 1], [0], [1.0]),  # arrays of different lengths
    lambda: SparseMatrix(1, [0.0], [0], [1.0]),  # float coordinates
    lambda: SparseMatrix(1, [0], [0], ["1"]),  # string values
    lambda: SparseMatrix(1, [0], [0], [True]),  # bool values array
    lambda: SparseMatrix.from_entries(1, ((0, 0, np.True_),)),
    lambda: SparseMatrix.from_entries(1, ((0, 0, True),)),
    lambda: SparseMatrix.from_entries(1, ((0, 0, 1.0, 99), (1, 1, 2.0))),  # a fourth field
    lambda: SparseMatrix.from_entries(1, ((0, 0, 1.0), (1, 1))),  # a pair among triples
    lambda: SparseMatrix.from_entries(1, [5]),  # an entry that is no sequence
], ids=["lengths", "float-coords", "str-values", "bool-array", "numpy-bool", "bool",
        "quadruple", "pair", "scalar-entry"])
def test_bad_entries_rejected(build):
    with pytest.raises(BadInput):
        build()


def test_unreadable_matrix_file_rejected(tmp_path):
    with pytest.raises(BadInput):
        load_matrix(tmp_path / "missing.json")
    (tmp_path / "bad.json").write_text("{not json")
    with pytest.raises(BadInput):
        load_matrix(tmp_path / "bad.json")


def test_plan_band_shift_decomposition():
    # band five columns below the diagonal: left shift 5 = 1 + 4
    entries = tuple((r, r - 5, 0.9 + 0j) for r in range(10, 32))
    entries += tuple((i, i, 0.4 + 0j) for i in range(32))
    m = SparseMatrix.from_entries(5, entries)
    plan = analyze(m)
    band = next(it for it in plan.items if it.direction == "L")
    assert band.amount == 5 and band.powers == (1, 4)
    assert band.mode == "delete" and band.delete_rows == tuple(range(10))


def test_plan_single_value_cyclic_subdiagonal():
    dim = 8
    entries = tuple(((i + 1) % dim, i, 0.6 + 0j) for i in range(dim))
    plan = analyze(SparseMatrix.from_entries(3, entries))
    item = plan.items[0]
    assert item.direction == "L" and item.amount == 1
    assert item.mode == "none" and not item.delete_rows and not item.insert_rows


def test_plan_isolated_entry_below_diagonal_prefers_left():
    # an isolated cell far below the diagonal keeps the left shift even though
    # the cyclic right distance is shorter
    entries = ((28, 4, 0.5 + 0j),) + tuple((i, i, 0.3 + 0j) for i in range(32))
    plan = analyze(SparseMatrix.from_entries(5, entries))
    cell = next(it for it in plan.items if it.mode == "insert")
    assert cell.direction == "L" and cell.amount == 24 and cell.powers == (8, 16)
    assert cell.insert_rows == (28,)


def test_plan_insert_vs_delete_threshold():
    # present rows <= absent rows switches the item to insert mode
    entries = tuple((r, r, 1 + 0j) for r in range(3))
    plan = analyze(SparseMatrix.from_entries(2, entries))
    item = plan.items[0]
    assert item.mode == "delete" and item.delete_rows == (3,)
    entries = tuple((r, r, 1 + 0j) for r in range(2))
    plan = analyze(SparseMatrix.from_entries(2, entries))
    item = plan.items[0]
    assert item.mode == "insert" and item.insert_rows == (0, 1)


def test_single_entry_plan_costs_nnz_not_dim():
    # n = 40: a row set of the matrix dimension could not even be allocated
    start = time.perf_counter()
    enc = compile_matrix(SparseMatrix.from_entries(40, ((3, 5, 0.5 + 0j),)))
    assert time.perf_counter() - start < 1.0
    (item,) = enc.plan.items
    assert item.mode == "insert" and item.insert_rows == (3,) and not item.delete_rows
    assert enc.circuit.n_qubits == 41


def test_diagonal_strategy_difference_encoding():
    entries = tuple((r, r, 0.8 + 0j) for r in range(5))
    entries += tuple((r, r, 0.85 + 0j) for r in range(5, 32))
    m = SparseMatrix.from_entries(5, entries)
    plan = analyze(m, "auto")
    assert plan.strategy == 2
    # one item is the small difference deleted on the low rows, the other the
    # shared value on every row
    diff = next(it for it in plan.items if it.delete_rows == tuple(range(5)))
    rest = next(it for it in plan.items if it.mode == "none")
    assert np.isclose(diff.magnitude, 0.05)
    assert np.isclose(rest.magnitude, 0.8)
    assert np.isclose(sum(it.magnitude for it in plan.items), 0.85)


def test_diagonal_strategy_third_form():
    entries = tuple((r, r, 0.85 + 0j) for r in range(5))
    entries += tuple((r, r, 0.8 + 0j) for r in range(5, 32))
    plan = analyze(SparseMatrix.from_entries(5, entries), "auto")
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
        m = SparseMatrix.from_entries(3, entries)
        weights = {}
        for strat in (1, 2, 3, "auto"):
            plan = analyze(m, strat)
            weights[strat] = sum(it.magnitude for it in plan.items)
            assert np.abs(reconstruct(plan) - dense(m)).max() <= 1e-12
        assert weights["auto"] <= weights[1] + 1e-15


def test_strategy_requires_two_values():
    entries = tuple((r, r, 0.5 + 0j) for r in range(4))
    plan = analyze(SparseMatrix.from_entries(2, entries), 2)
    assert plan.strategy is None


@pytest.mark.parametrize("strategy", ["abc", 7, 2.5, True, None])
def test_bad_strategy_is_bad_input(strategy):
    # checked on entry, whether or not the diagonal holds two distinct values
    for m in (SparseMatrix.from_entries(1, ((0, 0, 0.5), (1, 1, 0.25))),
              SparseMatrix.from_entries(1, ((0, 1, 0.5),))):
        with pytest.raises(BadInput):
            analyze(m, strategy)


def test_shared_shift_for_real_and_imaginary_parts():
    m = tridiagonal(3, complex(0.3, -0.2), complex(-0.5, 0.4), complex(0.7, 0.6))
    plan = analyze(m)
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
        plan = analyze(SparseMatrix.from_entries(n, entries))
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
        m = SparseMatrix.from_entries(n, entries)
        plan = analyze(m, strategy=1)
        assert np.array_equal(reconstruct(plan), dense(m))


def test_subnormalization_values():
    m = tridiagonal(3, complex(0.3, -0.2), complex(-0.5, 0.4), complex(0.7, 0.6))
    assert np.isclose(compile_matrix(m).alpha, 0.3 + 0.2 + 0.5 + 0.4 + 0.7 + 0.6)


def test_alpha_bounds_row_and_column_sums(rng):
    for seed in range(20):
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 4))
        dim = 1 << n
        cells = {(int(r.integers(dim)), int(r.integers(dim))) for _ in range(2 * dim)}
        m = SparseMatrix.from_entries(n, tuple((a, b, complex(r.normal(), r.normal()))
                                               for a, b in cells))
        alpha = compile_matrix(m).alpha
        magnitudes = np.abs(dense(m))
        assert alpha >= magnitudes.sum(axis=0).max() - 1e-12
        assert alpha >= magnitudes.sum(axis=1).max() - 1e-12


def test_json_round_trip(tmp_path):
    m = tridiagonal(2, 0.1 + 0.2j, -0.3 + 0j, 0.5 - 0.6j)
    path = tmp_path / "m.json"
    save_matrix(m, path)
    back = load_matrix(path)
    assert back == m
    doc = json.loads(path.read_text())
    assert doc["dim"] == 4 and {"row", "col", "re", "im"} == set(doc["entries"][0])


def test_matrix_equality_compares_n_and_every_array():
    entries = ((0, 1, 0.5 + 0j), (1, 0, -0.25j))
    m = SparseMatrix.from_entries(1, entries)
    assert m == SparseMatrix.from_entries(1, entries[::-1])
    assert m != SparseMatrix.from_entries(1, ((0, 1, 0.5 + 0j), (1, 0, 0.25j)))
    assert m != SparseMatrix.from_entries(1, ((0, 1, 0.5 + 0j), (1, 1, -0.25j)))
    assert m != SparseMatrix.from_entries(2, entries)


# SHA-256 of the files the per-entry matrix form wrote for the same matrices
_SAVED_DIGESTS = {
    "tridiagonal": "8620cbfe7126b49cbfad5e1c75022066322a776fdd3f6355de453f0798f1a137",
    "structured32": "b52373be0d4fec7912f9d96fed4666e0569f66cc81a70bddab3d77bf22b2608b",
    "signed-zero": "b7eeb7946a87905f779ea14f8af93ced3bb65157be91337cae9caaccb2b2a3e0",
}


@pytest.mark.parametrize("name", list(_SAVED_DIGESTS))
def test_saved_matrix_bytes_unchanged(tmp_path, name):
    if name == "tridiagonal":
        m = tridiagonal(3, 0.3 - 0.2j, -0.5 + 0.4j, 0.7 + 0.6j)
    elif name == "structured32":
        m = structured32(np.random.default_rng(42))
    else:  # -0.0 parts and integer-valued parts, listed out of order
        m = matrix_from_dict({"dim": 2, "entries": [
            {"row": 1, "col": 0, "re": -0.0, "im": 2},
            {"row": 0, "col": 1, "re": 3, "im": -0.0},
            {"row": 0, "col": 0, "re": -1}]})
    path = tmp_path / "m.json"
    save_matrix(m, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _SAVED_DIGESTS[name]
    assert load_matrix(path) == m


def test_dimension_limit_is_int64_labels():
    # n = 62: the last row, its column and the cyclic offset all fit in int64;
    # the digest is the IR the per-entry ingest path compiled for this entry
    dim = 1 << 62
    m = matrix_from_dict({"dim": dim, "entries": [
        {"row": dim - 1, "col": dim - 2, "re": 0.5, "im": -0.25}]})
    enc = compile_matrix(m)
    text = export_text(enc.circuit, {"alpha": enc.alpha})
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "da3d9e868d7f8ca1d2f0e83f073ab0a021a62b1007f2605b7709380be9df4f9c"
    with pytest.raises(BadInput, match=r"dimension 9223372036854775808 is above 2\*\*62"):
        matrix_from_dict({"dim": 2 * dim, "entries": [{"row": 0, "col": 0, "re": 1.0}]})
    with pytest.raises(BadInput, match=r"matrix qubit count 63 outside 0\.\.62"):
        SparseMatrix.from_entries(63, ((0, 0, 1 + 0j),))


_PARTS = (0.0, -0.0, 0.5, -0.5, 1.0, 0.25, 1)  # 1: an integer-valued part

# One malformed field (or entry) planted in an otherwise valid document.
_CORRUPTIONS = {
    "bool-row": lambda e, dim: e.update(row=True),
    "float-col": lambda e, dim: e.update(col=1.0),
    "huge-row": lambda e, dim: e.update(row=1 << 70),
    "row-2-to-62": lambda e, dim: e.update(row=1 << 62),
    "col-at-dim": lambda e, dim: e.update(col=dim),
    "negative-col": lambda e, dim: e.update(col=-1),
    "string-re": lambda e, dim: e.update(re="1"),
    "bool-re": lambda e, dim: e.update(re=False),
    "huge-re": lambda e, dim: e.update(re=10 ** 400),
    "nan-im": lambda e, dim: e.update(im=float("nan")),
    "no-col": lambda e, dim: e.pop("col"),
}


def _plant(defect: str, entries: list, at: int, dim: int) -> None:
    if defect == "entry-not-object":
        entries[at] = [entries[at]["row"], entries[at]["col"]]
    else:
        _CORRUPTIONS[defect](entries[at], dim)


_DEFECTS = [*_CORRUPTIONS, "entry-not-object"]


@st.composite
def _matrix_docs(draw):
    """Matrix documents with repeated values, signed zeros and, at times, one defect."""
    n = draw(st.integers(0, 5))
    dim = 1 << n
    part = st.sampled_from(_PARTS)
    index = st.integers(0, dim - 1)
    cells = {}
    if draw(st.booleans()):  # two values on the main diagonal
        low, high = (draw(part), draw(part)), (draw(part), draw(part))
        if draw(st.booleans()):  # as two runs covering it
            split = draw(st.integers(0, dim))
            for r in range(dim):
                cells[r, r] = low if r < split else high
        else:  # interleaved on some rows
            for r in draw(st.sets(index)):
                cells[r, r] = draw(st.sampled_from((low, high)))
    for _ in range(draw(st.integers(0, 2))):  # one value along several offsets
        value = (draw(part), draw(part))
        for off in draw(st.lists(index, max_size=3)):
            start = draw(index)
            for r in range(start, draw(st.integers(start, dim))):
                cells[r, (r + off) % dim] = value
    for r, c, re, im in draw(st.lists(st.tuples(index, index, part, part), max_size=dim + 2)):
        cells[r, c] = re, im
    entries = []
    for (r, c), (re, im) in cells.items():
        e = {"row": r, "col": c, "re": re}
        if im != 0 or draw(st.booleans()):
            e["im"] = im
        entries.append(e)
    entries = draw(st.permutations(entries))
    if entries and draw(st.integers(0, 9)) == 9:
        entries.append(dict(entries[draw(st.integers(0, len(entries) - 1))]))
    if draw(st.integers(0, 3)) == 3:
        entries = entries or [{"row": 0, "col": 0, "re": 1.0}]
        _plant(draw(st.sampled_from(_DEFECTS)), entries,
               draw(st.integers(0, len(entries) - 1)), dim)
    return {"dim": dim, "entries": entries}


def _ingest(read, plan, doc):
    """Sorted entries and the plan under each strategy, or the error class raised."""
    try:
        m = read(doc)
    except BlockencError as exc:
        return type(exc)
    if isinstance(m, SparseMatrix):
        triples = list(zip(m.rows.tolist(), m.cols.tolist(), m.values.tolist()))
    else:
        triples = list(m.entries)
    out = [triples]
    for strategy in ("auto", 1, 2, 3):
        try:
            out.append(plan(m, strategy))
        except BlockencError as exc:
            out.append(type(exc))
    return out


@settings(max_examples=200, deadline=None)
@given(_matrix_docs())
def test_columnar_ingest_matches_per_entry_reference(doc):
    assert _ingest(matrix_from_dict, analyze, doc) == \
        _ingest(reference_matrix_from_dict, reference_analyze, doc)


def _band_doc(n: int, offset: int, rows) -> dict:
    """A band at a cyclic offset on the given rows, with the main diagonal's
    other rows at a second value, so that every strategy has two values."""
    dim = 1 << n
    entries = [{"row": r, "col": (r + offset) % dim, "re": 0.5, "im": -0.25} for r in rows]
    if offset == 0:
        entries += [{"row": r, "col": r, "re": 0.0, "im": 0.75}
                    for r in range(dim) if r not in rows]
    else:
        entries += [{"row": r, "col": r, "re": 0.25 if r < dim // 2 else -1.0}
                    for r in range(dim)]
    return {"dim": dim, "entries": entries}


@pytest.mark.parametrize("n", range(2, 7))
def test_band_groups_match_reference_at_every_offset(n):
    # the wrapped counts are taken for all groups at once; bands whose rows
    # wrap past the last column on none, some or all of their rows
    dim = 1 << n
    for offset in range(dim):
        edge = dim - offset  # rows from here on wrap
        row_sets = {"none": range(edge), "all": range(edge, dim), "some": range(dim),
                    "straddle": range(max(edge - 2, 0), min(edge + 1, dim))}
        if offset == 0:  # the main diagonal wraps nowhere; half of it, beside a second value
            row_sets = {"none": range(dim // 2)}
        for name, rows in row_sets.items():
            if not rows:
                continue
            doc = _band_doc(n, offset, rows)
            assert _ingest(matrix_from_dict, analyze, doc) == \
                _ingest(reference_matrix_from_dict, reference_analyze, doc), (offset, name)


@pytest.mark.parametrize("defect", _DEFECTS)
def test_malformed_document_fails_as_in_reference(defect):
    entries = [{"row": r, "col": (r + 1) % 4, "re": 0.5, "im": -0.0} for r in range(4)]
    _plant(defect, entries, 2, 4)
    doc = {"dim": 4, "entries": entries}
    assert _ingest(matrix_from_dict, analyze, doc) is BadInput
    assert _ingest(reference_matrix_from_dict, reference_analyze, doc) is BadInput


def test_structured32_needs_fourteen_distinct_values():
    class Repeating:  # an rng whose uniform draws are all equal
        def uniform(self, low, high, size):
            return np.full(size, (low + high) / 2)

    with pytest.raises(BadInput, match="distinct"):
        structured32(Repeating())
