import numpy as np

from blockenc.demo import random_tridiagonal, structured32, tridiagonal
from blockenc.ingest import SparseMatrix
from blockenc.ir import circuit_unitary, unitarity_residual
from blockenc.pipeline import CompileConfig, compile_matrix, format_stats, stats_report
from blockenc.state_prep import synthesize_prep
from blockenc.verify import extract_block, verify


def test_tridiagonal_structure_and_block(rng):
    m = tridiagonal(3, complex(0.4, -0.3), complex(-0.6, 0.2), complex(0.5, 0.7))
    enc = compile_matrix(m)
    assert enc.layout.m == 3 and enc.layout.n == 3 and enc.layout.total == 7
    # two fused shift groups: a unit left shift for the subdiagonal pair and a
    # unit right shift for the superdiagonal pair
    groups = {g["op"]: g for g in enc.stats["shift_groups"]}
    assert set(groups) == {"L1", "R1"}
    assert groups["L1"]["items"] == [0, 1] and groups["L1"]["mode"] == "direct"
    assert groups["R1"]["items"] == [4, 5] and groups["R1"]["mode"] == "direct"
    assert groups["L1"]["fused_data_width"] == 2  # one shared don't-care
    # each band deletes one boundary row with a single fused gate
    assert [g["rows"] for g in enc.stats["delete_groups"]] == [[0], [7]]
    assert all(g["fused_mcx"] == 1 for g in enc.stats["delete_groups"])
    assert verify(m, enc).passed


def test_scaled_identity_reduces_to_loaders():
    m = SparseMatrix(2, tuple((i, i, 0.3 - 0.4j) for i in range(4)))
    enc = compile_matrix(m)
    assert enc.stats["fused_mcx"] == 0  # nothing to relocate
    block = extract_block(circuit_unitary(enc.circuit), enc.layout)
    eta = (0.3 - 0.4j) / enc.alpha
    assert np.abs(block - eta * np.eye(4)).max() <= 1e-10
    assert np.isclose(enc.alpha, 0.7)


def test_negative_scaled_identity_global_phase():
    m = SparseMatrix(1, tuple((i, i, -0.5 + 0j) for i in range(2)))
    enc = compile_matrix(m)
    assert verify(m, enc).passed


def test_skip_index_map_gives_diagonal(rng):
    m = random_tridiagonal(3, rng)
    enc = compile_matrix(m, CompileConfig(skip_index_map=True))
    block = extract_block(circuit_unitary(enc.circuit), enc.layout)
    eta = sum(p * v for p, v in zip(enc.signs.phases, enc.data.items)) / enc.alpha
    assert np.abs(block - eta * np.eye(8)).max() <= 1e-10


def test_fused_and_naive_unitaries_identical(rng):
    for seed in range(6):
        r = np.random.default_rng(seed)
        m = random_tridiagonal(3, r)
        fused = compile_matrix(m)
        naive = compile_matrix(m, CompileConfig(naive=True))
        uf = circuit_unitary(fused.circuit)
        un = circuit_unitary(naive.circuit)
        assert np.abs(uf - un).max() <= 1e-12


def _random_sparse(seed: int, n: int, count: int) -> SparseMatrix:
    """count distinct cells of a 2**n matrix with distinct complex values."""
    r = np.random.default_rng(seed)
    dim = 1 << n
    cells = r.choice(dim * dim, size=count, replace=False)
    return SparseMatrix(n, tuple((int(c) // dim, int(c) % dim,
                                  complex(r.uniform(0.1, 1), r.uniform(-1, -0.1)))
                                 for c in cells))


def test_fused_never_more_mcx_than_naive(rng):
    matrices = [tridiagonal(3, 0.2 + 0.1j, -0.4 + 0j, 0.3 - 0.2j),
                structured32(np.random.default_rng(5)),
                random_tridiagonal(2, np.random.default_rng(8)),
                _random_sparse(0, 2, 6)]
    for m in matrices:
        enc = compile_matrix(m)
        assert enc.stats["fused_mcx"] <= enc.stats["naive_mcx"]
        # the naive count derived from the per-group stats is the index-map
        # length of the circuit a naive compile builds
        naive = compile_matrix(m, CompileConfig(naive=True)).stats
        assert enc.stats["naive_mcx"] == naive["total_gates"] - naive["state_prep_gates"]


def test_structured32_plan_and_groups(rng):
    m = structured32(rng)
    enc = compile_matrix(m, CompileConfig(strategy=2))
    assert enc.layout.total == 10 and enc.layout.m == 4

    by_shift = {}
    for it in enc.plan.items:
        if it.direction:
            by_shift.setdefault((it.direction, it.amount), set()).add(it.index)
    # band and isolated-cell shift decompositions
    decomp = {(it.direction, it.amount): it.powers
              for it in enc.plan.items if it.direction}
    assert decomp[("L", 5)] == (1, 4)
    assert decomp[("L", 24)] == (8, 16)
    assert decomp[("L", 19)] == (1, 2, 16)
    assert decomp[("R", 5)] == (1, 4)

    groups = {g["op"]: g for g in enc.stats["shift_groups"]}
    members = {op: set(g["items"]) for op, g in groups.items()}
    item_for = {it.index: it for it in enc.plan.items}
    expect = {op: set() for op in ("L1", "L2", "L4", "L8", "L16", "R1", "R4")}
    for it in enc.plan.items:
        for p in it.powers:
            expect[f"{it.direction}{p}"].add(it.index)
    assert members == expect
    # the six-member unit left shift borrows both zero slots
    assert groups["L1"]["pads"] == [14, 15]
    assert groups["L1"]["mode"] == "padded-permute"
    assert verify(m, enc).passed


def test_structured32_auto_strategy_verifies(rng):
    m = structured32(rng)
    enc = compile_matrix(m)
    assert verify(m, enc).passed


def test_defer_restore_equivalent_block(rng):
    for seed in range(4):
        r = np.random.default_rng(seed)
        m = random_tridiagonal(3, r)
        default = compile_matrix(m)
        deferred = compile_matrix(m, CompileConfig(defer_restore=True))
        b0 = extract_block(circuit_unitary(default.circuit), default.layout)
        b1 = extract_block(circuit_unitary(deferred.circuit), deferred.layout)
        assert np.abs(b0 - b1).max() <= 1e-12
        assert verify(m, deferred).passed


def test_defer_restore_structured(rng):
    m = structured32(rng)
    deferred = compile_matrix(m, CompileConfig(strategy=2, defer_restore=True))
    assert verify(m, deferred).passed


def test_every_compiled_circuit_is_unitary(rng):
    matrices = [tridiagonal(2, 0.2 + 0.1j, -0.4 + 0.3j, 0.3 - 0.2j),
                SparseMatrix(2, ((3, 0, 1j), (0, 0, 0.5 + 0j))),
                random_tridiagonal(3, np.random.default_rng(1)),
                _random_sparse(0, 2, 6)]  # permute-wrapped shifts, deferred restore
    for m in matrices:
        for cfg in (CompileConfig(), CompileConfig(naive=True),
                    CompileConfig(defer_restore=True),
                    CompileConfig(skip_index_map=True)):
            enc = compile_matrix(m, cfg)
            assert unitarity_residual(circuit_unitary(enc.circuit)) <= 1e-12
            # fused_mcx is the sum of the per-group gate counts, plus the
            # final restore under defer_restore: data-register swaps that
            # follow the groups
            s = enc.stats
            groups = (sum(g["fused_mcx"] for g in s["shift_groups"] + s["delete_groups"])
                      + s["insert"].get("fused_mcx", 0))
            restore = s["fused_mcx"] - groups
            if cfg.defer_restore:
                start = len(synthesize_prep(enc.data, enc.signs).gates) + groups
                assert restore >= 0
                assert all(g.kind == "mcx" and g.target in enc.layout.data_qubits
                           for g in enc.circuit.gates[start:start + restore])
            else:
                assert restore == 0


def test_isolated_cells_only(rng):
    entries = ((3, 0, 0.4 - 0.2j), (0, 2, -0.7 + 0j), (2, 2, 0.1 + 0.9j))
    m = SparseMatrix(2, entries)
    enc = compile_matrix(m)
    assert verify(m, enc).passed


def test_explicit_fixed_index_policy(rng):
    from blockenc.assignment import FixedIndexPolicy
    m = structured32(rng)
    cfg = CompileConfig(strategy=2,
                        data_policy=FixedIndexPolicy.left_ended(),
                        matrix_policy=FixedIndexPolicy.right_ended())
    enc = compile_matrix(m, cfg)
    assert verify(m, enc).passed


def test_stats_report_fields(rng):
    m = tridiagonal(3, 0.2 + 0.1j, -0.4 + 0.6j, 0.3 - 0.2j)
    enc = compile_matrix(m)
    rep = stats_report(enc)
    assert rep["alpha"] == enc.alpha
    assert rep["permutation_gates"] == 0  # all tridiagonal groups fuse directly
    assert rep["mcx_saving"] == rep["naive_mcx"] - rep["fused_mcx"]
    assert sum(rep["gate_counts"].values()) == rep["total_gates"]
    hist_total = sum(rep["mcx_width_histogram"].values())
    assert hist_total == rep["gate_counts"].get("mcx", 0)
    text = format_stats(enc)
    assert "alpha" in text and "shift" in text and "L1" in text


def test_two_item_group_halves_shift_layer(rng):
    # a complex subdiagonal band in a four-item dictionary: the pair of slots
    # fuses into one cascade with a single data control
    entries = tuple((r, r - 1, 0.5 + 0.25j) for r in range(1, 8))
    entries += tuple((r, r, 0.7 + 0j) for r in range(8))
    entries += tuple((r, r + 1, -0.3 + 0j) for r in range(7))
    m = SparseMatrix(3, entries)
    enc = compile_matrix(m)
    assert enc.layout.m == 2
    l1 = next(g for g in enc.stats["shift_groups"] if g["op"] == "L1")
    assert l1["fused_data_width"] == 1 and l1["naive_data_width"] == 2
    assert l1["fused_mcx"] * 2 == l1["naive_mcx"]
    assert verify(m, enc).passed


def test_random_sparse_matrices_all_modes(rng):
    for seed in range(25):
        r = np.random.default_rng(seed + 1000)
        n = int(r.integers(1, 4))
        dim = 1 << n
        count = int(r.integers(1, min(3 * dim, dim * dim) + 1))
        cells = set()
        while len(cells) < count:
            cells.add((int(r.integers(dim)), int(r.integers(dim))))
        entries = []
        for a, b in cells:
            re = float(r.normal()) if r.random() < 0.85 else 0.0
            im = float(r.normal()) if r.random() < 0.5 else 0.0
            if re or im:
                entries.append((a, b, complex(re, im)))
        if not entries:
            continue
        m = SparseMatrix(n, tuple(entries))
        for cfg in (CompileConfig(), CompileConfig(defer_restore=True),
                    CompileConfig(naive=True)):
            report = verify(m, compile_matrix(m, cfg))
            assert report.passed, (seed, cfg)


def test_full_cyclic_band_single_item():
    dim = 8
    entries = tuple(((i + 3) % dim, i, -0.8 + 0j) for i in range(dim))
    m = SparseMatrix(3, entries)
    enc = compile_matrix(m)
    assert enc.layout.m == 0  # single data item needs no data register
    assert verify(m, enc).passed


def test_no_zero_pad_flag(rng):
    m = structured32(rng)
    enc = compile_matrix(m, CompileConfig(strategy=2, zero_pad=False))
    assert all(g["pads"] == [] for g in enc.stats["shift_groups"])
    assert verify(m, enc).passed


def test_single_cell_matrix():
    m = SparseMatrix(1, ((1, 0, -0.25 + 0.5j),))
    enc = compile_matrix(m)
    assert verify(m, enc).passed


def test_defer_restore_pads_name_zero_slots():
    # pads are the zero-amplitude slots borrowed to reach a power of two; a
    # deferred restore must report them by their own index, never an item's
    for seed in range(3):
        m = structured32(np.random.default_rng(seed))
        for strategy in ("auto", 2):
            for cfg in (CompileConfig(strategy=strategy),
                        CompileConfig(strategy=strategy, defer_restore=True)):
                enc = compile_matrix(m, cfg)
                pads = [p for g in enc.stats["shift_groups"] for p in g["pads"]]
                assert pads == [14, 15]
                assert all(p >= enc.data.s for p in pads)
