"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Tolerances are fixed here and match the package contracts:
reproduction 1e-9, loader amplitudes 1e-10, diagonal check 1e-10,
unitary residuals 1e-12, fusion and permutation identities exact.
"""

import time
from itertools import combinations, product

import numpy as np

from blockenc.assignment import (Bijection, build_target_set, hamming,
                                 mode_pattern, solve_assignment)
from blockenc.demo import random_tridiagonal, structured32, tridiagonal
from blockenc.ingest import SparseMatrix
from blockenc.ir import Circuit, circuit_unitary, unitarity_residual
from blockenc.mcx import ControlSet, is_reducible, reduce_composition
from blockenc.permute import permute_circuit, permute_inverse
from blockenc.pipeline import CompileConfig, compile_matrix
from blockenc.state_prep import prep_target, synthesize_prep
from blockenc.verify import extract_block, verify

from conftest import (as_strings, assert_permutation_matrix, brute_force_assignment,
                      brute_force_reducible, composition_unitary,
                      random_control_set)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} [{name}]: {status} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_tridiagonal_reproduction():
    worst = 0.0
    slowest = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m = random_tridiagonal(3, rng)
        t0 = time.perf_counter()
        enc = compile_matrix(m)
        report = verify(m, enc, tol=1e-9)
        elapsed = time.perf_counter() - t0
        worst = max(worst, report.max_abs_error)
        slowest = max(slowest, elapsed)
        assert enc.layout.m == 3 and enc.layout.n == 3
        if not report.passed or elapsed >= 1.0:
            _report(1, "tridiagonal", False,
                    f"seed {seed}: err {report.max_abs_error:.2e}, {elapsed:.2f}s")
    _report(1, "tridiagonal", True,
            f"100 instances, worst error {worst:.2e}, slowest {slowest*1000:.0f}ms")


def test_criterion_2_structured32_reproduction():
    rng = np.random.default_rng(42)
    m = structured32(rng)
    t0 = time.perf_counter()
    enc = compile_matrix(m, CompileConfig(strategy=2))
    report = verify(m, enc, tol=1e-9)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 10.0
    assert enc.layout.m == 4 and enc.layout.n == 5 and enc.layout.total == 10

    # shift decomposition of every item matches the known plan
    decomp = {(it.direction, it.amount): it.powers
              for it in enc.plan.items if it.direction}
    expected_decomp = {
        ("L", 5): (1, 4), ("L", 1): (1,), ("R", 1): (1,), ("R", 5): (1, 4),
        ("L", 6): (2, 4), ("L", 9): (1, 8), ("L", 11): (1, 2, 8),
        ("L", 14): (2, 4, 8), ("L", 16): (16,), ("L", 19): (1, 2, 16),
        ("L", 21): (1, 4, 16), ("L", 24): (8, 16),
    }
    ok &= decomp == expected_decomp

    # common-operator grouping: each power-of-two shift collects exactly the
    # items whose amounts contain it, and the unit left shift borrows the two
    # zero slots to reach a power-of-two member count
    groups = {g["op"]: g for g in enc.stats["shift_groups"]}
    expect = {}
    for it in enc.plan.items:
        for p in it.powers:
            expect.setdefault(f"{it.direction}{p}", set()).add(it.index)
    ok &= {op: set(g["items"]) for op, g in groups.items()} == expect
    ok &= set(groups) == {"L1", "L2", "L4", "L8", "L16", "R1", "R4"}
    ok &= groups["L1"]["pads"] == [14, 15]
    _report(2, "structured 32x32", ok,
            f"err {report.max_abs_error:.2e}, {elapsed:.1f}s, "
            f"groups {sorted(groups)}")


def test_criterion_3_fusion_round_trip():
    rng = np.random.default_rng(9)
    checked = 0
    for P in range(1, 5):
        for n in range(0, P + 1):
            for fixed in combinations(range(P), P - n):
                for bits in product("01", repeat=P - n):
                    free = [i for i in range(P) if i not in fixed]
                    strings = set()
                    for fb in product("01", repeat=len(free)):
                        chars = [""] * P
                        for i, c in zip(fixed, bits):
                            chars[i] = c
                        for i, c in zip(free, fb):
                            chars[i] = c
                        strings.add("".join(chars))
                    s2 = ControlSet(P, frozenset(int(s, 2) for s in strings))
                    red = is_reducible(s2)
                    assert red is not None
                    target = int(rng.integers(0, P + 1))
                    fused = reduce_composition(s2, target)
                    from blockenc.ir import gate_unitary
                    if not np.array_equal(gate_unitary(fused, P + 1),
                                          composition_unitary(s2, target)):
                        _report(3, "fusion round trip", False, f"P={P} n={n}")
                    checked += 1
    rejected = 0
    while rejected < 1000:
        P = int(rng.integers(2, 5))
        n = int(rng.integers(1, P))
        s2 = random_control_set(rng, P, 1 << n)
        reducible = brute_force_reducible(as_strings(s2.labels, P))
        mine = is_reducible(s2) is not None
        assert mine == reducible
        if not reducible:
            rejected += 1
    _report(3, "fusion round trip", True,
            f"{checked} exhaustive reducible sets exact, {rejected} irreducible rejected")


_UNIT_SHIFT_GROUP = [0b0000, 0b0001, 0b0111, 0b1000, 0b1011, 0b1100, 0b1110, 0b1111]
_UNIT_SHIFT_REFERENCE = {0b0000: 0b0000, 0b0001: 0b0010, 0b0111: 0b0110,
                         0b1000: 0b1000, 0b1011: 0b1010, 0b1100: 0b1100,
                         0b1110: 0b1110, 0b1111: 0b0100}
_ROW_GROUP = [0, 5, 10, 15, 20, 25, 30, 31]
_ROW_GROUP_REFERENCE = {0: 24, 5: 29, 10: 26, 15: 27, 20: 28, 25: 25, 30: 30, 31: 31}


def test_criterion_4_assignment_optimality():
    rng = np.random.default_rng(4)
    for trial in range(1000):
        P = int(rng.integers(2, 7))
        size = int(rng.integers(1, min(6, 1 << P) + 1))
        src = random_control_set(rng, P, size)
        dst = random_control_set(rng, P, size)
        phi = solve_assignment(src, dst)
        expect = brute_force_assignment(as_strings(src.labels, P), as_strings(dst.labels, P))
        if phi.cost != expect:
            _report(4, "assignment optimality", False,
                    f"trial {trial}: {phi.cost} != {expect}")

    # reference instance: sources 0,1,4,7 onto the reducible set 0..3
    s2 = ControlSet(3, {0b000, 0b001, 0b100, 0b111})
    s3 = build_target_set(0b100, mode_pattern(s2, 0b100), 3)
    phi = solve_assignment(s2, s3)
    ok = phi.mapping == {0b000: 0b000, 0b001: 0b001, 0b100: 0b010, 0b111: 0b011}
    ok &= phi.cost == 3 == brute_force_assignment(as_strings(s2.labels, 3),
                                                  as_strings(s3.labels, 3))

    # data-register instance: cost equals the reference mapping's cost
    s2 = ControlSet(4, frozenset(_UNIT_SHIFT_GROUP))
    s3 = build_target_set(0b0001, mode_pattern(s2, 0b0001), 4)
    phi = solve_assignment(s2, s3)
    reference = sum(hamming(a, b) for a, b in _UNIT_SHIFT_REFERENCE.items())
    ok &= phi.cost == reference == brute_force_assignment(as_strings(s2.labels, 4),
                                                          as_strings(s3.labels, 4))

    # matrix-register instance over five bits
    rows = ControlSet(5, frozenset(_ROW_GROUP))
    s3 = build_target_set(0b11000, mode_pattern(rows, 0b11000), 5)
    phi = solve_assignment(rows, s3)
    reference = sum(hamming(a, b) for a, b in _ROW_GROUP_REFERENCE.items())
    ok &= phi.cost == reference == brute_force_assignment(as_strings(rows.labels, 5),
                                                          as_strings(s3.labels, 5))
    _report(4, "assignment optimality", ok,
            "1000 random == brute force; reference mappings' costs matched")


def test_criterion_5_permutation_contract():
    rng = np.random.default_rng(5)
    for trial in range(500):
        P = int(rng.integers(1, 6))
        size = int(rng.integers(1, (1 << P) + 1))
        src = rng.choice(1 << P, size=size, replace=False)
        dst = rng.choice(1 << P, size=size, replace=False)
        s = {int(v) for v in src}
        t = {int(v) for v in dst}
        common = s & t
        rs, rt = sorted(s - common), sorted(t - common)
        rt = [rt[i] for i in rng.permutation(len(rt))]
        pairs = tuple(sorted([(c, c) for c in common] + list(zip(rs, rt))))
        phi = Bijection(pairs, sum(hamming(a, b) for a, b in pairs), P)
        circ = permute_circuit(phi)
        u = circuit_unitary(circ)
        assert_permutation_matrix(u.real)
        for a, b in pairs:
            if u[b, a] != 1:
                _report(5, "coherent permutation", False, f"trial {trial}")
        inv = permute_inverse(circ)
        comp = circuit_unitary(Circuit(P, circ.gates + inv.gates))
        if not np.array_equal(comp, np.eye(1 << P)):
            _report(5, "coherent permutation", False, f"inverse trial {trial}")
    _report(5, "coherent permutation", True, "500 random bijections exact")


def test_criterion_6_fusion_benefit():
    rng = np.random.default_rng(42)
    m = structured32(rng)
    fused = compile_matrix(m, CompileConfig(strategy=2))
    naive = compile_matrix(m, CompileConfig(strategy=2, naive=True))
    l1 = next(g for g in fused.stats["shift_groups"] if g["op"] == "L1")
    ok = l1["fused_data_width"] == 1 and l1["naive_data_width"] == 4
    ok &= fused.stats["fused_mcx"] < naive.stats["naive_mcx"]
    diff = np.abs(circuit_unitary(fused.circuit) - circuit_unitary(naive.circuit)).max()
    ok &= diff <= 1e-12
    _report(6, "fusion benefit", ok,
            f"L1 width {l1['fused_data_width']} vs {l1['naive_data_width']}, "
            f"mcx {fused.stats['fused_mcx']} vs {naive.stats['naive_mcx']}, "
            f"unitary diff {diff:.1e}")


def _regression_matrices():
    yield "tridiagonal", tridiagonal(3, 0.3 - 0.2j, -0.5 + 0.4j, 0.7 + 0.6j)
    yield "random tridiagonal", random_tridiagonal(3, np.random.default_rng(17))
    yield "structured32", structured32(np.random.default_rng(42))
    yield "scaled identity", SparseMatrix(2, tuple((i, i, 0.2 - 0.9j) for i in range(4)))
    yield "isolated cells", SparseMatrix(2, ((3, 0, 0.4 - 0.2j), (0, 2, -0.7 + 0j),
                                             (2, 2, 0.1 + 0.9j)))


def test_criterion_7_diagonal_form():
    worst = 0.0
    for name, m in _regression_matrices():
        enc = compile_matrix(m, CompileConfig(skip_index_map=True))
        block = extract_block(circuit_unitary(enc.circuit), enc.layout)
        eta = sum(p * v for p, v in zip(enc.signs.phases, enc.data.items)) / enc.alpha
        err = np.abs(block - eta * np.eye(m.dim)).max()
        worst = max(worst, err)
        if err > 1e-10:
            _report(7, "diagonal form", False, f"{name}: {err:.2e}")
    _report(7, "diagonal form", True, f"worst deviation {worst:.2e}")


def test_criterion_8_property_suites():
    rng = np.random.default_rng(8)
    from blockenc.index_map import delete_group, shift_cascade
    from blockenc.ir import RegisterLayout

    # opposite shifts cancel
    for _ in range(20):
        m_q, n_q = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        lay = RegisterLayout(m_q, n_q)
        cube = ((1 << m_q) - 1, int(rng.integers(0, 1 << m_q)))
        amount = 1 << int(rng.integers(0, n_q))
        left = shift_cascade(cube, "L", amount, lay)
        right = shift_cascade(cube, "R", amount, lay)
        u = circuit_unitary(Circuit(lay.total, tuple(left + right)))
        assert np.array_equal(u, np.eye(1 << lay.total))

    # deleting twice restores the delete qubit
    for _ in range(20):
        lay = RegisterLayout(1, 3)
        rows = set(int(v) for v in rng.choice(8, size=int(rng.integers(1, 9)),
                                              replace=False))
        _, gates = delete_group([int(rng.integers(0, 2))], rows, lay)
        u = circuit_unitary(Circuit(lay.total, tuple(gates + gates)))
        assert np.array_equal(u, np.eye(1 << lay.total))

    # loader amplitudes match the target componentwise
    worst_amp = 0.0
    for _ in range(50):
        s = int(rng.integers(1, 9))
        items = tuple(float(v) for v in rng.uniform(0.05, 1.0, size=s))
        phases = tuple(complex(rng.choice([1, -1, 1j, -1j])) for _ in range(s))
        from blockenc.ingest import DataVector, SignVector
        data, signs = DataVector(items), SignVector(phases)
        circ = synthesize_prep(data, signs)
        state = circuit_unitary(circ)[:, 0] if circ.n_qubits else np.array(
            [np.exp(1j * circ.global_phase)])
        worst_amp = max(worst_amp, float(np.abs(state - prep_target(data, signs)).max()))
    ok = worst_amp <= 1e-10

    # every compiled circuit stays unitary
    worst_res = 0.0
    for name, m in _regression_matrices():
        for cfg in (CompileConfig(), CompileConfig(naive=True),
                    CompileConfig(defer_restore=True)):
            enc = compile_matrix(m, cfg)
            worst_res = max(worst_res, unitarity_residual(circuit_unitary(enc.circuit)))
    ok &= worst_res <= 1e-12
    _report(8, "property suites", ok,
            f"loader error {worst_amp:.2e}, unitarity residual {worst_res:.2e}")
