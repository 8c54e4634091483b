"""The compiler's output against the benchmark's recorded goldens.

``bench/goldens.json`` pins the SHA-256 of the text IR of every benchmark
op; here every recorded seed, 0 to 9, is recompiled under the benchmark's
own configs and matrix documents, and each op's digest must match.  The
compile statistics are not in the goldens, so one digest per config pins
the sorted stats JSON and the ``format_stats`` report of every distinct
seed-0 matrix.  The assignments a random-sparse pass solves are pinned as a
count, so padded plans that the swap-count bound rules out stay unsolved.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import harness  # noqa: E402
import workloads  # noqa: E402

from blockenc.ingest import matrix_from_dict  # noqa: E402
from blockenc.ir import export_text  # noqa: E402
from blockenc.pipeline import compile_matrix, format_stats  # noqa: E402

# SHA-256 over json.dumps(stats, indent=2, sort_keys=True) + format_stats of
# every distinct seed-0 matrix in op-id order, as first recorded.
STATS_DIGESTS = {
    "default": "d1c45b75f69495c38884550ee8154409a18813f93ca5296ac3e712ac85190a55",
    "defer_restore": "2cadc282da2a4e2bd8c9d4bfe5e33898123c26d40304975207b8248567293dc5",
    "naive": "e86571f18f1e29f3b1757886484b4d91c2ca412a5cf91391b7d6455abeed58da",
    "no_zero_pad": "d24ca3c77fb20b06657f81e73fa0c80ff1e5d9b9ca1211d6cd5a4218c3a01ba6",
}


def _compile(op):
    return compile_matrix(matrix_from_dict(op.doc), harness.CONFIGS[op.config])


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_ir_matches_goldens(workload, seed):
    goldens = harness.load_goldens(workload, seed)
    ops = workloads.build(workload, seed)
    assert sorted(goldens) == sorted(op.key for op in ops)
    wrong = []
    for op in ops:
        enc = _compile(op)
        if harness.digest_text(export_text(enc.circuit, {"alpha": enc.alpha})) != goldens[op.key]:
            wrong.append(op.key)
    assert not wrong, f"IR differs from bench/goldens.json for {wrong}"


@pytest.mark.parametrize("config", sorted(harness.CONFIGS))
def test_stats_pinned(config):
    docs = {}
    for workload in workloads.WORKLOADS:
        for op in workloads.build(workload, 0):
            docs.setdefault(op.id, op.doc)
    assert len(docs) == 23
    h = hashlib.sha256()
    for op_id in sorted(docs):
        enc = _compile(workloads.Op(op_id, docs[op_id], config))
        h.update(json.dumps(enc.stats, indent=2, sort_keys=True).encode())
        h.update(format_stats(enc).encode())
    assert h.hexdigest() == STATS_DIGESTS[config]


@pytest.mark.parametrize("seed", [0, 7])
def test_random_sparse_pass_solves_four_assignments(seed, solves):
    # 25 before the bound: 21 solves priced padded plans that the partition beat
    ops = workloads.build("random-sparse", seed)
    assert len(ops) == 4
    for op in ops:
        _compile(op)
    assert len(solves) == 4
