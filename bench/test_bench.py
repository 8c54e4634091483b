"""Self-tests of the benchmark harness.

    python3 -m pytest bench -q

They check the harness, not the compiler: tracing leaves no wrapper behind
and does not change the output, golden mismatches count as failures, and
BENCHMARK.json lists exactly the metrics the harness prints.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import metrics  # noqa: E402
import pace  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CAP = 11


def small_ops():
    """A few cheap ops that still reach permutation, assignment and verify."""
    ops = [op for op in workloads.build("verify-dense", workloads.DEFAULT_SEED)
           if op.id in ("structured32", "random-n3-nnz24")]
    ops += [op for op in workloads.build("structured", workloads.DEFAULT_SEED)
            if op.id in ("tridiagonal-n3", "tridiagonal-n5")]
    return ops


def run_pass(ops, expected=None):
    states = [harness.OpState(op) for op in ops]
    harness.run_pass(states, CAP, {} if expected is None else expected)
    return states


def blockenc_bindings() -> dict:
    return {(name, key): value for name, mod in sys.modules.items()
            if mod is not None and (name == "blockenc" or name.startswith("blockenc."))
            for key, value in vars(mod).items()}


def test_tracer_restores_every_patched_binding():
    before = blockenc_bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        patched = {(mod.__name__, key) for mod, key, _ in tracer._patched}
        assert ("blockenc.ingest", "analyze") in patched
        assert ("blockenc.pipeline", "analyze") in patched
        assert ("blockenc.assignment", "linear_sum_assignment") in patched
        assert all(blockenc_bindings()[k] is not before[k] for k in patched)
        assert not tracer.missing
    finally:
        tracer.uninstall()
    after = blockenc_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_and_untraced_digests_match():
    ops = small_ops()
    untraced = run_pass(ops)
    with spans.Tracer() as tracer:
        traced = run_pass(ops)
    summary = tracer.pass_summary()
    assert not any(st.errors for st in untraced + traced)
    assert all(st.verify_s for st in traced)
    assert [st.digest for st in traced] == [st.digest for st in untraced]
    assert summary["pipeline.compile_matrix"]["calls"] == len(ops)
    assert summary["assignment.lsap"]["calls"] > 0
    assert summary["ir.validate_gate"]["calls"] > 0


def test_self_time_is_duration_minus_children():
    with spans.Tracer() as tracer:
        run_pass(small_ops()[:1])
    children: dict[int, float] = {}
    for s in tracer.spans:
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0.0) + s.duration
    for s in tracer.spans:
        assert s.self_time == pytest.approx(s.duration - children.get(s.id, 0.0), abs=1e-9)
        assert s.self_time >= -1e-6


def test_missing_name_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (
        ("ingest.renamed", "blockenc.ingest", "no_such_function", "span"),))
    with spans.Tracer() as tracer:
        pass
    assert tracer.missing == ["ingest.renamed"]
    values = metrics.per_layer_values({}, {}, 0.0, {"ingest.analyze"})
    assert values["ingest.analyze_ms"] is None
    assert values["ingest.analyze_calls"] is None
    assert set(values) == {m[0] for m in metrics.PER_LAYER}


def test_golden_mismatch_fails_the_compile():
    ops = small_ops()
    expected = {}
    assert not any(st.errors for st in run_pass(ops, expected))
    key = ops[0].key
    expected[key] = "0" * 64
    states = run_pass(ops, expected)
    assert [st.key for st in states if st.errors] == [key]
    assert not states[0].verify_s


def test_goldens_cover_default_seed_and_are_verified_where_dense_fits():
    doc = json.loads(harness.GOLDENS.read_text())
    assert doc["pattern_seed"] == workloads.PATTERN_SEED
    golden = doc["seeds"][str(workloads.DEFAULT_SEED)]
    for workload in workloads.WORKLOADS:
        keys = {op.key for op in workloads.build(workload, workloads.DEFAULT_SEED)}
        assert set(golden[workload]) == keys
        for entry in golden[workload].values():
            assert entry["verified"] == (entry["qubits"] <= 12)


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [tuple(m) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [m[:3] for m in metrics.PER_LAYER]


def test_ir_does_not_depend_on_hash_seed():
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import harness, test_bench; "
            "print(harness.combined_digest({st.key: st.digest for st in "
            "test_bench.run_pass(test_bench.small_ops())}))")
    out = set()
    for hash_seed in ("0", "1", "12345"):
        proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "src"), str(BENCH)],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONHASHSEED": hash_seed})
        assert proc.returncode == 0, proc.stderr
        out.add(proc.stdout.strip())
    assert len(out) == 1


def test_pace_scales_by_the_readings_nearest_the_sample():
    host = pace.Pace(warmup=0)
    n = pace.NEAREST
    # n readings at the nominal pace, then n at twice it
    host.at = [float(t) for t in range(2 * n)]
    host.values = [pace.NOMINAL_S] * n + [2 * pace.NOMINAL_S] * n
    assert host.scale(0.0) == pytest.approx(1.0)
    assert host.scale(2.0 * n) == pytest.approx(0.5)
    times = [0.1, 0.1, 0.2]
    assert harness._op_time(times, [0.0, 1.0, 2.0 * n], host) == pytest.approx(0.1)
    assert harness._op_time(times, [0.0, 1.0, 2.0 * n], None) == pytest.approx(0.1)


def test_pace_reading_is_positive_and_restores_gc():
    import gc
    assert gc.isenabled()
    assert pace.reading() > 0
    assert gc.isenabled()


def run_bench(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "bench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=root)


def checkout_copy(tmp_path: Path, with_src: bool = True) -> Path:
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_every_metric_in_the_result_line(tmp_path, trace):
    root = checkout_copy(tmp_path)
    proc = run_bench(root, "--workload", "structured", "--seed", "0",
                     "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    names = metrics.PER_LAYER if trace == "1" else metrics.END_TO_END
    assert set(result["metrics"]) == {m[0] for m in names}
    for name, unit, *_ in names:
        assert result["metrics"][name]["unit"] == unit


def test_tampered_golden_gives_failures(tmp_path):
    root = checkout_copy(tmp_path)
    goldens = root / "bench" / "goldens.json"
    doc = json.loads(goldens.read_text())
    entry = doc["seeds"][str(workloads.DEFAULT_SEED)]["structured"]["tridiagonal-n3/default"]
    entry["sha256"] = entry["sha256"][::-1]
    goldens.write_text(json.dumps(doc))
    proc = run_bench(root, "--workload", "structured", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["pass_rate"]["value"] < 1


def test_refuses_to_run_without_the_program(tmp_path):
    root = checkout_copy(tmp_path, with_src=False)
    proc = run_bench(root, "--workload", "structured", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
