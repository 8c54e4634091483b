"""Run benchmark operations against the blockenc package and score them.

An operation compiles one matrix document: ``matrix_from_dict`` ->
``compile_matrix`` -> ``export_text`` -> SHA-256 of the IR text.  When the
circuit fits the workload's dense-verification cap, the text just written
is also read back and checked: ``import_text`` -> ``verify_circuit``.  A
compile fails when it raises or when its digest differs from the stored
golden or from the op's first digest in the run; a verification fails when
it raises or reports a mismatch.

blockenc functions are always looked up on their module at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import math
import os
import platform
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from workloads import Op

# import_module returns the submodules themselves: the package namespace
# rebinds ``blockenc.verify`` to the verify function.
ingest, ir, pipeline, verify = (importlib.import_module(f"blockenc.{name}")
                                for name in ("ingest", "ir", "pipeline", "verify"))

BENCH_DIR = Path(__file__).resolve().parent
GOLDENS = BENCH_DIR / "goldens.json"

CONFIGS = {
    "default": pipeline.CompileConfig(),
    "defer_restore": pipeline.CompileConfig(defer_restore=True),
    "naive": pipeline.CompileConfig(naive=True),
    "no_zero_pad": pipeline.CompileConfig(zero_pad=False),
}

# Gate counts summed over the ops; they repeat exactly for a given program.
COUNT_METRICS = ("total_gates", "index_map_mcx", "permutation_gates", "mcx_controls")
FUSION_MODES = ("direct", "permute", "partition", "padded", "padded-permute")


@dataclass
class OpState:
    """Every sample of one op in a run, and what its last compile produced."""

    op: Op
    compile_s: list[float] = field(default_factory=list)
    verify_s: list[float] = field(default_factory=list)
    compile_at: list[float] = field(default_factory=list)  # sample midpoints
    verify_at: list[float] = field(default_factory=list)
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    digest: str | None = None
    qubits: int = 0
    counts: dict = field(default_factory=dict)
    text: str | None = None

    @property
    def key(self) -> str:
        return self.op.key

    def fail(self, message: str) -> None:
        self.errors.append(message)
        traceback.print_exc(file=sys.stderr)


def _gate_counts(enc) -> dict:
    """Circuit metrics and fusion bookkeeping read from the compile stats."""
    s = enc.stats
    modes = {m: 0 for m in FUSION_MODES}
    for g in s["shift_groups"] + s["delete_groups"]:
        modes[g["mode"]] = modes.get(g["mode"], 0) + 1
    return {
        "total_gates": s["total_gates"],
        "index_map_mcx": s["total_gates"] - s["state_prep_gates"],
        "permutation_gates": s["permutation_gates"],
        "mcx_controls": sum(int(w) * c for w, c in s["mcx_width_histogram"].items()),
        "state_prep_gates": s["state_prep_gates"],
        "plan_items": len(enc.plan.items),
        "fused_mcx": s["fused_mcx"],
        "naive_mcx": s["naive_mcx"],
        **{f"groups_{m}": c for m, c in modes.items()},
    }


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def compile_sample(st: OpState, expected: dict[str, str], min_s: float = 0.0) -> float:
    """Compile the op, timed, and check its IR against ``expected``.

    The compile repeats until its samples add up to ``min_s``; each repeat
    is one timing sample.  A digest seen for the first time is added to
    ``expected``, so every later compile of the op must reproduce it byte
    for byte.  Returns the time spent compiling.
    """
    st.attempted += 1
    gc.collect()
    times = []
    at = []
    try:
        while not times or sum(times) < min_s:
            t0 = time.perf_counter()
            matrix = ingest.matrix_from_dict(st.op.doc)
            enc = pipeline.compile_matrix(matrix, CONFIGS[st.op.config])
            t1 = time.perf_counter()
            times.append(t1 - t0)
            at.append((t0 + t1) / 2)
        text = ir.export_text(enc.circuit, {"alpha": enc.alpha})
        st.qubits = enc.circuit.n_qubits
        st.counts = _gate_counts(enc)
    except Exception as exc:  # an operation that raises is a failed operation
        st.fail(f"compile raised {type(exc).__name__}: {exc}")
        st.text = None
        return sum(times)
    st.digest = digest_text(text)
    want = expected.setdefault(st.key, st.digest)
    if st.digest != want:
        st.errors.append(f"IR digest {st.digest[:12]} differs from {want[:12]}")
        st.text = None
        return sum(times)
    st.compile_s.extend(times)
    st.compile_at.extend(at)
    st.text = text
    return sum(times)


def verify_sample(st: OpState) -> float:
    """Read the last compiled IR back and dense-verify it against the matrix.

    Returns the time spent, including a failed attempt.
    """
    st.attempted += 1
    gc.collect()
    matrix = ingest.matrix_from_dict(st.op.doc)
    t0 = time.perf_counter()
    try:
        circuit, meta = ir.import_text(st.text)
        report = verify.verify_circuit(matrix, circuit, meta["alpha"])
    except Exception as exc:
        st.fail(f"verify raised {type(exc).__name__}: {exc}")
        return time.perf_counter() - t0
    t1 = time.perf_counter()
    elapsed = t1 - t0
    if report.passed:
        st.verify_s.append(elapsed)
        st.verify_at.append((t0 + t1) / 2)
    else:
        st.errors.append(f"verification failed: {report}")
    return elapsed


def run_pass(states: list[OpState], verify_qubits: int, expected: dict[str, str],
             do_verify: bool = True) -> None:
    """Compile every op once and verify each one that fits the cap."""
    for st in states:
        compile_sample(st, expected)
        if do_verify and st.text is not None and st.qubits <= verify_qubits:
            verify_sample(st)


def _op_time(times: list[float], at: list[float], pace) -> float:
    if pace is None:
        return statistics.median(times)
    return statistics.median(t * pace.scale(a) for t, a in zip(times, at))


def summarize(states: list[OpState], pace=None) -> dict[str, float]:
    """End-to-end times and gate counts of one pass over the ops.

    Each op's time is the median of its samples in the run, each sample
    first scaled to the nominal pace when ``pace`` (a ``pace.Pace``) is
    given; the totals sum those per-op times.
    """
    compile_s = [_op_time(st.compile_s, st.compile_at, pace) for st in states if st.compile_s]
    verify_s = [_op_time(st.verify_s, st.verify_at, pace) for st in states if st.verify_s]
    out = {
        "compile_s_total": sum(compile_s),
        "compile_ms_geomean": math.exp(statistics.fmean(math.log(t * 1e3) for t in compile_s))
        if compile_s else math.nan,
        "verify_s_total": sum(verify_s),
    }
    for name in COUNT_METRICS:
        out[name] = sum(st.counts.get(name, 0) for st in states)
    return out


def stat_totals(states: list[OpState]) -> dict[str, int]:
    """Sum of every per-op stats count."""
    totals: dict[str, int] = {}
    for st in states:
        for k, v in st.counts.items():
            totals[k] = totals.get(k, 0) + v
    return totals


def combined_digest(digests: dict[str, str]) -> str:
    """One SHA-256 over every op's digest, in op-key order."""
    lines = "".join(f"{k} {digests[k]}\n" for k in sorted(digests))
    return digest_text(lines)


def load_goldens(workload: str, seed: int) -> dict[str, str]:
    """Golden digests for (workload, seed); empty when that seed has none."""
    doc = json.loads(GOLDENS.read_text())
    entries = doc["seeds"].get(str(seed), {}).get(workload, {})
    return {key: e["sha256"] for key, e in entries.items()}


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it exposes one."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "blockenc": str(Path(ingest.__file__).resolve().parent),
    }
