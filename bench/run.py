"""blockenc benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload structured --seed 0 --seconds 30 --trace 0

Run from any directory; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Plain Python: no pytest or
pytest-benchmark needed.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` does one
untraced compile-only pass, then traced passes, and prints every per-layer
metric.  End-to-end times are scaled to a nominal host pace, read from a
fixed reference workload between operations (``pace.py``).  Work repeats
while another round fits in ``--seconds``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Results, with the environment, go to
``bench/out/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 5
PROBE_READINGS = 9
REPEAT_SHARE = 0.25
VERIFY_SHARE = 1 / 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(Exception):
    pass


def cap_blas_threads() -> None:
    """Keep BLAS threads within the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        value = os.environ.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= nproc):
            os.environ[var] = str(nproc)


def import_program():
    """Import the harness with blockenc taken from this checkout's ``src/``."""
    if not (SRC / "blockenc" / "__init__.py").is_file():
        raise SetupError(f"no blockenc package under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import harness
    import metrics
    import workloads
    if SRC.resolve() not in Path(harness.ingest.__file__).resolve().parents:
        raise SetupError(f"blockenc imported from {harness.ingest.__file__}, not {SRC}")
    return harness, metrics, workloads


def set_up(workload: str, seed: int):
    harness, metrics, workloads = import_program()
    ops = workloads.build(workload, seed)
    goldens = harness.load_goldens(workload, seed)
    return harness, metrics, workloads, ops, goldens


def probe_setup_s(workload: str, seed: int) -> tuple[float, float, list]:
    """Median set-up time of fresh processes that only do the set-up.

    Each probe reports the time from its spawn to the end of its set-up and
    the host pace just after it.  Returns the median time as measured, the
    median time scaled to the nominal pace, and every probe's pair.
    """
    import pace
    measured, scaled, probes = [], [], []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--setup-probe", repr(time.monotonic())]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
        setup_s, pace_s = (float(v) for v in proc.stdout.split())
        measured.append(setup_s)
        scaled.append(setup_s * pace.NOMINAL_S / pace_s)
        probes.append({"setup_s": setup_s, "pace_s": pace_s})
    return statistics.median(measured), statistics.median(scaled), probes


def measure(harness, states, cap, expected, seconds, pace):
    """Untraced run: rounds that compile every op and verify some.

    The host's speed drifts within a second, so a round repeats each compile
    until its samples add up to an equal part of REPEAT_SHARE of the
    previous round's compile time: a compile of a few milliseconds gets many
    samples, one of a second gets one.  The round then
    verifies the ops within the cap in turn, cycling over rounds, until it
    has verified for VERIFY_SHARE of its compile time (at least one op).
    Rounds repeat while another one fits in ``seconds``, and at least until
    every op within the cap was verified once.  Between ops the host pace
    is read once per ``pace.EVERY_S`` that has passed (``Pace.tick``).
    """
    t_run = time.perf_counter()
    durations = []
    verified = 0
    repeat_s = 0.0
    pace.read()
    while True:
        t0 = time.perf_counter()
        compile_s = 0.0
        for st in states:
            compile_s += harness.compile_sample(st, expected, repeat_s)
            pace.tick()
        repeat_s = REPEAT_SHARE * compile_s / len(states)
        due = [st for st in states if st.text is not None and st.qubits <= cap]
        verify_s = 0.0
        while due and (verify_s == 0.0 or verify_s < VERIFY_SHARE * compile_s):
            verify_s += harness.verify_sample(due[verified % len(due)])
            verified += 1
            pace.tick()
        durations.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - t_run
        if verified >= len(due) and elapsed + statistics.median(durations) > seconds:
            pace.read()
            return len(durations)


def measure_traced(harness, states, cap, expected, seconds, tracer):
    """Traced run: passes that compile once and verify every op that fits."""
    t_run = time.perf_counter()
    durations = []
    per_pass = []
    while True:
        t0 = time.perf_counter()
        harness.run_pass(states, cap, expected)
        durations.append(time.perf_counter() - t0)
        per_pass.append(tracer.pass_summary())
        if time.perf_counter() - t_run + statistics.median(durations) > seconds:
            return per_pass


def report_line(name, value, unit):
    shown = "missing" if value is None else f"{value:.6g}"
    return f"  {name:<36} {shown:>14} {unit}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", type=float, metavar="SPAWNED_AT", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    cap_blas_threads()
    try:
        harness, metrics, workloads, ops, goldens = set_up(args.workload, args.seed)
    except (SetupError, ImportError, OSError, ValueError) as exc:
        print(f"bench: set-up failed: {exc}", file=sys.stderr)
        return 2
    import pace
    if args.setup_probe is not None:
        setup_s = time.monotonic() - args.setup_probe
        probe = pace.Pace()
        for _ in range(PROBE_READINGS):
            probe.read()
        print(setup_s, probe.median())
        return 0
    try:
        setup_raw_s, setup_s, setup_probes = probe_setup_s(args.workload, args.seed)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    cap = workloads.VERIFY_QUBITS[args.workload]
    expected = dict(goldens)
    states = [harness.OpState(op) for op in ops]
    tracer = None
    if args.trace:
        from spans import Tracer
        reference = [harness.OpState(op) for op in ops]
        harness.run_pass(reference, cap, expected, do_verify=False)
        tracer = Tracer()
        tracer.install()
        try:
            per_pass = measure_traced(harness, states, cap, expected, args.seconds, tracer)
        finally:
            tracer.uninstall()
        rounds = len(per_pass)
        states_all = reference + states
    else:
        host_pace = pace.Pace()
        rounds = measure(harness, states, cap, expected, args.seconds, host_pace)
        states_all = states

    attempted = sum(st.attempted for st in states_all)
    failed = sum(len(st.errors) for st in states_all)
    summary = harness.summarize(states)
    digests = {st.key: st.digest for st in states if st.digest is not None}
    env = harness.environment(args.seed)

    if args.trace:
        traced_compile_s = summary["compile_s_total"]
        untraced_compile_s = harness.summarize(reference)["compile_s_total"]
        merged = {}
        for name in {n for spans in per_pass for n in spans}:
            rows = [spans.get(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "gates": 0})
                    for spans in per_pass]
            merged[name] = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
        values = metrics.per_layer_values(merged, harness.stat_totals(states),
                                          traced_compile_s - untraced_compile_s,
                                          set(tracer.missing))
        table = [(n, values[n], u) for n, u, _b, _s in metrics.PER_LAYER]
    else:
        measured = dict(summary, setup_s=setup_raw_s)
        values = harness.summarize(states, host_pace)
        values["peak_rss_mb"] = harness.peak_rss_mb()
        values["pass_rate"] = (attempted - failed) / attempted
        values["setup_s"] = setup_s
        table = [(n, values[n], u) for n, u, _b, _bound in metrics.END_TO_END]

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = None
    if tracer is not None:
        spans_path = OUT_DIR / f"{stem}.spans.jsonl"
        tracer.write(spans_path, T_START)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "rounds": rounds, "environment": env,
        "metrics": values,
        "measured": None if args.trace else measured,
        "setup_probes": setup_probes,
        "pace": None if args.trace else {"nominal_s": pace.NOMINAL_S,
                                         "at": host_pace.at, "values": host_pace.values},
        "attempted": attempted, "failed": failed,
        "golden_checked": len(goldens), "combined_digest": harness.combined_digest(digests),
        "spans": str(spans_path.relative_to(BENCH_DIR.parent)) if spans_path else None,
        "missing": sorted(tracer.missing) if tracer else [],
        "ops": [{"key": st.key, "compile_s": st.compile_s, "verify_s": st.verify_s,
                 "qubits": st.qubits, "digest": st.digest, "errors": st.errors}
                for st in states_all],
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"blockenc benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} rounds={rounds} ops={len(ops)}")
    print(f"environment: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas'].get('name')} {env['blas'].get('version')} "
          f"blas_threads={env['blas_threads']}")
    golden_note = (f"{len(goldens)} golden digests checked" if goldens
                   else "no golden digests for this seed")
    print(f"combined IR digest: {record['combined_digest']} ({golden_note})")
    print(f"fail_rate: {failed}/{attempted} = {failed / attempted:.4g}")
    for st in states_all:
        for error in st.errors:
            print(f"  FAILED {st.key}: {error}")
    for name, value, unit in table:
        print(report_line(name, value, unit))
    if args.trace:
        print(f"  (tracing overhead: traced {traced_compile_s:.4f} s - untraced "
              f"{untraced_compile_s:.4f} s compile_s_total)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit in table if value is not None},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
