"""Record golden IR digests: one per (seed, workload, matrix, config).

    python3 bench/record_goldens.py --seeds 0 1 2

Every circuit that fits the dense simulator (12 qubits) is verified before
its digest is recorded, whatever the workload's own verification cap; if
any verification fails nothing is written.  Larger circuits are recorded
with ``"verified": false``: their digest pins today's output, but no oracle
has checked it yet.  Seeds already in the file are replaced, others kept.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import cap_blas_threads, import_program

DENSE_QUBITS = 12


def record_seed(harness, workloads, seed: int) -> dict:
    out = {}
    for workload in workloads.WORKLOADS:
        entries = {}
        for op in workloads.build(workload, seed):
            st = harness.OpState(op)
            harness.run_pass([st], DENSE_QUBITS, {})
            if st.errors:
                raise SystemExit(f"seed {seed} {workload} {op.key}: {st.errors}")
            entries[op.key] = {"sha256": st.digest, "qubits": st.qubits,
                               "verified": bool(st.verify_s)}
        out[workload] = entries
        combined = harness.combined_digest({k: e["sha256"] for k, e in entries.items()})
        print(f"seed {seed} {workload}: {len(entries)} ops, "
              f"{sum(e['verified'] for e in entries.values())} verified, combined {combined}",
              flush=True)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = ap.parse_args(argv)
    cap_blas_threads()
    harness, _metrics, workloads = import_program()
    path = harness.GOLDENS
    doc = json.loads(path.read_text()) if path.exists() else {}
    seeds = doc.get("seeds", {})
    for seed in args.seeds:
        seeds[str(seed)] = record_seed(harness, workloads, seed)
    doc = {
        "note": ("SHA-256 of export_text(circuit, {'alpha': alpha}) per op. "
                 "verified=true: dense-verified before recording; "
                 "verified=false: wider than 12 qubits, not yet checked by any oracle."),
        "pattern_seed": workloads.PATTERN_SEED,
        "seeds": {k: seeds[k] for k in sorted(seeds, key=int)},
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
