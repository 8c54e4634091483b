"""Metric names, units and directions; BENCHMARK.json lists the same ones.

End-to-end metrics come from untraced runs.  Per-layer metrics come from a
separate traced run (``--trace 1``): span times and call counts from
``spans.Tracer`` plus counts read from the compile stats.  The comment on
each per-layer group names the end-to-end metric and workload it should
move.
"""

from __future__ import annotations

import math

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("compile_s_total", "s", "lower", 0.25),
    ("compile_ms_geomean", "ms", "lower", 0.25),
    ("verify_s_total", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("pass_rate", "ratio", "higher", 0.01),
    ("total_gates", "count", "lower", 0.03),
    ("index_map_mcx", "count", "lower", 0.03),
    ("permutation_gates", "count", "lower", 0.03),
    ("mcx_controls", "count", "lower", 0.03),
    ("setup_s", "s", "lower", 0.25),
)


def _ms(span):
    return ("span", span, "ms")


def _self_ms(span):
    return ("span", span, "self_ms")


def _calls(span):
    return ("span", span, "calls")


def _stat(key):
    return ("stat", key)


# (name, unit, better, source)
PER_LAYER = (
    # ingest -> compile_s_total and peak_rss_mb on structured
    ("ingest.matrix_from_dict_ms", "ms", "lower", _ms("ingest.matrix_from_dict")),
    ("ingest.analyze_ms", "ms", "lower", _ms("ingest.analyze")),
    ("ingest.analyze_calls", "count", "lower", _calls("ingest.analyze")),
    ("ingest.plan_items", "count", "lower", _stat("plan_items")),
    # state preparation: predicted under 2% of compile time everywhere
    ("state_prep.prep_ms", "ms", "lower", _ms("state_prep.prep")),
    ("state_prep.unprep_ms", "ms", "lower", _ms("state_prep.unprep")),
    ("state_prep.gates", "count", "lower", _stat("state_prep_gates")),
    ("state_prep.share_pct", "%", "lower", ("state_prep_share",)),
    # index map -> compile_s_total and compile_ms_geomean on random-sparse
    ("index_map.plan_fusion_ms", "ms", "lower", _ms("index_map.plan_fusion")),
    ("index_map.plan_fusion_self_ms", "ms", "lower", _self_ms("index_map.plan_fusion")),
    ("index_map.plan_fusion_calls", "count", "lower", _calls("index_map.plan_fusion")),
    ("index_map.delete_rows_plan_ms", "ms", "lower", _ms("index_map.delete_rows_plan")),
    ("index_map.delete_rows_plan_calls", "count", "lower", _calls("index_map.delete_rows_plan")),
    # fusion modes chosen per shift/delete group (compile stats)
    ("index_map.groups_direct", "count", "higher", _stat("groups_direct")),
    ("index_map.groups_permute", "count", "lower", _stat("groups_permute")),
    ("index_map.groups_partition", "count", "lower", _stat("groups_partition")),
    ("index_map.groups_padded", "count", "lower", _stat("groups_padded")),
    ("index_map.groups_padded-permute", "count", "lower", _stat("groups_padded-permute")),
    # the fusion saving and its base; should stay constant
    ("index_map.fused_to_naive_mcx", "ratio", "lower", ("ratio", "fused_mcx", "naive_mcx")),
    ("index_map.naive_mcx", "count", "lower", _stat("naive_mcx")),
    # assignment -> compile_s_total on random-sparse (tie-break LSAP re-solves)
    ("assignment.solve_assignment_ms", "ms", "lower", _ms("assignment.solve_assignment")),
    ("assignment.solve_assignment_calls", "count", "lower", _calls("assignment.solve_assignment")),
    ("assignment.lsap_calls", "count", "lower", _calls("assignment.lsap")),
    ("assignment.lsap_ms", "ms", "lower", _ms("assignment.lsap")),
    # routing -> compile_s_total on random-sparse; each subgroup routes twice
    ("permute.route_permutation_ms", "ms", "lower", _ms("permute.route_permutation")),
    ("permute.route_permutation_calls", "count", "lower", _calls("permute.route_permutation")),
    ("permute.permute_circuit_ms", "ms", "lower", _ms("permute.permute_circuit")),
    ("permute.permute_circuit_calls", "count", "lower", _calls("permute.permute_circuit")),
    # pipeline -> random-sparse and verify-dense
    ("pipeline.compile_matrix_ms", "ms", "lower", _ms("pipeline.compile_matrix")),
    ("pipeline.self_ms", "ms", "lower", _self_ms("pipeline.compile_matrix")),
    ("pipeline.emitted_to_built_gates", "ratio", "higher",
     ("ratio", "index_map_mcx", "built_gates")),
    ("pipeline.built_gates", "count", "lower", _stat("built_gates")),
    # IR -> compile_s_total on random-sparse
    ("ir.embed_gates_ms", "ms", "lower", _ms("ir.embed_gates")),
    ("ir.embed_gates_calls", "count", "lower", _calls("ir.embed_gates")),
    ("ir.validate_gate_calls", "count", "lower", _calls("ir.validate_gate")),
    ("ir.export_text_ms", "ms", "lower", _ms("ir.export_text")),
    ("ir.import_text_ms", "ms", "lower", _ms("ir.import_text")),
    # dense verification -> verify_s_total and peak_rss_mb on verify-dense
    ("ir.circuit_unitary_ms", "ms", "lower", _ms("ir.circuit_unitary")),
    ("ir.gates_simulated", "count", "lower", ("span", "ir.circuit_unitary", "gates")),
    ("ir.unitarity_residual_ms", "ms", "lower", _ms("ir.unitarity_residual")),
    ("verify.verify_circuit_ms", "ms", "lower", _ms("verify.verify_circuit")),
    ("verify.self_ms", "ms", "lower", _self_ms("verify.verify_circuit")),
    # traced minus untraced compile_s_total in the same process
    ("trace.overhead_s", "s", "lower", ("overhead",)),
)

def per_layer_values(spans: dict, stats: dict, overhead_s: float,
                     missing: set[str]) -> dict[str, float | None]:
    """Every per-layer metric by name; None where a wrapped name is missing.

    ``spans`` maps span name -> {calls, ms, self_ms, gates} for one pass,
    ``stats`` the summed per-op stats counts of that pass.
    """
    stats = dict(stats)
    stats["built_gates"] = stats.get("fused_mcx", 0) + stats.get("naive_mcx", 0)
    empty = {"calls": 0, "ms": 0.0, "self_ms": 0.0, "gates": 0}
    out: dict[str, float | None] = {}
    for name, _unit, _better, src in PER_LAYER:
        kind = src[0]
        if kind == "span":
            value = None if src[1] in missing else spans.get(src[1], empty)[src[2]]
        elif kind == "stat":
            value = stats.get(src[1], 0)
        elif kind == "ratio":
            base = stats.get(src[2], 0)
            value = stats.get(src[1], 0) / base if base else None
        elif kind == "state_prep_share":
            parts = ("state_prep.prep", "state_prep.unprep", "pipeline.compile_matrix")
            if missing.intersection(parts):
                value = None
            else:
                total = spans.get(parts[2], empty)["ms"]
                prep = spans.get(parts[0], empty)["ms"] + spans.get(parts[1], empty)["ms"]
                value = 100.0 * prep / total if total else None
        else:  # overhead
            value = overhead_s
        if value is not None and not math.isfinite(value):
            value = None
        out[name] = value
    return out
