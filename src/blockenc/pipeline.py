"""End-to-end compilation: load amplitudes, relocate items, unload.

Stage order is frozen: state preparation, then all column shifts (grouped by
direction and power of two), then deletions, then insertions, then the
adjoint loader.  Gates within the shift stage commute, as do all gates
targeting the delete qubit, so the grouping never changes the unitary; it
only changes how many gates realize it.

Every index-map gate comes from ``index_map``: ``shift_group`` per shift,
``delete_group`` per delete row set and ``insert_stage`` for all inserts.
The assembler here groups the plan items, tracks the data permutation a
deferred restore leaves behind, and records per-group statistics.  The
unfused per-item gates of ``--naive`` are built only under that flag; the
naive MCX count every compile reports is summed from the group statistics.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

from .assignment import Bijection, FixedIndexPolicy, hamming
from .index_map import delete_flip, delete_group, insert_stage, shift_cascade, shift_group
from .ingest import DataVector, OperationPlan, SignVector, SparseMatrix, analyze
from .ir import Circuit, Gate, RegisterLayout, embed_gates
from .permute import permute_circuit
from .state_prep import synthesize_prep, synthesize_unprep

log = logging.getLogger("blockenc.pipeline")


@dataclass(frozen=True)
class CompileConfig:
    tolerance: float = 1e-9
    strategy: str | int = "auto"
    data_policy: FixedIndexPolicy = field(default_factory=FixedIndexPolicy.right_ended)
    matrix_policy: FixedIndexPolicy = field(default_factory=FixedIndexPolicy.left_ended)
    zero_pad: bool = True
    skip_index_map: bool = False
    defer_restore: bool = False
    naive: bool = False


@dataclass(frozen=True)
class EncodedCircuit:
    circuit: Circuit
    alpha: float
    layout: RegisterLayout
    stats: dict
    plan: OperationPlan
    data: DataVector
    signs: SignVector
    config: CompileConfig


def _shift_group_order(plan: OperationPlan) -> list[tuple[str, int, list]]:
    """(direction, power) groups: direction blocks by first item, powers ascending."""
    groups: dict[tuple[str, int], list] = {}
    for it in plan.items:
        if it.direction:
            for p in it.powers:
                groups.setdefault((it.direction, p), []).append(it)
    dir_first = {}
    for (d, _), members in groups.items():
        first = min(m.index for m in members)
        dir_first[d] = min(dir_first.get(d, first), first)
    ordered = sorted(groups, key=lambda key: (dir_first[key[0]], key[0], key[1]))
    return [(d, p, groups[(d, p)]) for d, p in ordered]


def _row_groups(items, rows_field: str) -> list[tuple[tuple[int, ...], list]]:
    """Items sharing an identical delete or insert row set fuse into one group."""
    groups: dict[tuple[int, ...], list] = {}
    for it in items:
        groups.setdefault(getattr(it, rows_field), []).append(it)
    return sorted(groups.items(), key=lambda kv: min(i.index for i in kv[1]))


def _unfused_flips(labels: list[int], rows, layout: RegisterLayout) -> list[Gate]:
    """One delete-qubit flip per (label, row): the naive baseline of a row group."""
    data, matrix = (1 << layout.m) - 1, (1 << layout.n) - 1
    return [delete_flip(layout, (data, v), (matrix, r)) for v in labels for r in sorted(rows)]


class _Assembler:
    """Collects the index-map stages' gates and per-group statistics.

    The gates come from ``index_map``; this class tracks where unrestored
    permutations left the data states (deferred restore) and, under
    ``config.naive``, also builds the unfused per-item gates.
    """

    def __init__(self, plan: OperationPlan, data: DataVector, layout: RegisterLayout,
                 config: CompileConfig):
        self.plan = plan
        self.layout = layout
        self.config = config
        self.cur = list(range(1 << layout.m))  # item slot -> current data label
        self.inv = list(range(1 << layout.m))  # current data label -> item slot
        self.slots = range(data.s, 1 << layout.m)
        self.gates: list[Gate] = []
        self.naive_gates: list[Gate] = []
        self.permute_count = 0
        self.shift_groups: list[dict] = []
        self.delete_groups: list[dict] = []
        self.insert_stats: dict = {}

    # -- deferred-restore bookkeeping ---------------------------------------

    def _apply_swaps(self, swaps) -> None:
        """Track where every data label ends up after unrestored swaps."""
        cur, inv = self.cur, self.inv
        for a, b in swaps:
            oa, ob = inv[a], inv[b]
            inv[a], inv[b] = ob, oa
            cur[oa], cur[ob] = b, a

    def _add_row_gates(self, gates: list[Gate]) -> None:
        """Append delete/insert gates; all but the delete-qubit flips permute rows."""
        self.gates += gates
        self.permute_count += sum(g.target != self.layout.del_qubit for g in gates)

    # -- stages --------------------------------------------------------------

    def shifts(self) -> None:
        m, n = self.layout.m, self.layout.n
        for direction, power, members in _shift_group_order(self.plan):
            k = power.bit_length() - 1
            labels = sorted(self.cur[it.index] for it in members)
            slots_now = tuple(sorted(self.cur[s] for s in self.slots))
            fp, gates = shift_group(labels, direction, power, self.layout,
                                    zero_slots=slots_now, policy=self.config.data_policy,
                                    allow_pad=self.config.zero_pad,
                                    defer_restore=self.config.defer_restore)
            self.gates += gates
            self.permute_count += len(gates) - len(fp.subgroups) * (n - k)
            pads = [self.inv[p] for p in fp.pads]  # before this group's permutation
            if self.config.defer_restore:
                for sub in fp.subgroups:
                    self._apply_swaps(sub.swaps)
            log.debug("shift %s%d: %d members, %s, %d gates",
                      direction, power, len(labels) + len(fp.pads), fp.mode, len(gates))
            naive_members = labels + list(fp.pads)
            if self.config.naive:
                for v in naive_members:
                    self.naive_gates += shift_cascade(((1 << m) - 1, v), direction, power,
                                                      self.layout)
            self.shift_groups.append({
                "op": f"{direction}{power}",
                "items": [it.index for it in sorted(members, key=lambda i: i.index)],
                "pads": pads,
                "mode": fp.mode,
                "fused_mcx": len(gates),
                "naive_mcx": len(naive_members) * (n - k),
                "fused_data_width": max(sub.cube[0].bit_count() for sub in fp.subgroups),
                "naive_data_width": m,
            })

    def deletes(self) -> None:
        items = [it for it in self.plan.items if it.mode == "delete" and it.delete_rows]
        for rows, members in _row_groups(items, "delete_rows"):
            labels = [self.cur[it.index] for it in members]
            row_plan, gates = delete_group(labels, rows, self.layout,
                                           self.config.matrix_policy)
            self._add_row_gates(gates)
            if self.config.naive:
                self.naive_gates += _unfused_flips(labels, rows, self.layout)
            self.delete_groups.append({
                "rows": list(rows),
                "items": [it.index for it in members],
                "mode": row_plan.mode,
                "fused_mcx": len(gates),
                "naive_mcx": len(members) * len(rows),
            })

    def inserts(self) -> None:
        items = [it for it in self.plan.items if it.mode == "insert" and it.insert_rows]
        if not items:
            return
        row_groups = [(rows, [self.cur[it.index] for it in members])
                      for rows, members in _row_groups(items, "insert_rows")]
        gates = insert_stage(row_groups, self.layout, self.config.matrix_policy)
        self._add_row_gates(gates)
        if self.config.naive:
            full = (1 << self.layout.m) - 1
            self.naive_gates += [delete_flip(self.layout, (full, self.cur[it.index]))
                                 for it in items]
            for rows, labels in row_groups:
                self.naive_gates += _unfused_flips(labels, rows, self.layout)
        self.insert_stats = {
            "items": [it.index for it in items],
            "fused_mcx": len(gates),
            "naive_mcx": len(items) + sum(len(it.insert_rows) for it in items),
            "row_groups": [{"rows": list(rows), "count": len(labels)}
                           for rows, labels in row_groups],
        }

    def restore(self) -> None:
        """Single final permutation sending every item slot home (deferred mode).

        Items already home enter as identity pairs so the router treats their
        slots as settled and never borrows them as intermediate states.
        """
        pairs = tuple(sorted((self.cur[it.index], it.index) for it in self.plan.items))
        if all(a == b for a, b in pairs):
            return
        cost = sum(hamming(a, b) for a, b in pairs)
        circ = permute_circuit(Bijection(pairs, cost, self.layout.m))
        emitted = embed_gates(circ.gates, self.layout.total, list(self.layout.data_qubits))
        self.gates.extend(emitted)
        self.permute_count += len(emitted)


def compile_matrix(matrix: SparseMatrix, config: CompileConfig | None = None) -> EncodedCircuit:
    """Compile a sparse matrix into an explicit block-encoding circuit."""
    config = config or CompileConfig()
    if config.naive and config.defer_restore:
        config = replace(config, defer_restore=False)
    data, signs, plan = analyze(matrix, config.strategy)
    layout = RegisterLayout(data.m, matrix.n)
    prep = synthesize_prep(data, signs)
    unprep = synthesize_unprep(data)

    asm = _Assembler(plan, data, layout, config)
    if not config.skip_index_map:
        asm.shifts()
        asm.deletes()
        asm.inserts()
        if config.defer_restore:
            asm.restore()
    body = asm.naive_gates if config.naive else asm.gates

    gates: list[Gate] = []
    gates += embed_gates(prep.gates, layout.total, list(layout.data_qubits))
    gates += body
    gates += embed_gates(unprep.gates, layout.total, list(layout.data_qubits))
    circuit = Circuit(layout.total, tuple(gates), layout, prep.global_phase)

    stats = _build_stats(circuit, asm, data, plan, config)
    log.info("compiled %dx%d matrix: %d qubits, %d gates, alpha=%g",
             matrix.dim, matrix.dim, layout.total, len(circuit.gates), data.alpha)
    return EncodedCircuit(circuit, data.alpha, layout, stats, plan, data, signs, config)


def _build_stats(circuit: Circuit, asm: _Assembler, data: DataVector,
                 plan: OperationPlan, config: CompileConfig) -> dict:
    counts: dict[str, int] = {}
    widths: dict[int, int] = {}
    for g in circuit.gates:
        counts[g.kind] = counts.get(g.kind, 0) + 1
        if g.kind == "mcx":
            w = sum(c != "X" for c in g.pattern)
            widths[w] = widths.get(w, 0) + 1
    prep_gates = len(circuit.gates) - len(asm.naive_gates if config.naive else asm.gates)
    fused_mcx = len(asm.gates)
    naive_mcx = (sum(g["naive_mcx"] for g in asm.shift_groups + asm.delete_groups)
                 + asm.insert_stats.get("naive_mcx", 0))
    return {
        "alpha": data.alpha,
        "qubits": circuit.n_qubits,
        "total_gates": len(circuit.gates),
        "gate_counts": counts,
        "mcx_width_histogram": {str(k): v for k, v in sorted(widths.items())},
        "permutation_gates": 0 if config.naive else asm.permute_count,
        "state_prep_gates": prep_gates,
        "shift_groups": asm.shift_groups,
        "delete_groups": asm.delete_groups,
        "insert": asm.insert_stats,
        "fused_mcx": fused_mcx,
        "naive_mcx": naive_mcx,
        "strategy": plan.strategy,
        "naive": config.naive,
        "skip_index_map": config.skip_index_map,
        "defer_restore": config.defer_restore,
    }


def stats_report(encoded: EncodedCircuit) -> dict:
    """Gate-count report comparing the fused pipeline against per-item gates."""
    s = dict(encoded.stats)
    s["mcx_saving"] = s["naive_mcx"] - s["fused_mcx"]
    return s


def format_stats(encoded: EncodedCircuit) -> str:
    s = stats_report(encoded)
    lines = [
        f"qubits          {s['qubits']}",
        f"alpha           {s['alpha']:.12g}",
        f"total gates     {s['total_gates']}",
        f"gate counts     " + ", ".join(f"{k}={v}" for k, v in sorted(s["gate_counts"].items())),
        f"mcx widths      " + ", ".join(f"{k}:{v}" for k, v in s["mcx_width_histogram"].items()),
        f"permute gates   {s['permutation_gates']}",
        f"index-map mcx   fused={s['fused_mcx']} naive={s['naive_mcx']} saved={s['mcx_saving']}",
    ]
    for g in s["shift_groups"]:
        lines.append(f"  shift {g['op']:>4}  items={g['items']} pads={g['pads']} "
                     f"mode={g['mode']} mcx={g['fused_mcx']} (naive {g['naive_mcx']}) "
                     f"width={g['fused_data_width']} (naive {g['naive_data_width']})")
    for g in s["delete_groups"]:
        lines.append(f"  delete rows={g['rows']} items={g['items']} mode={g['mode']} "
                     f"mcx={g['fused_mcx']} (naive {g['naive_mcx']})")
    if s["insert"]:
        i = s["insert"]
        lines.append(f"  insert items={i['items']} mcx={i['fused_mcx']} (naive {i['naive_mcx']})")
    return "\n".join(lines)
