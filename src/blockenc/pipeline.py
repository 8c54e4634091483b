"""End-to-end compilation: load amplitudes, relocate items, unload.

Stage order is frozen: state preparation, then all column shifts (grouped by
direction and power of two), then deletions, then insertions, then the
adjoint loader.  Gates within the shift stage commute, as do all gates
targeting the delete qubit, so the grouping never changes the unitary; it
only changes how many gates realize it.

Every index-map gate comes from ``index_map``: ``shift_group`` per shift,
``delete_group`` per delete row set and ``insert_stage`` for all inserts.
The assembler here groups the plan items, tracks the data permutation a
deferred restore leaves behind, and records per-group statistics.  Its one
body is the fused gates, or the unfused per-item gates built only under
``--naive``; the naive MCX count every compile reports is summed from the
group statistics.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

from .assignment import FixedIndexPolicy
from .errors import BadInput
from .index_map import delete_flip, delete_group, insert_stage, shift_cascade, shift_group
from .ingest import OperationPlan, SparseMatrix, analyze
from .ir import Circuit, Gate, RegisterLayout, embed_gates, instance
from .permute import basis_swap, route_permutation
from .state_prep import synthesize_prep, synthesize_unprep

log = logging.getLogger("blockenc.pipeline")


@dataclass(frozen=True)
class CompileConfig:
    strategy: str | int = "auto"
    data_policy: FixedIndexPolicy = FixedIndexPolicy.RIGHT_ENDED
    matrix_policy: FixedIndexPolicy = FixedIndexPolicy.LEFT_ENDED
    zero_pad: bool = True
    skip_index_map: bool = False
    defer_restore: bool = False
    naive: bool = False

    def __post_init__(self):
        """Each policy is a ``FixedIndexPolicy`` member or its word, right or left,
        and each flag a ``bool``.  ``naive`` emits no permutation, so it turns
        ``defer_restore`` off.  ``analyze`` checks ``strategy``."""
        for name in ("data_policy", "matrix_policy"):
            try:
                policy = FixedIndexPolicy(getattr(self, name))
            except ValueError:
                raise BadInput(f"bad fixed-index policy {getattr(self, name)!r}; "
                               "expected right or left") from None
            object.__setattr__(self, name, policy)
        for name in ("zero_pad", "skip_index_map", "defer_restore", "naive"):
            if not isinstance(getattr(self, name), bool):
                raise BadInput(f"{name} must be a bool, not {getattr(self, name)!r}")
        if self.naive:
            object.__setattr__(self, "defer_restore", False)


@dataclass(frozen=True)
class EncodedCircuit:
    circuit: Circuit
    alpha: float
    layout: RegisterLayout
    stats: dict
    plan: OperationPlan
    config: CompileConfig


def _shift_group_order(plan: OperationPlan) -> list[tuple[str, int, list]]:
    """(direction, power) groups: direction blocks by first item, powers ascending."""
    groups: dict[tuple[str, int], list] = {}
    for it in plan.items:
        if it.direction:
            for p in it.powers:
                groups.setdefault((it.direction, p), []).append(it)
    rank = {d: r for r, d in enumerate(dict.fromkeys(d for d, _ in groups))}
    ordered = sorted(groups, key=lambda key: (rank[key[0]], key[1]))
    return [(d, p, groups[(d, p)]) for d, p in ordered]


def _row_groups(items, rows_field: str) -> list[tuple[tuple[int, ...], list]]:
    """Items sharing one delete or insert row set fuse into a group, by first item."""
    groups: dict[tuple[int, ...], list] = {}
    for it in items:
        groups.setdefault(getattr(it, rows_field), []).append(it)
    return list(groups.items())


def _unfused_shifts(labels: list[int], direction: str, power: int,
                    layout: RegisterLayout) -> list[Gate]:
    """One fully data-controlled cascade per label: the naive baseline of a shift group."""
    full = (1 << layout.m) - 1
    return [g for v in labels for g in shift_cascade((full, v), direction, power, layout)]


def _unfused_flips(labels: list[int], rows, layout: RegisterLayout) -> list[Gate]:
    """One delete-qubit flip per (label, row): the naive baseline of a row group."""
    data, matrix = (1 << layout.m) - 1, (1 << layout.n) - 1
    return [delete_flip(layout, (data, v), (matrix, r)) for v in labels for r in sorted(rows)]


class _Assembler:
    """Collects the index-map body and per-group statistics.

    The gates come from ``index_map``.  ``gates`` is the one body: each
    stage's fused gates, or under ``config.naive`` its unfused per-item
    gates instead.  This class also tracks where unrestored permutations
    left the data states (deferred restore).
    """

    def __init__(self, plan: OperationPlan, layout: RegisterLayout, config: CompileConfig):
        self.plan = plan
        self.layout = layout
        self.config = config
        self.cur = list(range(1 << layout.m))  # item slot -> current data label
        self.inv = list(range(1 << layout.m))  # current data label -> item slot
        self.slots = range(len(plan.items), 1 << layout.m) if config.zero_pad else ()
        self.gates: list[Gate] = []
        self.fused_mcx = 0
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

    def _append(self, fused: list[Gate], per_item, permuted: tuple[int, ...]) -> None:
        """Append a stage's fused gates, or under ``--naive`` the ones ``per_item()`` builds.

        Every index-map gate enters the body here.  Fused gates count toward
        ``fused_mcx``; appended ones targeting the permuted register count too.
        """
        self.fused_mcx += len(fused)
        gates = per_item() if self.config.naive else fused
        self.gates += gates
        targets = Counter(map(itemgetter(1), gates))  # gates per target qubit
        self.permute_count += sum(map(targets.__getitem__, permuted))

    # -- stages --------------------------------------------------------------

    def shifts(self) -> None:
        m, n = self.layout.m, self.layout.n
        for direction, power, members in _shift_group_order(self.plan):
            k = power.bit_length() - 1
            labels = sorted(self.cur[it.index] for it in members)
            slots_now = tuple(sorted(self.cur[s] for s in self.slots))
            fp, gates = shift_group(labels, direction, power, self.layout,
                                    zero_slots=slots_now, policy=self.config.data_policy,
                                    defer_restore=self.config.defer_restore)
            naive_members = labels + list(fp.pads)
            self._append(gates, lambda: _unfused_shifts(naive_members, direction, power,
                                                        self.layout), self.layout.data_qubits)
            pads = [self.inv[p] for p in fp.pads]  # before this group's permutation
            if self.config.defer_restore:
                for sub in fp.subgroups:
                    self._apply_swaps(sub.swaps)
            log.debug("shift %s%d: %d members, %s, %d gates",
                      direction, power, len(labels) + len(fp.pads), fp.mode, len(gates))
            self.shift_groups.append({
                "op": f"{direction}{power}",
                "items": [it.index for it in members],
                "pads": pads,
                "mode": fp.mode,
                "fused_mcx": len(gates),
                "naive_mcx": len(naive_members) * (n - k),
                "fused_data_width": max(sub.cube[0].bit_count() for sub in fp.subgroups),
                "naive_data_width": m,
            })

    def deletes(self) -> None:
        items = [it for it in self.plan.items if it.mode == "delete"]
        for rows, members in _row_groups(items, "delete_rows"):
            labels = [self.cur[it.index] for it in members]
            row_plan, gates = delete_group(labels, rows, self.layout,
                                           self.config.matrix_policy)
            self._append(gates, lambda: _unfused_flips(labels, rows, self.layout),
                         self.layout.matrix_qubits)
            self.delete_groups.append({
                "rows": list(rows),
                "items": [it.index for it in members],
                "mode": row_plan.mode,
                "fused_mcx": len(gates),
                "naive_mcx": len(members) * len(rows),
            })

    def inserts(self) -> None:
        items = [it for it in self.plan.items if it.mode == "insert"]
        if not items:
            return
        row_groups = [(rows, [self.cur[it.index] for it in members])
                      for rows, members in _row_groups(items, "insert_rows")]
        gates = insert_stage(row_groups, self.layout, self.config.matrix_policy)

        def per_item() -> list[Gate]:
            full = (1 << self.layout.m) - 1
            out = [delete_flip(self.layout, (full, self.cur[it.index])) for it in items]
            for rows, labels in row_groups:
                out += _unfused_flips(labels, rows, self.layout)
            return out

        self._append(gates, per_item, self.layout.matrix_qubits)
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
        slots as settled and never borrows them as intermediate states; when
        every item is home it routes no swap.  The swap gates are built on
        the data register and embedded, as a fusion plan's are, and the full
        circuit is the one that checks them.
        """
        m = self.layout.m
        pairs = tuple(sorted((self.cur[it.index], it.index) for it in self.plan.items))
        swaps = [basis_swap(a, b, m) for a, b in route_permutation(pairs, m)]
        emitted = embed_gates(swaps, self.layout.total, self.layout.data_qubits)
        self._append(emitted, lambda: emitted, self.layout.data_qubits)


def compile_matrix(matrix: SparseMatrix, config: CompileConfig | None = None) -> EncodedCircuit:
    """Compile a sparse matrix into a gate-level block-encoding circuit."""
    config = instance(CompileConfig() if config is None else config, CompileConfig, "config")
    plan = analyze(matrix, config.strategy)
    items = [it.magnitude for it in plan.items]
    prep = synthesize_prep(items, [it.phase for it in plan.items])
    unprep = synthesize_unprep(prep)
    layout = RegisterLayout(prep.n_qubits, matrix.n)
    alpha = float(sum(items))

    asm = _Assembler(plan, layout, config)
    if not config.skip_index_map:
        asm.shifts()
        asm.deletes()
        asm.inserts()
        if config.defer_restore:
            asm.restore()

    gates = (embed_gates(prep.gates, layout.total, layout.data_qubits) + asm.gates
             + embed_gates(unprep.gates, layout.total, layout.data_qubits))
    circuit = Circuit(layout.total, tuple(gates), layout, prep.global_phase)

    stats = _build_stats(circuit, asm, alpha, plan, config)
    log.info("compiled %dx%d matrix: %d qubits, %d gates, alpha=%g",
             matrix.dim, matrix.dim, layout.total, len(circuit.gates), alpha)
    return EncodedCircuit(circuit, alpha, layout, stats, plan, config)


def _build_stats(circuit: Circuit, asm: _Assembler, alpha: float,
                 plan: OperationPlan, config: CompileConfig) -> dict:
    # the kinds by a C-level count of each gate's first field; the widths read
    # two fields by name, which measured faster than unpacking all four
    kinds = Counter(map(itemgetter(0), circuit.gates))
    widths = Counter(g.controls[0].bit_count() for g in circuit.gates if g.kind == "mcx")
    naive_mcx = (sum(g["naive_mcx"] for g in asm.shift_groups + asm.delete_groups)
                 + asm.insert_stats.get("naive_mcx", 0))
    return {
        "alpha": alpha,
        "qubits": circuit.n_qubits,
        "total_gates": len(circuit.gates),
        "gate_counts": dict(kinds),
        "mcx_width_histogram": {str(k): v for k, v in sorted(widths.items())},
        "permutation_gates": asm.permute_count,
        "state_prep_gates": len(circuit.gates) - len(asm.gates),
        "shift_groups": asm.shift_groups,
        "delete_groups": asm.delete_groups,
        "insert": asm.insert_stats,
        "fused_mcx": asm.fused_mcx,
        "naive_mcx": naive_mcx,
        "mcx_saving": naive_mcx - asm.fused_mcx,
        "strategy": plan.strategy,
        "naive": config.naive,
        "skip_index_map": config.skip_index_map,
        "defer_restore": config.defer_restore,
    }


def format_stats(encoded: EncodedCircuit) -> str:
    """Gate-count report comparing the fused pipeline against per-item gates."""
    s = encoded.stats
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
