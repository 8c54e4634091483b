"""Benchmark-side spans around public blockenc functions.

``Tracer.install`` replaces a function with a timing wrapper in every
``blockenc`` module that binds it (the defining module, the package and any
module that imported the name), and ``uninstall`` puts every original back.
Each call records a span: name, start, end and the span that was open when
it began.  A layer's self time is its duration minus the time covered by its
child spans; calls are single-threaded and nested, so children never overlap.

Names a later version of the package renames or removes are reported as
missing instead of failing the run.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field

# (span name, module whose binding is the original, attribute, kind).  A
# "count" target records calls only: validate_gate runs once per gate of
# every Circuit built, too often for a span each.
TARGETS = (
    ("ingest.matrix_from_dict", "blockenc.ingest", "matrix_from_dict", "span"),
    ("ingest.analyze", "blockenc.ingest", "analyze", "span"),
    ("state_prep.prep", "blockenc.state_prep", "synthesize_prep", "span"),
    ("state_prep.unprep", "blockenc.state_prep", "synthesize_unprep", "span"),
    ("index_map.plan_fusion", "blockenc.index_map", "plan_fusion", "span"),
    ("index_map.delete_rows_plan", "blockenc.index_map", "delete_rows_plan", "span"),
    ("assignment.solve_assignment", "blockenc.assignment", "solve_assignment", "span"),
    ("assignment.lsap", "blockenc.assignment", "linear_sum_assignment", "span"),
    ("permute.route_permutation", "blockenc.permute", "route_permutation", "span"),
    ("permute.permute_circuit", "blockenc.permute", "permute_circuit", "span"),
    ("pipeline.compile_matrix", "blockenc.pipeline", "compile_matrix", "span"),
    ("ir.embed_gates", "blockenc.ir", "embed_gates", "span"),
    ("ir.validate_gate", "blockenc.ir", "validate_gate", "count"),
    ("ir.export_text", "blockenc.ir", "export_text", "span"),
    ("ir.import_text", "blockenc.ir", "import_text", "span"),
    ("ir.circuit_unitary", "blockenc.ir", "circuit_unitary", "span"),
    ("ir.unitarity_residual", "blockenc.ir", "unitarity_residual", "span"),
    ("verify.verify_circuit", "blockenc.verify", "verify_circuit", "span"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    gates: int = 0  # circuit_unitary only: gates simulated

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)
    _mark: int = 0
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def _span_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, parent.id if parent else None,
                        time.perf_counter())
            if name == "ir.circuit_unitary" and args:
                span.gates = len(getattr(args[0], "gates", ()))
            self.spans.append(span)
            self._stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded blockenc module that binds it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "blockenc" or name.startswith("blockenc."))]
        self.missing = []
        for name, home, attr, kind in TARGETS:
            home_mod = sys.modules.get(home)
            original = getattr(home_mod, attr, None) if home_mod else None
            if not callable(original):
                self.missing.append(name)
                continue
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            wrapper = make(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def pass_summary(self) -> dict[str, dict[str, float]]:
        """Per span name since the previous call: calls, ms, self ms, gates."""
        out: dict[str, dict[str, float]] = {}

        def entry(name):
            return out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "gates": 0})

        for s in self.spans[self._mark:]:
            agg = entry(s.name)
            agg["calls"] += 1
            agg["ms"] += s.duration * 1e3
            agg["self_ms"] += s.self_time * 1e3
            agg["gates"] += s.gates
        for name, n in self.counts.items():
            entry(name)["calls"] += n
        self._mark = len(self.spans)
        self.counts.clear()
        return out

    def write(self, path, origin: float) -> None:
        """One JSON line per span, times in seconds since ``origin``."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                     "start": round(s.start - origin, 9),
                                     "end": round(s.end - origin, 9)}) + "\n")
