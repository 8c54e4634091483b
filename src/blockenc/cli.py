"""Command-line front end: compile, verify, stats, export, demo."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import demo as demo_matrices
from .assignment import FixedIndexPolicy
from .errors import BlockencError
from .ingest import load_matrix, save_matrix
from .ir import export_json, export_text, import_json, import_text
from .pipeline import CompileConfig, compile_matrix, format_stats, stats_report
from .verify import verify, verify_circuit

log = logging.getLogger("blockenc")


def _config_from_args(args) -> CompileConfig:
    kwargs = {}
    if getattr(args, "tol", None) is not None:
        kwargs["tolerance"] = args.tol
    strategy = getattr(args, "strategy", "auto")
    kwargs["strategy"] = strategy if strategy == "auto" else int(strategy)
    fixed = getattr(args, "fixed_index", None)
    if fixed:
        if fixed == "right":
            policy = FixedIndexPolicy.right_ended()
        elif fixed == "left":
            policy = FixedIndexPolicy.left_ended()
        elif fixed.startswith("explicit:"):
            try:
                bits = [int(b) for b in fixed[len("explicit:"):].split(",") if b != ""]
            except ValueError:
                raise BlockencError(f"bad --fixed-index value {fixed!r}") from None
            policy = FixedIndexPolicy.explicit(bits)
        else:
            raise BlockencError(f"bad --fixed-index value {fixed!r}")
        kwargs["data_policy"] = policy
        kwargs["matrix_policy"] = policy
    kwargs["zero_pad"] = not getattr(args, "no_zero_pad", False)
    kwargs["skip_index_map"] = getattr(args, "skip_oc", False)
    kwargs["defer_restore"] = getattr(args, "defer_restore", False)
    kwargs["naive"] = getattr(args, "naive", False)
    return CompileConfig(**kwargs)


def _write_ir(encoded, path: Path) -> None:
    meta = {"alpha": encoded.alpha}
    if path.suffix == ".json":
        path.write_text(export_json(encoded.circuit, meta))
    else:
        path.write_text(export_text(encoded.circuit, meta))


def _read_ir(path: Path):
    text = Path(path).read_text()
    if path.suffix == ".json":
        return import_json(text)
    return import_text(text)


def cmd_compile(args) -> int:
    matrix = load_matrix(args.infile)
    encoded = compile_matrix(matrix, _config_from_args(args))
    out = Path(args.out)
    _write_ir(encoded, out)
    stats_path = out.with_suffix(out.suffix + ".stats.json")
    stats_path.write_text(json.dumps(stats_report(encoded), indent=2, sort_keys=True) + "\n")
    log.info("wrote %s and %s", out, stats_path)
    return 0


def cmd_verify(args) -> int:
    matrix = load_matrix(args.matrix)
    circuit, meta = _read_ir(Path(args.circuit))
    alpha = meta.get("alpha")
    if alpha is None:
        from .ingest import extract_data_vectors
        data, _ = extract_data_vectors(matrix)
        alpha = data.alpha
    report = verify_circuit(matrix, circuit, alpha, args.tol)
    print(report)
    if args.out:
        Path(args.out).write_text(report.to_json())
    return 0 if report.passed else 1


def cmd_stats(args) -> int:
    matrix = load_matrix(args.infile)
    encoded = compile_matrix(matrix, _config_from_args(args))
    print(format_stats(encoded))
    if args.out:
        Path(args.out).write_text(json.dumps(stats_report(encoded), indent=2,
                                             sort_keys=True) + "\n")
    return 0


def cmd_export(args) -> int:
    src, dst = Path(args.infile), Path(args.out)
    circuit, meta = _read_ir(src)
    if dst.suffix == ".json":
        dst.write_text(export_json(circuit, meta))
    else:
        dst.write_text(export_text(circuit, meta))
    return 0


def cmd_demo(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.case == "tridiagonal":
        if args.coeffs:
            try:
                vals = [float(v) for v in args.coeffs.split(",")]
            except ValueError:
                raise BlockencError(f"bad --coeffs value {args.coeffs!r}") from None
            if len(vals) != 6:
                raise BlockencError("--coeffs needs six comma-separated values")
            matrix = demo_matrices.tridiagonal(
                args.n, complex(vals[0], vals[1]), complex(vals[2], vals[3]),
                complex(vals[4], vals[5]))
        else:
            matrix = demo_matrices.random_tridiagonal(args.n, rng)
    else:
        matrix = demo_matrices.structured32(rng)
    if args.save_matrix:
        save_matrix(matrix, args.save_matrix)
    encoded = compile_matrix(matrix, _config_from_args(args))
    report = verify(matrix, encoded)
    print(format_stats(encoded))
    print(report)
    if args.out:
        _write_ir(encoded, Path(args.out))
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockenc",
        description="Compile sparse complex matrices into block-encoding circuits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_compile_opts(p):
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--strategy", choices=["auto", "1", "2", "3"], default="auto")
        p.add_argument("--fixed-index", dest="fixed_index", default=None,
                       metavar="{right|left|explicit:<bits>}")
        p.add_argument("--no-zero-pad", dest="no_zero_pad", action="store_true")
        p.add_argument("--skip-oc", dest="skip_oc", action="store_true",
                       help="omit the index-mapping stage (diagonal check)")
        p.add_argument("--defer-restore", dest="defer_restore", action="store_true")
        p.add_argument("--naive", action="store_true",
                       help="per-item gates without fusion (baseline)")

    p = sub.add_parser("compile", help="matrix JSON -> circuit IR + stats")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    add_compile_opts(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("verify", help="simulate a circuit IR against a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--circuit", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="compile and print the gate-count report")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None)
    add_compile_opts(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("export", help="convert circuit IR between text and JSON")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("demo", help="build, compile and verify a bundled example")
    p.add_argument("case", choices=["tridiagonal", "structured32"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=3, help="matrix qubits for the tridiagonal case")
    p.add_argument("--coeffs", default=None,
                   help="six comma-separated values re1,im1,re2,im2,re3,im3 "
                        "for the tridiagonal bands (default: seeded random)")
    p.add_argument("--out", default=None, help="write the compiled IR here")
    p.add_argument("--save-matrix", dest="save_matrix", default=None)
    add_compile_opts(p)
    p.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("BLOCKENC_LOG", "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BlockencError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
