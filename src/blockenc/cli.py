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
from .errors import BadInput, BlockencError
from .ingest import load_matrix, save_matrix
from .ir import export_json, export_text, import_json, import_text
from .pipeline import CompileConfig, compile_matrix, format_stats
from .verify import DEFAULT_TOL, check_structured_budget, check_tolerance, verify_circuit

log = logging.getLogger("blockenc")


def _config_from_args(args) -> CompileConfig:
    fixed = args.fixed_index  # checked by CompileConfig
    policies = {} if fixed is None else {"data_policy": fixed, "matrix_policy": fixed}
    return CompileConfig(strategy=args.strategy if args.strategy == "auto" else int(args.strategy),
                         zero_pad=not args.no_zero_pad, skip_index_map=args.skip_oc,
                         defer_restore=args.defer_restore, naive=args.naive, **policies)


def _write_text(path, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise BadInput(f"cannot write {path}: {exc}") from exc


def _write_ir(circuit, meta: dict, path: Path) -> None:
    export = export_json if path.suffix == ".json" else export_text
    _write_text(path, export(circuit, meta))


def _read_ir(path: Path):
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise BadInput(f"cannot read circuit file {path}: {exc}") from exc
    if path.suffix == ".json":
        return import_json(text)
    return import_text(text)


def cmd_compile(args) -> int:
    matrix = load_matrix(args.infile)
    encoded = compile_matrix(matrix, _config_from_args(args))
    out = Path(args.out)
    _write_ir(encoded.circuit, {"alpha": encoded.alpha}, out)
    stats_path = out.with_suffix(out.suffix + ".stats.json")
    _write_text(stats_path, json.dumps(encoded.stats, indent=2, sort_keys=True) + "\n")
    log.info("wrote %s and %s", out, stats_path)
    return 0


def cmd_verify(args) -> int:
    check_tolerance(args.tol)
    matrix = load_matrix(args.matrix)
    circuit, meta = _read_ir(Path(args.circuit))
    if "alpha" not in meta:
        raise BadInput(f"{args.circuit} records no alpha to verify against")
    report = verify_circuit(matrix, circuit, meta["alpha"], args.tol)
    print(report)
    if args.out:
        _write_text(args.out, report.to_json())
    return 0 if report.passed else 1


def cmd_stats(args) -> int:
    matrix = load_matrix(args.infile)
    encoded = compile_matrix(matrix, _config_from_args(args))
    print(format_stats(encoded))
    if args.out:
        _write_text(args.out, json.dumps(encoded.stats, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_export(args) -> int:
    circuit, meta = _read_ir(Path(args.infile))
    _write_ir(circuit, meta, Path(args.out))
    return 0


def cmd_demo(args) -> int:
    check_tolerance(args.tol)
    if args.seed < 0:
        raise BlockencError(f"--seed must be non-negative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    if args.case == "tridiagonal":
        # at most six plan items (three bands, a real and an imaginary part
        # each) take m = 3 data qubits; a negative n is tridiagonal's BadInput
        check_structured_budget(3, args.n)
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
    report = verify_circuit(matrix, encoded.circuit, encoded.alpha, args.tol)
    print(format_stats(encoded))
    print(report)
    if args.out:
        _write_ir(encoded.circuit, {"alpha": encoded.alpha}, Path(args.out))
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockenc",
        description="Compile sparse complex matrices into block-encoding circuits.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_compile_opts(p):
        p.add_argument("--strategy", choices=["auto", "1", "2", "3"], default="auto",
                       help="repeated-diagonal encoding")
        p.add_argument("--fixed-index", dest="fixed_index", default=None,
                       metavar="{right|left}",
                       help="which end of a label holds the fixed bits of a fused-gate "
                            "permutation's target cube, on both registers (default: "
                            "data right-ended, matrix left-ended)")
        p.add_argument("--no-zero-pad", dest="no_zero_pad", action="store_true",
                       help="never borrow zero-amplitude data slots to pad a fused set "
                            "to a power of two")
        p.add_argument("--skip-oc", dest="skip_oc", action="store_true",
                       help="omit the index-mapping stage (diagonal check)")
        p.add_argument("--defer-restore", dest="defer_restore", action="store_true",
                       help="permute once per fused operation and restore the data "
                            "order once at the end")
        p.add_argument("--naive", action="store_true",
                       help="per-item gates without fusion (baseline)")

    def add_tol(p):
        p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="largest entrywise |alpha*B - A| that passes (default: 1e-9)")

    p = sub.add_parser("compile", help="matrix JSON -> circuit IR + stats")
    p.add_argument("--in", dest="infile", required=True, help="matrix JSON file")
    p.add_argument("--out", required=True,
                   help="circuit IR file, JSON if it ends in .json; the stats JSON "
                        "goes to OUT.stats.json")
    add_compile_opts(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("verify", help="simulate a circuit IR against a matrix")
    p.add_argument("--matrix", required=True, help="matrix JSON file")
    p.add_argument("--circuit", required=True,
                   help="circuit IR file (text, or JSON by a .json suffix) that records alpha")
    add_tol(p)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("stats", help="compile and print the gate-count report")
    p.add_argument("--in", dest="infile", required=True, help="matrix JSON file")
    p.add_argument("--out", default=None, help="write the stats JSON here")
    add_compile_opts(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("export", help="convert circuit IR between text and JSON")
    p.add_argument("--in", dest="infile", required=True,
                   help="circuit IR file, JSON if it ends in .json")
    p.add_argument("--out", required=True, help="file to write, JSON if it ends in .json")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("demo", help="build, compile and verify a bundled example")
    p.add_argument("case", choices=["tridiagonal", "structured32"], help="example to build")
    p.add_argument("--seed", type=int, default=0,
                   help="non-negative seed of the example's random values (default: 0)")
    p.add_argument("--n", type=int, default=3,
                   help="matrix qubits for the tridiagonal case, at most 17")
    p.add_argument("--coeffs", default=None,
                   help="six comma-separated values re1,im1,re2,im2,re3,im3 "
                        "for the tridiagonal bands (default: seeded random)")
    p.add_argument("--out", default=None, help="write the compiled IR here")
    p.add_argument("--save-matrix", dest="save_matrix", default=None,
                   help="write the example's matrix JSON here")
    add_tol(p)
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
