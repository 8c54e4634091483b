import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blockenc

from blockenc import cli
from blockenc.cli import main
from blockenc.demo import tridiagonal
from blockenc.errors import BadInput
from blockenc.ingest import save_matrix
from blockenc.ir import import_json, import_text


@pytest.fixture
def tri_path(tmp_path):
    m = tridiagonal(3, 0.3 - 0.2j, -0.5 + 0.4j, 0.7 + 0.6j)
    path = tmp_path / "tri8.json"
    save_matrix(m, path)
    return path


def test_compile_writes_ir_and_stats(tri_path, tmp_path):
    out = tmp_path / "tri8.ir"
    assert main(["compile", "--in", str(tri_path), "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("blockenc-ir v1\n")
    assert "alpha" in text
    stats = json.loads((tmp_path / "tri8.ir.stats.json").read_text())
    assert stats["fused_mcx"] <= stats["naive_mcx"]


def test_compile_then_verify_ok(tri_path, tmp_path):
    out = tmp_path / "c.ir"
    main(["compile", "--in", str(tri_path), "--out", str(out)])
    code = main(["verify", "--matrix", str(tri_path), "--circuit", str(out),
                 "--tol", "1e-9"])
    assert code == 0


def test_verify_detects_tampering(tri_path, tmp_path):
    out = tmp_path / "c.ir"
    main(["compile", "--in", str(tri_path), "--out", str(out)])
    lines = out.read_text().splitlines()
    drop = next(i for i, ln in enumerate(lines)
                if ln.startswith("mcx") and "target=q3" in ln)
    out.write_text("\n".join(lines[:drop] + lines[drop + 1:]) + "\n")
    code = main(["verify", "--matrix", str(tri_path), "--circuit", str(out)])
    assert code == 1
    # an infinite tolerance would pass it
    assert main(["verify", "--matrix", str(tri_path), "--circuit", str(out),
                 "--tol", "inf"]) == 2


def test_verify_debug_log_keeps_the_report(tri_path, tmp_path, capsys):
    circuit, plain, logged = tmp_path / "c.ir", tmp_path / "plain.json", tmp_path / "logged.json"
    main(["compile", "--in", str(tri_path), "--out", str(circuit)])
    capsys.readouterr()
    argv = ["verify", "--matrix", str(tri_path), "--circuit", str(circuit)]
    assert main(argv + ["--out", str(plain)]) == 0
    env = dict(os.environ, BLOCKENC_LOG="debug",
               PYTHONPATH=str(Path(blockenc.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "blockenc.cli", *argv, "--out", str(logged)],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == capsys.readouterr().out
    assert logged.read_text() == plain.read_text()


@pytest.mark.parametrize("alpha", ["x", [1], None, "missing"])
def test_verify_rejects_missing_or_non_numeric_alpha(tri_path, tmp_path, capsys, alpha):
    out = tmp_path / "c.json"
    main(["compile", "--in", str(tri_path), "--out", str(out)])
    doc = json.loads(out.read_text())
    if alpha == "missing":
        del doc["metadata"]["alpha"]
    else:
        doc["metadata"]["alpha"] = alpha
    out.write_text(json.dumps(doc))
    assert main(["verify", "--matrix", str(tri_path), "--circuit", str(out)]) == 2
    assert "alpha" in capsys.readouterr().err


def test_compile_deterministic_bytes(tri_path, tmp_path):
    a, b = tmp_path / "a.ir", tmp_path / "b.ir"
    main(["compile", "--in", str(tri_path), "--out", str(a)])
    main(["compile", "--in", str(tri_path), "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_export_text_json_round_trip(tri_path, tmp_path):
    ir = tmp_path / "c.ir"
    main(["compile", "--in", str(tri_path), "--out", str(ir)])
    js = tmp_path / "c.json"
    assert main(["export", "--in", str(ir), "--out", str(js)]) == 0
    back = tmp_path / "back.ir"
    assert main(["export", "--in", str(js), "--out", str(back)]) == 0
    assert back.read_text() == ir.read_text()


def test_stats_subcommand(tri_path, tmp_path, capsys):
    out = tmp_path / "s.json"
    assert main(["stats", "--in", str(tri_path), "--out", str(out)]) == 0
    assert "alpha" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert "mcx_width_histogram" in doc
    # compile writes the same stats JSON, byte for byte
    assert main(["compile", "--in", str(tri_path), "--out", str(tmp_path / "c.ir")]) == 0
    assert (tmp_path / "c.ir.stats.json").read_bytes() == out.read_bytes()


def test_demo_tridiagonal(capsys):
    assert main(["demo", "tridiagonal", "--seed", "7"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_demo_structured(tmp_path, capsys):
    out = tmp_path / "s32.ir"
    assert main(["demo", "structured32", "--seed", "3", "--out", str(out),
                 "--strategy", "2"]) == 0
    assert out.exists()
    assert "PASS" in capsys.readouterr().out


def test_demo_explicit_coefficients(capsys):
    code = main(["demo", "tridiagonal", "--coeffs", "0.3,-0.2,0.5,0.4,-0.7,0.6"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    assert main(["demo", "tridiagonal", "--coeffs", "1,2,3"]) == 2


def test_demo_deterministic(tmp_path):
    a, b = tmp_path / "a.ir", tmp_path / "b.ir"
    main(["demo", "tridiagonal", "--seed", "11", "--out", str(a)])
    main(["demo", "tridiagonal", "--seed", "11", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("case, compile_flags", [
    (["tridiagonal", "--n", "4", "--seed", "3"], []),
    (["structured32", "--seed", "5", "--defer-restore"], ["--defer-restore"]),
], ids=["tridiagonal", "structured32-deferred"])
def test_demo_saved_matrix_compiles_to_the_same_ir(tmp_path, capsys, case, compile_flags):
    saved, demo_ir, compiled = tmp_path / "m.json", tmp_path / "demo.ir", tmp_path / "c.ir"
    assert main(["demo", *case, "--save-matrix", str(saved), "--out", str(demo_ir)]) == 0
    assert main(["compile", "--in", str(saved), "--out", str(compiled), *compile_flags]) == 0
    assert compiled.read_bytes() == demo_ir.read_bytes()


@pytest.mark.parametrize("argv", [
    "export --in {tmp}/missing.ir --out {tmp}/x.json",
    "verify --matrix {tri} --circuit {tmp}/missing.ir",
    "export --in {tmp}/latin1.ir --out {tmp}/x.json",
    "compile --in {tri} --out {tmp}/nodir/x.ir",
    "stats --in {tri} --out {tmp}/nodir/s.json",
    "verify --matrix {tri} --circuit {tmp}/c.ir --out {tmp}/nodir/r.json",
    "demo tridiagonal --save-matrix {tmp}/nodir/m.json",
], ids=["export-missing", "verify-missing", "export-not-utf8", "compile-out", "stats-out",
        "verify-out", "demo-save-matrix"])
def test_unreadable_or_unwritable_file_exits_2(tri_path, tmp_path, capsys, argv):
    (tmp_path / "latin1.ir").write_bytes(b"blockenc-ir v1\nqubits 2\n\xff\n")
    assert main(["compile", "--in", str(tri_path), "--out", str(tmp_path / "c.ir")]) == 0
    capsys.readouterr()
    assert main([a.format(tmp=tmp_path, tri=tri_path) for a in argv.split()]) == 2
    assert capsys.readouterr().err.startswith("error: cannot ")


def test_compile_flags(tri_path, tmp_path):
    out = tmp_path / "c.ir"
    assert main(["compile", "--in", str(tri_path), "--out", str(out),
                 "--skip-oc", "--no-zero-pad", "--fixed-index", "left",
                 "--strategy", "1"]) == 0
    assert main(["compile", "--in", str(tri_path), "--out", str(out),
                 "--defer-restore", "--fixed-index", "right"]) == 0


def test_bad_matrix_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code = main(["compile", "--in", str(bad), "--out", str(tmp_path / "c.ir")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_export_rejects_swap_gates(tmp_path, capsys):
    text = "blockenc-ir v1\nqubits 2\nswap q0 q1\n"
    doc = json.dumps({"format": "blockenc-ir", "version": 1, "qubits": 2,
                      "gates": [{"kind": "swap", "qubits": [0, 1]}]})
    for importer, body, suffix in ((import_text, text, ".ir"), (import_json, doc, ".json")):
        with pytest.raises(BadInput):
            importer(body)
        src = tmp_path / f"swap{suffix}"
        src.write_text(body)
        assert main(["export", "--in", str(src), "--out", str(tmp_path / "out.ir")]) == 2
        assert "error" in capsys.readouterr().err


def _ir_json(**fields) -> str:
    doc = {"format": "blockenc-ir", "version": 1, "qubits": 2, "gates": []}
    doc.update(fields)
    return json.dumps(doc)


@pytest.mark.parametrize("body", [
    _ir_json(gates=[{"kind": "mcx", "pattern": "1X"}]),                  # no target
    _ir_json(gates=[{"kind": "mcx", "target": "1", "pattern": "0X"}]),   # target not an int
    _ir_json(gates=[{"kind": "mcx", "target": 1}]),                      # no pattern
    _ir_json(gates=[{"kind": "mcx", "target": 1, "pattern": 10}]),       # pattern not a string
    _ir_json(gates=[{"kind": "ry", "target": 0}]),                       # no angle
    _ir_json(gates=[{"kind": "phase", "target": 0, "angle": "0.5"}]),    # angle not a number
    _ir_json(gates=[5]),                                                 # gate not an object
    _ir_json(gates={}),
    _ir_json(qubits="2"),
    _ir_json(layout={"m": 1}),
    _ir_json(global_phase="0"),
    _ir_json(metadata=[]),
    '{"format": "blockenc-ir",',                                         # not JSON
    _ir_json(qubits=-1),
    _ir_json(metadata={"alpha": "x"}),
    _ir_json(metadata={"alpha": [1]}),
    _ir_json(metadata={"alpha": float("nan")}),
    _ir_json(gates=[{"kind": "x", "target": 1, "pattern": "1X"}]),      # controlled x
    _ir_json(metadata={"alpha": 1.5, "note": "hi"}),                     # key the text form lacks
    _ir_json(layout={}),                                                 # falsy layouts are
    _ir_json(layout=0),                                                  # not "no layout"
    _ir_json(layout=False),
    _ir_json(layout=[]),
    _ir_json(layout=""),
    _ir_json(qubits=5, layout={"m": 1, "n": 1}),                         # layout needs 3 qubits
    _ir_json(gates=[{"kind": "mcx", "target": 1, "pattern": "1X", "angle": 1.5}]),  # mcx angle
    _ir_json(gates=[{"kind": "x", "target": 1, "pattern": "XX"}]),      # x with a pattern
    _ir_json(gates=[{"kind": "x", "target": 1, "foo": 1}]),             # unknown gate key
    _ir_json(gates=[{"kind": "x", "target": 1, "pattern": None}]),      # null pattern
    _ir_json(global_phase=10 ** 400),                                    # ints beyond the
    _ir_json(metadata={"alpha": -10 ** 400}),                            # float range
    _ir_json(gates=[{"kind": "ry", "target": 0, "angle": 10 ** 400}]),
    _ir_json(qubits=-1, gates=[{"kind": "x", "target": 0}]),             # negative widths, the
    _ir_json(qubits=-10 ** 400, gates=[{"kind": "x", "target": 0}]),     # default pattern's length
])
def test_export_rejects_malformed_json_ir(tmp_path, capsys, body):
    with pytest.raises(BadInput):
        import_json(body)
    src = tmp_path / "bad.json"
    src.write_text(body)
    assert main(["export", "--in", str(src), "--out", str(tmp_path / "out.ir")]) == 2
    assert "error" in capsys.readouterr().err


def test_export_refuses_metadata_the_text_form_cannot_carry(tmp_path, capsys):
    # the text form has no line for "note", so the written file would not read back
    src = tmp_path / "c.json"
    src.write_text(_ir_json(metadata={"alpha": 1.5, "note": "hi"}))
    out = tmp_path / "c.txt"
    assert main(["export", "--in", str(src), "--out", str(out)]) == 2
    assert "note" in capsys.readouterr().err
    assert not out.exists()


def _ir_text(*lines) -> str:
    return "\n".join(["blockenc-ir v1", "qubits 2", *lines]) + "\n"


@pytest.mark.parametrize("body", [
    _ir_text("x"),                               # no target
    "blockenc-ir v1\nlayout m=x n=1\n",          # m not an int
    "blockenc-ir v1\nlayout m=1\n",              # no n
    _ir_text("mcx ctrl=q0 target=q1"),           # control without a value
    _ir_text("mcx ctrl=q0:1"),                   # no target
    _ir_text("mcx ctrl=q-1:1 target=q0"),        # control qubit out of range
    _ir_text("ry(abc) q1"),                      # angle not a number
    "blockenc-ir v1\nqubits two\n",
    "blockenc-ir v1\nqubits -1\n",
    _ir_text("alpha x"),
    _ir_text("gphase(x)"),
    _ir_text("alpha inf"),
    _ir_text("alpha nan"),
    _ir_text("gphase(nan)"),
    _ir_text("mcx ctrl=q0:X target=q1"),         # control value neither 0 nor 1
    _ir_text("mcx ctrl=q0:1,q0:0 target=q1"),    # control qubit repeated
    _ir_text("x ctrl=q0:1 q1"),                  # controlled x
    _ir_text("x z1"),                            # target qubit without the q
    _ir_text("mcx ctrl=w0:1 target=q1"),         # control qubit without the q
    _ir_text("mcx ctrl=q0:1 target=q1 junk"),    # trailing token
    _ir_text("ry(0.5) 91"),                      # bare number as the target
    "blockenc-ir v1\nlayout m=1 n=1 junk=5\n",   # extra layout key
    "blockenc-ir v1\nlayout m=1 n=1 m=0\n",      # layout key repeated
    "blockenc-ir v1\nlayout m=1 n=1\nlayout m=1 n=1\n",
    _ir_text("qubits 2"),                        # second qubit count
    "blockenc-ir v1\nlayout m=1 n=1\nqubits 3\n",
    _ir_text("alpha 1.0", "alpha 1.0"),
    _ir_text("gphase(0.5)", "gphase(0.5)"),
    "blockenc-ir v1\nqubits 3 7\n",
    _ir_text("alpha 1.0 junk"),
    _ir_text("gphase(0.5) junk"),
    "blockenc-ir v1\nqubits 1_0\n",              # int() reads underscores,
    "blockenc-ir v1\nqubits +3\n",               # signs
    "blockenc-ir v1\nqubits \u0663\n",           # and non-ASCII digits
    "blockenc-ir v1\nlayout m=+1 n=1\n",
    _ir_text("alpha 1_0"),                       # float() reads underscores
    _ir_text("gphase(\u0661.5)"),                # and non-ASCII digits,
    _ir_text("ry(2_0) q0"),                      # in the alpha, the global phase
    _ir_text("ry(\u0662) q0"),                   # and gate angles alike
    "blockenc-ir v1\n",                          # header only
    _ir_text("ry(1.25 q1"),                      # an angle with no closing ')'
    _ir_text("gphase(0.75"),                     # a phase with no closing ')'
    _ir_text("ry(0.5] q1"),                      # an angle closed by another character
    " blockenc-ir v1\nqubits 2\n",               # the header line is compared whole
    "blockenc-ir v1 \nqubits 2\n",
    "blockenc-ir v1\nqubits " + "9" * 5000 + "\n",  # more digits than int() converts
    _ir_text("x q" + "1" * 5000),
    _ir_text("mcx ctrl=q" + "1" * 5000 + ":1 target=q0"),
    "blockenc-ir v1\nx q0\nqubits 2\n",          # a gate line before the qubit count
], ids=["bare-x", "layout-m-word", "layout-no-n", "ctrl-no-value", "mcx-no-target",
        "ctrl-negative-qubit", "ry-angle-word", "qubits-word", "qubits-negative",
        "alpha-word", "gphase-word", "alpha-inf", "alpha-nan", "gphase-nan",
        "ctrl-value-x", "ctrl-repeated", "x-with-ctrl", "x-target-typo",
        "ctrl-qubit-typo", "trailing-junk", "ry-target-digits", "layout-extra-key",
        "layout-key-repeated", "second-layout", "second-qubits", "layout-then-qubits",
        "second-alpha", "second-gphase", "qubits-trailing", "alpha-trailing",
        "gphase-trailing", "qubits-underscore", "qubits-plus", "qubits-arabic-digit",
        "layout-plus", "alpha-underscore", "gphase-arabic-digit", "ry-underscore",
        "ry-arabic-digit", "header-only", "ry-unclosed", "gphase-unclosed",
        "ry-closed-by-bracket", "space-before-header", "space-after-header",
        "qubits-5000-digits", "x-target-5000-digits", "ctrl-qubit-5000-digits",
        "gate-before-qubits"])
def test_export_rejects_malformed_text_ir(tmp_path, capsys, body):
    with pytest.raises(BadInput):
        import_text(body)
    src = tmp_path / "bad.ir"
    src.write_text(body)
    assert main(["export", "--in", str(src), "--out", str(tmp_path / "out.json")]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("suffix, body, named", [
    (".ir", _ir_text("x q0", "x q9"), "in IR line 'x q9'"),
    (".ir", _ir_text("x ctrl=q0:1 q1"), "in IR line 'x ctrl=q0:1 q1'"),
    (".ir", _ir_text("mcx ctrl=q1:1 target=q1"), "in IR line 'mcx ctrl=q1:1 target=q1'"),
    (".json", _ir_json(gates=[{"kind": "x", "target": 0}, {"kind": "x", "target": 9}]),
     "in gate entry 1"),
], ids=["x-target-out-of-range", "x-with-ctrl", "mcx-ctrl-on-target", "json-target-9"])
def test_export_names_the_refused_gate(tmp_path, capsys, suffix, body, named):
    # the reader parses these gates; validate_gate refuses them
    src = tmp_path / f"bad{suffix}"
    src.write_text(body)
    assert main(["export", "--in", str(src), "--out", str(tmp_path / "out.txt")]) == 2
    assert named in capsys.readouterr().err


def _matrix_json(*entries, **fields) -> str:
    doc = {"dim": 2, "entries": list(entries)}
    doc.update(fields)
    return json.dumps(doc)


@pytest.mark.parametrize("body", [
    _matrix_json({"row": 0, "col": 0, "re": float("nan")}),     # NaN value
    _matrix_json({"row": 0.5, "col": 0, "re": 1.0}),            # fractional row
    _matrix_json({"row": True, "col": 0, "re": 1.0}),           # bool row
    _matrix_json({"col": 0, "re": 1.0}),                        # no row
    _matrix_json({"row": 0, "col": 0, "re": "1"}),              # re not a number
    _matrix_json({"row": 0, "col": 0, "re": 10 ** 400}),        # re beyond float range
    _matrix_json(entries={"row": 0, "col": 0}),                 # entries not a list
    _matrix_json(5),                                            # entry not an object
    "[1, 2]",                                                   # document not an object
    _matrix_json({"row": 0, "col": 0, "re": 1.0}, dim=2 ** 63),  # above the int64 labels
    _matrix_json({"row": 0, "col": 0, "re": 1e308},             # alpha beyond float range
                 {"row": 1, "col": 1, "re": -1e308, "im": 1e308}),
], ids=["nan", "fractional-row", "bool-row", "no-row", "string-re", "huge-re",
        "entries-object", "entry-int", "list-document", "dim-2-to-63", "alpha-overflow"])
def test_stats_rejects_malformed_matrix(tmp_path, capsys, body):
    src = tmp_path / "bad.json"
    src.write_text(body)
    assert main(["stats", "--in", str(src)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["demo", "tridiagonal", "--fixed-index", "explicit:0"],
    ["demo", "tridiagonal", "--coeffs", "1,2,3,4,5,x"],
    ["demo", "tridiagonal", "--n", "-1"],
    ["demo", "tridiagonal", "--n", "40"],
    ["demo", "tridiagonal", "--n", "18"],
    ["demo", "tridiagonal", "--tol", "inf"],
    ["demo", "tridiagonal", "--tol", "nan"],
    ["demo", "tridiagonal", "--tol", "-1"],
    ["demo", "tridiagonal", "--seed", "-1"],
], ids=["fixed-index-word", "coeffs-word", "negative-n", "huge-n", "n-over-budget", "tol-inf",
        "tol-nan", "tol-negative", "negative-seed"])
def test_bad_argument_values_exit_2(monkeypatch, capsys, argv):
    if "--n" in argv or "--tol" in argv:  # refused before anything compiles
        monkeypatch.setattr(cli, "compile_matrix", None)
    assert main(argv) == 2
    assert "error" in capsys.readouterr().err


def test_demo_over_budget_is_refused_before_the_matrix_is_built(monkeypatch, capsys):
    monkeypatch.setattr(cli, "demo_matrices", None)
    assert main(["demo", "tridiagonal", "--n", "18"]) == 2
    assert "n = 18" in capsys.readouterr().err


def test_every_option_has_help():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command, p in sub.choices.items():
        for action in p._actions:
            if "-h" not in action.option_strings:
                assert action.help, (command, action.option_strings or action.dest)
