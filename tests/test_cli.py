import json

import pytest

from blockenc.cli import main
from blockenc.demo import tridiagonal
from blockenc.errors import BlockencError
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


def test_compile_flags(tri_path, tmp_path):
    out = tmp_path / "c.ir"
    assert main(["compile", "--in", str(tri_path), "--out", str(out),
                 "--skip-oc", "--no-zero-pad", "--fixed-index", "left",
                 "--strategy", "1"]) == 0
    assert main(["compile", "--in", str(tri_path), "--out", str(out),
                 "--defer-restore", "--fixed-index", "explicit:0"]) == 0


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
        with pytest.raises(BlockencError):
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
])
def test_export_rejects_malformed_json_ir(tmp_path, capsys, body):
    with pytest.raises(BlockencError):
        import_json(body)
    src = tmp_path / "bad.json"
    src.write_text(body)
    assert main(["export", "--in", str(src), "--out", str(tmp_path / "out.ir")]) == 2
    assert "error" in capsys.readouterr().err


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
], ids=["bare-x", "layout-m-word", "layout-no-n", "ctrl-no-value", "mcx-no-target",
        "ctrl-negative-qubit", "ry-angle-word", "qubits-word", "qubits-negative",
        "alpha-word", "gphase-word"])
def test_export_rejects_malformed_text_ir(tmp_path, capsys, body):
    with pytest.raises(BlockencError):
        import_text(body)
    src = tmp_path / "bad.ir"
    src.write_text(body)
    assert main(["export", "--in", str(src), "--out", str(tmp_path / "out.json")]) == 2
    assert "error" in capsys.readouterr().err


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
], ids=["nan", "fractional-row", "bool-row", "no-row", "string-re", "huge-re",
        "entries-object", "entry-int", "list-document"])
def test_stats_rejects_malformed_matrix(tmp_path, capsys, body):
    src = tmp_path / "bad.json"
    src.write_text(body)
    assert main(["stats", "--in", str(src)]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["demo", "tridiagonal", "--fixed-index", "explicit:a"],
    ["demo", "tridiagonal", "--coeffs", "1,2,3,4,5,x"],
    ["demo", "tridiagonal", "--n", "-1"],
], ids=["fixed-index-word", "coeffs-word", "negative-n"])
def test_bad_argument_values_exit_2(capsys, argv):
    assert main(argv) == 2
    assert "error" in capsys.readouterr().err
