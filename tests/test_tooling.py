"""The test settings in pyproject.toml, run on a throwaway test file, and the
package's namespace."""

import ast
import pkgutil
import subprocess
import sys
from pathlib import Path

import blockenc

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_example_is_reported_and_the_session_goes_on(tmp_path):
    """A failing @given test imports hypothesis's patch writer, whose
    third-party imports warn; under filterwarnings = error that must not end
    the session with INTERNALERROR before the next test runs."""
    (tmp_path / "test_probe.py").write_text(PROBE)
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                           "-p", "no:cacheprovider", "test_probe.py"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert proc.returncode == 1, out
    assert "1 failed, 1 passed" in out, out


def test_every_submodule_name_is_the_module():
    # ``import blockenc.<name> as mod`` reads the attribute the package binds,
    # so a function exported under a submodule's name would shadow the module
    names = [info.name for info in pkgutil.iter_modules(blockenc.__path__)]
    assert "verify" in names
    for name in names:
        scope = {}
        exec(f"import blockenc.{name} as mod", scope)
        assert scope["mod"] is sys.modules[f"blockenc.{name}"], name


def test_verifier_imports_none_of_the_compiler_stages():
    tree = ast.parse(Path(blockenc.verify.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            assert node.level == 1 and node.module in ("errors", "ingest", "ir"), node.module
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            for top in (name.split(".")[0] for name in names):
                assert top == "numpy" or top in sys.stdlib_module_names, top


def test_no_compiler_stage_names_the_simulator():
    # the simulator serves the verifier alone, so it can move out of ir.py
    # without a compiler stage noticing
    simulator = {"circuit_unitary", "unitarity_residual", "check_budget", "MAX_SIM_ENTRIES"}
    for stage in ("ingest", "state_prep", "assignment", "permute", "index_map", "pipeline"):
        tree = ast.parse(Path(blockenc.__file__).with_name(f"{stage}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names}
            elif isinstance(node, (ast.Attribute, ast.Name)):
                names = {node.attr if isinstance(node, ast.Attribute) else node.id}
            else:
                continue
            assert not names & simulator, (stage, names & simulator)
