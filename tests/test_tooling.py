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
    simulator = {"apply_gates", "circuit_unitary", "unitarity_residual", "check_budget",
                 "MAX_SIM_ENTRIES"}
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


def test_errors_are_one_for_malformed_input_and_one_for_size():
    # BadInput covers every malformed input, BadGate (a BadInput) names a
    # refused gate, and TooLarge is valid input over the simulation budget
    package = Path(blockenc.__file__).parent
    tree = ast.parse((package / "errors.py").read_text())
    classes = {node.name: [ast.unparse(b) for b in node.bases]
               for node in tree.body if isinstance(node, ast.ClassDef)}
    assert classes == {"BlockencError": ["Exception"], "BadInput": ["BlockencError"],
                       "BadGate": ["BadInput"], "TooLarge": ["BlockencError"]}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                call = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                assert ast.unparse(call) in ("BadInput", "BadGate", "TooLarge"), \
                    (path.name, node.lineno, ast.unparse(node))


def test_assignments_are_solved_only_behind_the_swap_count_bound():
    # plan_fusion prices a padded plan by its swap-count bound before it calls
    # _permute_subgroup, the one function that solves and routes; any other
    # reference to them in index_map would solve outside that check
    tree = ast.parse(Path(blockenc.index_map.__file__).read_text())
    watched = {"solve_assignment", "route_permutation", "_permute_subgroup"}
    users = {name: set() for name in watched}
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in watched:
                users[node.id].add(owner)
    assert users == {"solve_assignment": {"_permute_subgroup"},
                     "route_permutation": {"_permute_subgroup"},
                     "_permute_subgroup": {"plan_fusion"}}


def test_the_target_cube_is_decided_only_in_plan_fusion():
    # the swap-count bound and the route must use one cube, so index_map
    # computes it in one place: the fixed bits (policy.resolve) and their
    # value (mode_pattern) are read only inside plan_fusion
    tree = ast.parse(Path(blockenc.index_map.__file__).read_text())
    users = {"mode_pattern": set(), "resolve": set()}
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id == "mode_pattern":
                users["mode_pattern"].add(owner)
            elif isinstance(node, ast.Attribute) and node.attr == "resolve":
                users["resolve"].add(owner)
    assert users == {"mode_pattern": {"plan_fusion"}, "resolve": {"plan_fusion"}}


def test_the_label_rule_is_defined_once_and_every_label_entry_applies_it():
    # one checker decides what a label set and a label width are; each entry
    # of the fusion layer that takes labels or a width calls it
    package = Path(blockenc.__file__).parent
    defined, calls = {}, {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                defined.setdefault(node.name, []).append(path.stem)
                calls[path.stem, node.name] = {
                    call.func.id for call in ast.walk(node)
                    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}
    assert defined["sorted_labels"] == defined["label_width"] == ["assignment"]
    assert "_sorted_labels" not in defined and "_label_set" not in defined
    assert "label_width" in calls["assignment", "sorted_labels"]
    entries = [("index_map", "is_reducible"), ("index_map", "plan_fusion"),
               ("index_map", "delete_rows_plan"), ("index_map", "delete_group"),
               ("index_map", "insert_stage"), ("assignment", "solve_assignment"),
               ("permute", "route_permutation")]
    for entry in entries:
        assert "sorted_labels" in calls[entry], entry
    assert "label_width" in calls["assignment", "build_target_set"]


def test_a_route_becomes_gates_only_in_swap_gates():
    # one function turns a route of basis swaps into gates on a register, for
    # the fusion plans, the deferred restore and permute_circuit alike, and a
    # fusion plan is its cubes and one route, with no per-subgroup record
    package = Path(blockenc.__file__).parent
    callers, classes = set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        classes.update(node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef))
        for top in tree.body:
            owner = (path.stem, getattr(top, "name", None))
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and ast.unparse(node.func).split(".")[-1] == "basis_swap"):
                    callers.add(owner)
    assert callers == {("permute", "swap_gates")}
    assert "FusionPlan" in classes and "SubFusion" not in classes
