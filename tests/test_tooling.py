"""The test settings in pyproject.toml, run on a throwaway test file."""

import subprocess
import sys
from pathlib import Path

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
