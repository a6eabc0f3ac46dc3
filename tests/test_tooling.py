"""The test runner's own settings: a failing test is reported, the run
goes on to report the others, and hypothesis keeps its files outside the
checkout."""

import subprocess
import sys
from pathlib import Path

from hypothesis.configuration import storage_directory

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

PROPERTIES = '''
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers(0, 10))
def test_fails(n):
    assert n < 5


@settings(derandomize=True, database=None)
@given(st.integers(0, 10))
def test_passes(n):
    assert n <= 10
'''


def test_failing_property_does_not_abort_the_run(tmp_path):
    """Under the repository's pytest settings (warnings are errors), one
    failing hypothesis test is reported as a failure and the next test
    still runs: no INTERNALERROR from hypothesis's failure report."""
    (tmp_path / "test_pair.py").write_text(PROPERTIES)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_pair.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out


def test_hypothesis_writes_outside_the_repository():
    """The test settings (conftest.py) give hypothesis a home directory
    outside the checkout, so a test run leaves .hypothesis/ as it was."""
    home = storage_directory(intent_to_write=False).path.resolve()
    assert not home.is_relative_to(ROOT), home
