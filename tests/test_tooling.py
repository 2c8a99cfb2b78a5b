"""The test configuration: a failing property test is reported as one
failure, and the tests after it still run."""

from __future__ import annotations

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None)
@given(st.integers())
def test_fails(n):
    assert n < 0


def test_after():
    pass
'''


def test_failing_property_test_is_a_failure(tmp_path):
    # pytest under the project's configuration (filterwarnings included),
    # run where hypothesis may write its failure patch
    (tmp_path / "test_tiny.py").write_text(FAILING_PROPERTY)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_tiny.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1
    assert "1 failed, 1 passed" in done.stdout
