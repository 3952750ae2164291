"""The test settings themselves: a failing test must be reported as a failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FAILING_PROPERTY_TEST = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, deadline=None, database=None)
@given(st.integers())
def test_always_fails(n):
    assert n != n
"""


def test_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    """Under filterwarnings = ["error"], a warning raised inside Hypothesis's
    report hook once ended the whole session in INTERNALERROR, hiding the
    falsifying example and every test after the failing one."""
    test_file = tmp_path / "test_always_fails.py"
    test_file.write_text(FAILING_PROPERTY_TEST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q", str(test_file)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    out = run.stdout + run.stderr
    assert "INTERNALERROR" not in out, out
    assert run.returncode == 1, out  # pytest's "tests failed" exit code
    assert "Falsifying example" in out and "1 failed" in out, out
