"""The repo's pytest settings report a failing hypothesis example like any failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None, derandomize=True)
def test_fails(x):
    assert x < 0, "the failing example's assertion"


def test_passes():
    pass
'''


def test_a_failing_hypothesis_example_fails_only_its_test(tmp_path):
    # with every warning an error, a warning raised while hypothesis reports
    # the example would end the session as INTERNALERROR (exit 3)
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "the failing example's assertion" in run.stdout
    assert "1 failed, 1 passed" in run.stdout
