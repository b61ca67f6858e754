"""The test configuration reports failures: a failing hypothesis test under
the repository's warning filters fails its own test and the session goes on."""
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

CASES = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n < 0


def test_passes():
    assert True
"""


def test_failing_hypothesis_test_does_not_abort_the_session(tmp_path):
    (tmp_path / "test_cases.py").write_text(CASES)
    done = subprocess.run(
        [
            sys.executable,
            "-m",
            "pytest",
            "-p",
            "no:cacheprovider",
            "-c",
            str(PYPROJECT),
            "--rootdir",
            str(tmp_path),
            str(tmp_path / "test_cases.py"),
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    output = done.stdout + done.stderr
    assert "INTERNALERROR" not in output
    assert done.returncode == 1, output
    assert "1 failed, 1 passed" in output
