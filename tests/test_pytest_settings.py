"""The suite's own warning filters keep failure reports readable.

``pytest.ini`` turns every ``DeprecationWarning`` into an error.  These
tests run pytest on a throwaway test file, in a subprocess under that same
configuration, with the working directory in a temp dir so hypothesis's
example database lands there.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYTEST_INI = Path(__file__).resolve().parent.parent / "pytest.ini"


def run_pytest(tmp_path: Path, source: str) -> subprocess.CompletedProcess:
    (tmp_path / "test_probe.py").write_text(source)
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYTEST_INI),
         "-p", "no:cacheprovider", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )


def test_failing_property_keeps_its_report(tmp_path):
    """On a failure hypothesis imports code that warns on import; the
    report must still name the falsifying example."""
    proc = run_pytest(tmp_path, (
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_broken(x):\n"
        "    assert x < 5\n"
    ))
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out, out
    assert "INTERNALERROR" not in out, out


def test_deprecation_warning_still_fails_a_test(tmp_path):
    proc = run_pytest(tmp_path, (
        "import warnings\n\n\n"
        "def test_warns():\n"
        "    warnings.warn('old call', DeprecationWarning)\n"
    ))
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "1 failed" in out, out
