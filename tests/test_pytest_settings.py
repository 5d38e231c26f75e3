"""Tests of the suite's own pytest settings in pyproject.toml."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_failing_property_prints_its_falsifying_example(tmp_path):
    # filterwarnings turns warnings into errors; one raised in hypothesis's
    # report hook would end the run as an INTERNALERROR with no example
    (tmp_path / "test_property.py").write_text(
        "from hypothesis import given, strategies as st\n"
        "@given(st.integers())\n"
        "def test_small(x): assert x < 10\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "Falsifying example" in output
    assert "INTERNALERROR" not in output
