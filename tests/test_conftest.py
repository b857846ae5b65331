import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails_from_five(n):
    assert n < 5
"""


@pytest.mark.skipif(importlib.util.find_spec("libcst") is None,
                    reason="the failure explanation imports libcst only when installed")
def test_failing_property_prints_its_example_under_w_error(tmp_path):
    # the child loads tests/conftest.py as a plugin, so it runs the same set-up
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    env = dict(os.environ, PYTHONPATH=str(TESTS))
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-W", "error", "-p", "conftest",
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    out = child.stdout + child.stderr
    assert child.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
