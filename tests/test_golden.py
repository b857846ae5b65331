"""Every fixture report matches the stored golden output byte for byte."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "golden_reports", Path(__file__).parent / "golden" / "reports.py")
reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reports)


def test_fixture_reports_match_golden_file():
    assert reports.mismatches(reports.load()) == []
