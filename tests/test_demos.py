"""Smoke test: the narrative demos run end to end and print."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_budget_calibration.py",
                                  "02_synthesizing_counts.py",
                                  "03_exhaustive_privacy_audit.py",
                                  "04_exact_normalizer_identity.py",
                                  "05_utility_study.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
