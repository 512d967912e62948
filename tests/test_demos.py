"""Smoke test: every demo script runs to completion."""

import glob
import os
import runpy

import pytest

DEMO_DIR = os.path.join(os.path.dirname(__file__), "..", "demo")


@pytest.mark.parametrize(
    "path", sorted(glob.glob(os.path.join(DEMO_DIR, "*.py"))), ids=os.path.basename
)
def test_demo_runs(path, capsys):
    runpy.run_path(path, run_name="__main__")
    assert capsys.readouterr().out
