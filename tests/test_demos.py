"""Demos 01-04 run to the end against the installed API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import driftsched

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_simplex_geometry.py", "02_tracking_a_drifting_target.py",
                                  "03_drifting_soft_mdps.py", "04_planner_adaptation.py"])
def test_demo_runs(name):
    src = str(Path(driftsched.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
