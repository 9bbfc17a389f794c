"""Demos 01-06 and the README quick start run to the end against the installed API.

Each demo's stdout is pinned by its SHA-256, so a change that moves any number a
demo prints shows here.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import driftsched

DEMOS = Path(__file__).resolve().parents[1] / "demos"

STDOUT_SHA256 = {
    "01_simplex_geometry.py": "5cd6c4ce96fe0cb8507a6349f2388b02b905e843e496316423614bdbf74d3394",
    "02_tracking_a_drifting_target.py":
        "7544708cb3142f24860632b9dc983076a0ce524ddbdf6e373faa4362825af788",
    "03_drifting_soft_mdps.py": "e70489b0b504943130bf4813d37f6847dd2670b62bf08502e083ff442a55b2d5",
    "04_planner_adaptation.py": "33bf852390d0dce218d77da151acd785ab279ebe72afbc5b94c56555c3ea3a60",
    "05_td_temperature_scheduling.py":
        "5df346618ced24f76c17337c6d4ffd1f0b9572bbc602c7e978b244861d740a52",
    "06_check_suite.py": "9f984116cb92352bf586d2bde4e9416a9c8e74a4f9c4753a7c5967d500408ae5",
}


def test_every_demo_is_pinned():
    assert sorted(STDOUT_SHA256) == sorted(p.name for p in DEMOS.glob("[0-9][0-9]_*.py"))


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_runs(name):
    src = str(Path(driftsched.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, str(DEMOS / name)], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name], proc.stdout.decode()


def test_readme_quick_start(capsys):
    # the README's library example runs against the exported API
    readme = (DEMOS.parent / "README.md").read_text()
    section = readme.split("## Library quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.startswith("temperature at the change:")
    assert "dynamic regret:" in out
