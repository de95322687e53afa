"""Smoke test: every demo runs to completion against the library in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# Demos 02, 03 and 06 take several seconds each; 02 and 06 sweep the piecewise
# approximant right after its transition search, reading the grid's record.
DEMOS = ["01_spline_families.py", "04_sqrt_dynamical_system.py", "05_gaussian_and_series.py"] + [
    pytest.param(demo, marks=pytest.mark.slow)
    for demo in ("02_transition_points.py", "03_subintervals_and_grids.py", "06_bounds_and_signals.py")
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
