"""Smoke test: each demo script runs to completion in a fresh interpreter.

Demo 02 is left out: it takes about a minute, and the path it narrates,
`estimate_time_constant`, is already tested in test_geodesics.py and
test_experiments.py.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    "01_geodesics_and_patterns.py",
    "03_pattern_families.py",
    "04_renormalization_boxes.py",
    "05_modification_argument.py",
    "06_monte_carlo_experiments.py",
]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
