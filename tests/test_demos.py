"""Each demo script must run clean and print its headline result."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"

CASES = [
    ("hull_basics.py", "brute-force oracle agrees exactly: True"),
    ("associated_weights.py", "log 7 = 1.945910149055"),
    ("nonstandard_regimes.py", "within 0.1: True"),
    ("phi_regularization.py", "value 3 (right-continuous)"),
]


@pytest.mark.parametrize("script,marker", CASES)
def test_demo_runs(script, marker):
    # the demo runs in a fresh interpreter, which inherits no sys.path from pytest
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, str(DEMOS / script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert marker in proc.stdout
