"""Every demo script runs to the end from a checkout."""

import os
import subprocess
import sys

import pytest

import girsanov

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")


@pytest.mark.parametrize("demo", [
    "finite_chain_forms.py",
    "jump_tilt_walkthrough.py",
    "monte_carlo_verification.py",
    "stable_jump_diffusion.py",
    "state_tilt_walkthrough.py",
])
def test_demo_exits_zero(tmp_path, demo):
    # PYTHONPATH=src: the girsanov these tests import, not an installed one
    src = os.path.dirname(os.path.dirname(os.path.abspath(girsanov.__file__)))
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, demo)], cwd=tmp_path, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
