"""Every demo runs to completion and its cross-checks hold."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import hatgame

SRC = Path(hatgame.__file__).parents[1]
DEMOS = sorted((SRC.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_clean(demo):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stdout
