"""Every narrative script in demos/ runs to completion and prints."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import involute

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(Path(involute.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
