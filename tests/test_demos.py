"""Smoke test: every script under demos/ runs to completion, with warnings as errors."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tupletfrob

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = str(Path(tupletfrob.__file__).resolve().parents[1])


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script):
    done = subprocess.run([sys.executable, "-W", "error", str(DEMOS / script)],
                          capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout
