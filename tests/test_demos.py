"""Each narrative demo runs to completion without writing to stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import entangler_lab

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))
SRC = str(Path(entangler_lab.__file__).parents[1])


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
