"""Every demo script runs to completion against the package in ``src/``."""

import glob
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir)
DEMOS = sorted(glob.glob(os.path.join(REPO_ROOT, "demos", "*.py")))


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(REPO_ROOT, "src"), env.get("PYTHONPATH"))
        if p)
    run = subprocess.run([sys.executable, script], capture_output=True,
                         text=True, env=env, cwd=REPO_ROOT, timeout=300)
    assert run.returncode == 0, run.stderr
