"""Every narrative script in `demos/` runs to completion.

Each demo runs in its own interpreter from the repository root, with only
the checkout's `src` on the path and no bytecode written, as a reader of
the README would run it.  A demo passes when it exits 0 and writes
nothing to stderr, so a warning it starts to print fails it too.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert DEMOS, "no demos/*.py next to tests/"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo):
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert run.stdout
