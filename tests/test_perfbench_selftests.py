"""The benchmark's self-tests run as part of tier-1.

perfbench's own suite checks its reach sets and its golden reports,
including both `verify-deep` goldens, so a change that breaks them fails
here and not only when the benchmark runs.  It runs in a subprocess from
the repository root, because `perfbench.harness.import_cli` drops every
hclab module from `sys.modules` and would leave this process's imports
stale.  The run writes no bytecode, and nothing under `perfbench/` may
change.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def snapshot(directory):
    """(path, size, mtime) of every file under directory."""
    return sorted((str(path), path.stat().st_size, path.stat().st_mtime_ns)
                  for path in directory.rglob("*") if path.is_file())


def test_perfbench_self_tests_pass_and_write_nothing_under_perfbench():
    before = snapshot(ROOT / "perfbench")
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s",
         "perfbench/tests", "-t", "."],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    assert "OK" in proc.stderr.splitlines()[-1]
    assert snapshot(ROOT / "perfbench") == before
