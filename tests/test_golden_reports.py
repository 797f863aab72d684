"""`report --machine` on the shipped scenarios, byte for byte.

The committed golden reports under `perfbench/goldens/` are what the
benchmark checks every timed run against.  Comparing with them here too
means that a change of internal representation (scalars, elimination,
operator caches) cannot alter a report while the test suite stays green.
The goldens are only read.
"""

from pathlib import Path

import pytest

from hclab.cli import emit_report, parse_scenario, run_command

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("name", ["s1", "s2", "s3", "s4", "s5"])
def test_machine_report_matches_golden(name):
    scenario = parse_scenario((ROOT / "scenarios" / f"{name}.scn").read_text())
    text = emit_report(run_command("report", scenario), machine=True)
    golden = (ROOT / "perfbench" / "goldens" / f"report-{name}.txt"
              ).read_bytes()
    assert text.encode("utf-8") == golden
