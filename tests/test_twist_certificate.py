"""The twist certificate of the total mixed complex.

The degree-raising differential of the total complex reads the twist as
the induced power of the vertical rotation.  Where the twist has a
literal form 1 - (bB + Bb) that reads only built quotients -- every
bidegree (p, q) with p >= 1 and p + q <= max_degree -- the two must
agree; a mismatch names the bidegree, exits 1 from `hc` and is the FAIL
detail of the `verify` line.  Each case adds one unit at entry (0, 0)
of the twist at one bidegree of s5 (max_degree 2).  No twist above
max_degree is built, so every twist B reads is certified.
"""

from pathlib import Path

import pytest

from hclab.cli import build_objects, main, parse_scenario, run_command
from hclab.cylinder.core import BinormalizedCylinder

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def corrupt_twist(monkeypatch):
    def corrupt(at):
        original = BinormalizedCylinder.induced_vertical_twist

        def wrong(self, p, q):
            twist = original(self, p, q)
            if (p, q) != at:
                return twist
            extra = type(twist)(twist.field, twist.rows, twist.cols,
                                {(0, 0): twist.field.one})
            return twist.add(extra)
        monkeypatch.setattr(BinormalizedCylinder, "induced_vertical_twist",
                            wrong)
    return corrupt


def message(p, q):
    return (f"total complex identities fail: the twist at ({p},{q}) is not "
            "1 - (bB + Bb) of the vertical pair")


@pytest.mark.parametrize("at", [(1, 0), (2, 0), (1, 1)])
def test_hc_exits_1_naming_the_bidegree(corrupt_twist, capsys, at):
    corrupt_twist(at)
    assert main(["hc", str(SCENARIOS / "s5.scn")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"mathematical check failed: {message(*at)}\n"


@pytest.mark.parametrize("at", [(1, 0), (2, 0), (1, 1)])
def test_verify_line_fails_with_the_same_detail(corrupt_twist, at):
    corrupt_twist(at)
    scenario = parse_scenario((SCENARIOS / "s5.scn").read_text())
    checks = {name: (ok, detail)
              for name, ok, detail in run_command("verify", scenario).checks}
    assert checks["total mixed complex identities"] == (False, message(*at))


def test_no_twist_above_max_degree_is_built(monkeypatch):
    """B ends at degree max_degree - 1, because no HC_n with
    n <= max_degree reads B out of max_degree.  So the twists at total
    degree max_degree + 1, which have no literal form within the built
    quotients, are never built and no uncertified block enters B."""
    built_at = []
    original = BinormalizedCylinder.induced_vertical_twist

    def recording(self, p, q):
        built_at.append((p, q))
        return original(self, p, q)
    monkeypatch.setattr(BinormalizedCylinder, "induced_vertical_twist",
                        recording)
    scenario = parse_scenario((SCENARIOS / "s5.scn").read_text())
    top = scenario.max_degree
    mx = build_objects(scenario).total_complex
    assert top not in mx.B_mats
    assert sorted(mx.B_mats) == list(range(top))
    assert built_at and max(p + q for p, q in built_at) == top
