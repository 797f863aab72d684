"""End to end over primes above 3.

F_2 and F_3 have no nonzero scalar other than ±1, so these are the
prime-field runs whose arithmetic multiplies by other units.  When char k is
not 2, s2's crossed product (the twisted group algebra of C2 x C2) is
M_2(k), and HC is Morita invariant, so both HC paths must give 1 0 1.
"""

from pathlib import Path

import pytest

from hclab.cli import emit_report, parse_scenario, run_command

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def over(name, p):
    text = (SCENARIOS / f"{name}.scn").read_text()
    assert "field = Q\n" in text
    scenario = parse_scenario(text.replace("field = Q\n", f"field = Fp {p}\n"))
    assert scenario.field_characteristic == p
    return scenario


def machine_lines(command, scenario):
    report = run_command(command, scenario)
    return emit_report(report, machine=True).splitlines()


@pytest.mark.parametrize("p", [5, 7])
def test_s2_hc_is_that_of_a_matrix_algebra(p):
    lines = machine_lines("hc", over("s2", p))
    assert "dims\tcyclic homology of the crossed product\t1 0 1" in lines
    assert "dims\tcyclic homology of the total complex\t1 0 1" in lines
    assert lines[-1] == "overall PASS"


@pytest.mark.parametrize("name", ["s3", "s5"])
def test_report_passes_over_f5(name):
    assert machine_lines("report", over(name, 5))[-1] == "overall PASS"
