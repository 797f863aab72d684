"""One run builds each shared intermediate once.

`run_command` keeps one session per call: the direct cyclic homology of
the crossed product, the total mixed complex and the first page with
its row complexes are built the first time a stage reads them, and every
later stage reads that copy.  The guard wraps each builder in every
hclab namespace that imports it and counts the calls of one command.
"""

import sys
from pathlib import Path

import pytest

import hclab.cli  # noqa: F401  (imports every hclab module)
from hclab.cli import parse_scenario, run_command

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BUILDERS = ("tot_mixed_complex", "compute_E1", "RowComplexes",
            "cyclic_homology_of_algebra")


@pytest.fixture
def calls(monkeypatch):
    """Builder name -> the number of calls since the fixture started."""
    counts = dict.fromkeys(BUILDERS, 0)
    for builder in BUILDERS:
        modules = [module for name, module in list(sys.modules.items())
                   if name.startswith("hclab.")
                   and hasattr(module, builder)]
        original = getattr(modules[0], builder)

        def counted(*args, _builder=builder, _original=original, **kwargs):
            counts[_builder] += 1
            return _original(*args, **kwargs)

        for module in modules:
            assert getattr(module, builder) is original, module.__name__
            monkeypatch.setattr(module, builder, counted)
    return counts


def scenario(name):
    return parse_scenario((SCENARIOS / f"{name}.scn").read_text())


@pytest.mark.parametrize("name", ["s1", "s2", "s3", "s4", "s5"])
def test_report_builds_each_intermediate_once(name, calls):
    assert run_command("report", scenario(name)).passed
    assert calls == dict.fromkeys(BUILDERS, 1)


def test_second_page_reads_the_first_page_it_reports_on(calls):
    assert run_command("e2", scenario("s5")).passed
    assert calls["compute_E1"] == 1
    assert calls["RowComplexes"] == 1
