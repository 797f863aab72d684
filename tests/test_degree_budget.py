"""Every answer builds only the chain degrees it reads.

HC_n for n <= d reads the mixed complex through chain degree d + 1, so
`hc` at degree d has no use for a space above total degree d + 1, on the
crossed product's cyclic module or on the cylinder.  The collapse
comparison reads the invariant complex through q = d + 1, and the second
page reads row homology at (p, q), whose row boundary comes from
(p + 1, q), through p = max_p and q = max_q + 1.  The spaces each path
requests are recorded on the two classes that own chain spaces.
"""

from pathlib import Path

import pytest

from hclab.cli import parse_scenario, run_command
from hclab.cycliccore import AlgebraCyclicModule
from hclab.cylinder import HopfCrossedCylinder

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def requested(monkeypatch):
    """The (p, q) bidegrees and the cyclic-module degrees requested."""
    seen = {"cylinder": set(), "cyclic": set()}
    cyl_space = HopfCrossedCylinder.space
    cyclic_space = AlgebraCyclicModule.space

    def cylinder(self, p, q):
        seen["cylinder"].add((p, q))
        return cyl_space(self, p, q)

    def cyclic(self, n):
        seen["cyclic"].add(n)
        return cyclic_space(self, n)

    monkeypatch.setattr(HopfCrossedCylinder, "space", cylinder)
    monkeypatch.setattr(AlgebraCyclicModule, "space", cyclic)
    return seen


def run_s5(command, **compute):
    scenario = parse_scenario((SCENARIOS / "s5.scn").read_text())
    for key, value in compute.items():
        setattr(scenario, key, value)
    report = run_command(command, scenario)
    assert report.passed
    return report


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_hc_builds_through_total_degree_d_plus_1(requested, d):
    run_s5("hc", max_degree=d)
    assert max(p + q for p, q in requested["cylinder"]) == d + 1
    assert max(requested["cyclic"]) == d + 1


@pytest.mark.parametrize("d", [1, 2, 3])
def test_collapse_builds_through_q_d_plus_1(requested, d):
    run_s5("collapse", max_degree=d)
    assert max(q for _, q in requested["cylinder"]) == d + 1
    assert max(requested["cyclic"]) == d + 1


@pytest.mark.parametrize("max_p,max_q", [(1, 1), (2, 2), (1, 3)])
def test_e2_builds_through_max_p_plus_1_and_max_q_plus_1(requested, max_p,
                                                          max_q):
    run_s5("e2", max_p=max_p, max_q=max_q)
    assert max(p for p, _ in requested["cylinder"]) == max_p + 1
    assert max(q for _, q in requested["cylinder"]) == max_q + 1


PROVIDERS = ("vface", "vdeg", "vrot", "hface", "hdeg", "hrot")


@pytest.fixture
def provider_calls(monkeypatch):
    """Calls of each cylinder provider, by (name, row q): one per column
    computed."""
    calls = {}
    for name in PROVIDERS:
        def counted(self, p, q, *rest, _name=name,
                    _op=getattr(HopfCrossedCylinder, name)):
            calls[(_name, q)] = calls.get((_name, q), 0) + 1
            return _op(self, p, q, *rest)
        monkeypatch.setattr(HopfCrossedCylinder, name, counted)
    return calls


def test_no_operator_is_built_into_a_zero_quotient(provider_calls):
    """s4's algebra is the ground field, so every bidegree (p, q >= 1)
    normalizes to zero.  The map into a zero quotient is the zero map,
    and no raw operator is built for it: no horizontal face is read at a
    row q >= 1.  The vertical boundary from (p, 1) into (p, 0), whose
    target is not zero, still runs its descent check."""
    scenario = parse_scenario((SCENARIOS / "s4.scn").read_text())
    scenario.max_degree = 7
    report = run_command("hc", scenario)
    assert report.passed
    assert dict(report.tables) == {
        "cyclic homology of the crossed product": [2, 1, 3, 2, 4, 3, 5, 4],
        "cyclic homology of the total complex": [2, 1, 3, 2, 4, 3, 5, 4]}
    assert sum(n for (name, q), n in provider_calls.items()
               if name == "hface" and q >= 1) == 0
    assert provider_calls[("vface", 1)] > 0


def test_nonzero_quotients_read_every_provider_as_before(provider_calls):
    """On s5 no quotient is zero, and hc reads the providers exactly as
    often as it did before maps into zero quotients were skipped: once
    per column of every raw operator it builds, and a wrap-around face
    once more for face_0 and once for the rotation it reads through."""
    run_s5("hc")
    totals = {name: sum(n for (op, _), n in provider_calls.items()
                        if op == name) for name in PROVIDERS}
    assert totals == {"vface": 22, "vdeg": 15, "vrot": 19,
                      "hface": 22, "hdeg": 13, "hrot": 12}
