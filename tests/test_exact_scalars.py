"""No float can appear: scalars stay exact through the whole pipeline.

Over Q a scalar is an `int` when it is integral and a `Fraction` when it
is not; over F_p it is an `int` in [0, p).  A true division of two ints
would silently produce a float, and a sum left unreduced mod p would
silently leave F_p, so these tests walk every operator the spectral
pipeline materializes, raw and induced, and check the type of every
entry, over F_p its range (and that no zero entry is stored), and run a
scenario whose cocycle takes non-integral values through every layer,
and one over F_5 whose sums pass p before they are reduced.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from hclab.algebra import FiniteGroup
from hclab.cli import emit_report, parse_scenario, run_command
from hclab.cycliccore import MixedComplex, ParacyclicModule
from hclab.cylinder.core import BinormalizedCylinder
from hclab.spectral import RowComplexes

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def read(name):
    return (SCENARIOS / name).read_text()


# every raw operator matrix is built by one of these
RAW_MATRICES = ("boundary_matrix", "face_matrix", "degeneracy_matrix",
                "rotate_matrix", "sn_matrix")


@pytest.fixture
def built_instances(monkeypatch):
    """Every BinormalizedCylinder, RowComplexes and MixedComplex built
    while the fixture is active, by class, and under "raw" every matrix
    a ParacyclicModule method in RAW_MATRICES returned, with its label."""
    made = {BinormalizedCylinder: [], RowComplexes: [], MixedComplex: [],
            "raw": []}
    for cls in (BinormalizedCylinder, RowComplexes, MixedComplex):
        original = cls.__init__

        def init(self, *args, _original=original, _instances=made[cls],
                 **kwargs):
            _original(self, *args, **kwargs)
            _instances.append(self)

        monkeypatch.setattr(cls, "__init__", init)
    for name in RAW_MATRICES:
        original = getattr(ParacyclicModule, name)

        def record(self, *args, _original=original, _name=name):
            m = _original(self, *args)
            made["raw"].append((f"raw {type(self).__name__}.{_name}{args}",
                                m))
            return m

        monkeypatch.setattr(ParacyclicModule, name, record)
    return made


def operator_matrices(made):
    """(label, SparseMatrix) for every operator the instances hold."""
    yield from made["raw"]
    for bn in made[BinormalizedCylinder]:
        for key, m in bn.store.operators.items():
            yield f"induced {key}", m
    for mx in made[MixedComplex]:
        for n, m in mx.b_mats.items():
            yield f"b_{n}", m
        for n, m in mx.B_mats.items():
            yield f"B_{n}", m
    for rows in made[RowComplexes]:
        for key, m in rows.store.operators.items():
            yield f"row {key}", m


def assert_exact_entries(made, p):
    """Every stored entry is nonzero and, over Q (p = 0), an int or a
    Fraction; over F_p an int in [1, p)."""
    counts = {kind: len(found) for kind, found in made.items()}
    checked = 0
    for label, m in operator_matrices(made):
        for c in (c for col in m.columns for c in col.values()):
            if p:
                assert type(c) is int and 0 < c < p, (label, c, type(c))
            else:
                assert type(c) in (int, Fraction), (label, c, type(c))
            assert c, (label, "stores a zero entry")
            checked += 1
    assert checked, counts
    return counts


@pytest.mark.parametrize("name", ["s1", "s2", "s3", "s4", "s5"])
def test_report_operators_have_exact_entries(name, built_instances):
    scenario = parse_scenario(read(f"{name}.scn"))
    scenario.max_degree = 2
    report = run_command("report", scenario)
    assert report.passed
    counts = assert_exact_entries(built_instances,
                                  scenario.field_characteristic)
    assert all(counts.values()), counts


def test_hc_operators_have_exact_entries_over_f3(built_instances):
    text = read("s2.scn").replace("field = Q", "field = Fp 3")
    scenario = parse_scenario(text)
    assert scenario.field_characteristic == 3
    assert run_command("hc", scenario).passed
    counts = assert_exact_entries(built_instances, 3)
    assert counts[BinormalizedCylinder] and counts[MixedComplex], counts
    assert counts["raw"], counts


S2_VALUES = "values = 1 1 1 1  1 1 1 1  1 -1 1 -1  1 -1 1 -1"


def cohomologous_s2_values(f=(1, Fraction(1, 2), 3, Fraction(-2, 5))):
    """s2's cocycle twisted by the coboundary of f:
    sigma'(g, h) = sigma(g, h) f(g) f(h) / f(gh), on hclab's C2 x C2."""
    group = FiniteGroup.named("C2xC2")
    sigma = [[1, 1, 1, 1], [1, 1, 1, 1], [1, -1, 1, -1], [1, -1, 1, -1]]
    f = [Fraction(v) for v in f]
    return [sigma[x][y] * f[x] * f[y] / f[group.op(x, y)]
            for x in range(4) for y in range(4)]


def scaled_s2(base, values):
    """The scenario text `base` with s2's cocycle values replaced."""
    assert S2_VALUES in base
    return base.replace(S2_VALUES,
                        "values = " + " ".join(str(v) for v in values))


def outside_scenario(text):
    lines, inside = [], False
    for line in text.splitlines():
        if line == "scenario-begin":
            inside = True
        elif line == "scenario-end":
            inside = False
        elif not inside:
            lines.append(line)
    return lines


def test_fractional_cocycle_reports_like_s2(built_instances):
    """A cohomologous cocycle gives an isomorphic crossed product, so
    every check and every dimension must come out as for s2 itself."""
    values = cohomologous_s2_values()
    assert values[5:8] == [Fraction(1, 4), Fraction(-15, 4),
                           Fraction(-1, 15)]
    base = read("s2.scn")
    report = run_command("report", parse_scenario(scaled_s2(base, values)))
    assert_exact_entries(built_instances, 0)
    assert any(type(c) is Fraction
               for _, m in operator_matrices(built_instances)
               for col in m.columns for c in col.values())
    text = emit_report(report, machine=True)
    unscaled = emit_report(run_command("report", parse_scenario(base)),
                           machine=True)
    assert report.passed
    assert text.splitlines()[-1] == "overall PASS"
    assert outside_scenario(text) == outside_scenario(unscaled)
    assert "-15/4" in text  # the scenario block echoes the scaled values


def test_f5_cohomologous_cocycle_reports_like_s2_over_f5(built_instances):
    """Over F_5 the coboundary of f = (1, 2, 3, 4) gives cocycle values
    such as 3/2 = 4 and 8/3 = 1, so the sums of products that the cocycle
    conditions and the operators fold pass 5 before a kernel or
    `Field.of` reduces them.  The crossed product is isomorphic to s2's
    over F_5, so every check and every dimension must come out as for s2
    itself, with every stored scalar an int in [1, 5)."""
    values = cohomologous_s2_values((1, 2, 3, 4))
    assert values[5:8] == [4, Fraction(3, 2), Fraction(8, 3)]
    base = read("s2.scn").replace("field = Q", "field = Fp 5")
    report = run_command("report", parse_scenario(scaled_s2(base, values)))
    assert_exact_entries(built_instances, 5)
    text = emit_report(report, machine=True)
    unscaled = emit_report(run_command("report", parse_scenario(base)),
                           machine=True)
    assert report.passed
    assert text.splitlines()[-1] == "overall PASS"
    assert outside_scenario(text) == outside_scenario(unscaled)
    assert "3/2" in text  # the scenario block echoes the scaled values
