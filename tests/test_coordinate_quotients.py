"""Normalization quotients against elimination.

`cycliccore.degeneracy_quotient` builds the denominator of a quotient
whose degeneracy images are all basis vectors directly, as the span of
those coordinates, and eliminates any other image set.  At every
bidegree through (3,3), the binormalized quotient (both families) and
the row quotient (the horizontal family) must have the pivots, rows and
free columns of `quotient_space(dim, Subspace.from_vectors(...))` over
the same images, and so must each degree's quotient of the cyclic
modules of A and A #_sigma H.  s1, s2, s4 and s5 have a unit that is a
basis vector, so they take the coordinate path and never reach `rref`;
s3's unit e0 + e1 is not, so its quotients still go through `rref`; yet
on s3 `hc` and `report` no non-coordinate denominator reduces a vector,
since `induced_map` projects through a projector column there.
"""

from pathlib import Path

import pytest

from hclab import exactlinalg
from hclab.cli import parse_scenario, run_command
from hclab.cycliccore import AlgebraCyclicModule, degeneracy_quotient
from hclab.exactlinalg import Subspace, quotient_space
from test_provider_oracle import built

TOP = 3
ROOT = Path(__file__).resolve().parent.parent


def eliminated(pieces):
    """The quotient of degeneracy_quotient(pieces), every image
    eliminated."""
    module, n = pieces[0]
    field, dim = module.field, module.dim(n)
    vectors = [{v: field.one} if type(v) is int else v
               for module, n in pieces for i in range(n)
               for v in module.degeneracy(n - 1, i)]
    return quotient_space(dim, Subspace.from_vectors(field, dim, vectors))


def all_pieces(b):
    """The pieces of every quotient hc, e2 and report normalize by."""
    cyl = b.cylinder
    for p in range(TOP + 1):
        for q in range(TOP + 1):
            yield [(cyl.column_module(p), q), (cyl.row_module(q), p)]
            yield [(cyl.row_module(q), p)]
    for algebra in (b.action.algebra, b.crossed_product.product):
        module = AlgebraCyclicModule(algebra)
        yield from ([(module, n)] for n in range(TOP + 1))


@pytest.fixture
def rref_calls(monkeypatch):
    """The number of rref calls while the fixture is active."""
    calls = []
    original = exactlinalg.rref

    def counted(rows, *field):
        calls.append(len(rows))
        return original(rows, *field)
    monkeypatch.setattr(exactlinalg, "rref", counted)
    return calls


@pytest.mark.parametrize("name", ["s1", "s2", "s4", "s5"])
def test_coordinate_quotients_are_what_elimination_gives(name, rref_calls):
    b = built(name)
    for pieces in all_pieces(b):
        got = degeneracy_quotient(pieces)
        assert rref_calls == [], pieces
        want = eliminated(pieces)
        rref_calls.clear()
        assert got.denominator.is_coordinate
        assert got.denominator.pivots == want.denominator.pivots
        assert got.denominator.rows == want.denominator.rows
        assert got.free_columns == want.free_columns
        assert got.ambient_dim == want.ambient_dim


def test_a_unit_that_is_no_basis_vector_still_reaches_rref(rref_calls):
    b = built("s3")
    eliminated_somewhere = False
    for pieces in all_pieces(b):
        rref_calls.clear()
        got = degeneracy_quotient(pieces)
        eliminated_somewhere = eliminated_somewhere or bool(rref_calls)
        want = eliminated(pieces)
        assert got.denominator.pivots == want.denominator.pivots
        assert got.denominator.rows == want.denominator.rows
        assert got.free_columns == want.free_columns
    assert eliminated_somewhere


@pytest.mark.parametrize("command, degree", [("hc", 3), ("report", 2)])
def test_no_reduction_by_a_denominator_that_is_not_coordinate(
        command, degree, monkeypatch):
    """s3's quotients are not coordinate, and `induced_map` pushes maps
    between them through a projector column: `Subspace.reduce` is still
    called on s3 `hc` at degree 3 and on s3 `report`, but only on
    coordinate denominators."""
    calls = {True: 0, False: 0}
    original = exactlinalg.Subspace.reduce

    def counted(self, vec):
        calls[self.is_coordinate] += 1
        return original(self, vec)
    monkeypatch.setattr(exactlinalg.Subspace, "reduce", counted)
    text = (ROOT / "scenarios" / "s3.scn").read_text()
    assert "max_degree = 2" in text
    run_command(command, parse_scenario(
        text.replace("max_degree = 2", f"max_degree = {degree}")))
    assert calls[False] == 0 and calls[True] > 0, calls
