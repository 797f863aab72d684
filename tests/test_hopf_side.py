"""The Hopf side of the first page: bar faces and one homology per module.

`HopfComplex.face` returns each face's column by stride arithmetic: face_0
is one counit block per first leg, an interior face merges two adjacent
legs through the Hopf multiplication table (`cycliccore.merge_column`),
and the last face merges the last leg with the module slot through the
action (`merge_column` with two slot sizes).  The reference below takes
one basis index at a time, decodes it into its legs and module index,
applies the face's formula and encodes every term back, which is how the
faces were first written.  Every column must equal its reference, in
normal form, for every face out of degrees 1 to 4 of the bar complexes
of the row coefficients M_0, M_1 and M_2 on s1-s5 over Q and F_3 (s4 over
F_2), and of the trivial and the regular module of the group algebra
of C2 in a basis whose counit has a zero.

`spectral.compute_E1` ranks one bar complex per distinct coefficient
module.  On s1, s2 and s4 the algebra is the ground field, so every row
carries the same module and one Hopf homology serves all three rows; on
s3 and s5 the rows' modules differ in dimension.  The entries must be
those of one Hopf homology per row (the `report` goldens hold the first
page's line).
"""

import pytest

from hclab import spectral
from hclab.algebra import FinDimAlgebra
from hclab.cycliccore import TensorSpace, normal_image
from hclab.cylinder.coefficients import HopfComplex, hopf_homology
from hclab.exactlinalg import Field, add_term
from hclab.hopf import HopfAlgebra, validate_hopf
from test_provider_oracle import built

CASES = [(name, field) for name in ("s1", "s2", "s3", "s5")
         for field in ("Q", "Fp 3")] + [("s4", "Fp 2")]
TOP_P, TOP_Q = 4, 2


class BarReference:
    """The bar complex's faces on decoded (h_1..h_p, m) tuples."""

    def __init__(self, hopf, act, carrier_dim):
        self.hopf, self.act = hopf, act
        self.carrier_dim = carrier_dim
        self.field = hopf.field

    def space(self, p):
        return TensorSpace([self.hopf.dim] * p + [self.carrier_dim])

    def face(self, p, i):
        src, dst = self.space(p), self.space(p - 1)
        one, mod = self.field.one, self.field.characteristic
        column = []
        for k in range(src.size):
            tup = src.decode(k)
            hs, m = tup[:p], tup[p]
            out = {}
            if i == 0:
                add_term(out, dst.encode(hs[1:] + (m,)),
                         self.hopf.counit[hs[0]], mod)
            elif i < p:
                prod = self.hopf.algebra.multiply_basis(hs[i - 1], hs[i])
                for t, c in prod.items():
                    add_term(out, dst.encode(
                        hs[:i - 1] + (t,) + hs[i + 1:] + (m,)), c, mod)
            else:
                img = self.act(hs[p - 1], m)
                for mm, c in img.items():
                    add_term(out, dst.encode(hs[:p - 1] + (mm,)), c, mod)
            column.append(normal_image(out, one))
        return column


@pytest.mark.parametrize("name,field", CASES)
def test_bar_faces_match_the_tuple_decoding_reference(name, field):
    cyl = built(name, field).cylinder
    checked = 0
    for q in range(TOP_Q + 1):
        mod = cyl.row_coefficients(q)
        cx = HopfComplex(cyl.hopf, mod.act, mod.dim)
        ref = BarReference(cyl.hopf, mod.act, mod.dim)
        for p in range(1, TOP_P + 1):
            assert cx.dim(p) == ref.space(p).size
            for i in range(p + 1):
                assert cx.face(p, i) == ref.face(p, i), (q, p, i)
                checked += 1
    assert checked == (TOP_Q + 1) * sum(p + 1 for p in range(1, TOP_P + 1))


def test_bar_faces_on_a_module_that_is_not_trivial():
    """s5's M_1 has dimension 8 and images that are sums; some face must
    hold an image that is neither an index nor zero."""
    cyl = built("s5").cylinder
    mod = cyl.row_coefficients(1)
    cx = HopfComplex(cyl.hopf, mod.act, mod.dim)
    assert mod.dim == 8
    assert any(type(image) is dict and image
               for i in range(3) for image in cx.face(2, i))


def c2_in_the_basis_e_and_g_minus_e(field):
    """Q[C2] (or F_p[C2]) in the basis u = e, v = g - e: v^2 = -2v,
    coproduct v -> v(x)v + v(x)u + u(x)v, counit (1, 0), antipode v -> v.
    A counit with a zero, which no group basis has."""
    one, square = field.one, field.of(-2)
    mul = [[{0: one}, {1: one}], [{1: one}, {1: square} if square else {}]]
    algebra = FinDimAlgebra(field, ["u", "v"], mul, {0: one})
    coproduct = [{(0, 0): one}, {(1, 1): one, (1, 0): one, (0, 1): one}]
    return HopfAlgebra(algebra, coproduct, [one, field.zero],
                       [{0: one}, {1: one}])


@pytest.mark.parametrize("p,homology", [(0, [1, 0, 0, 0]),
                                        (2, [1, 1, 1, 1]),
                                        (3, [1, 0, 0, 0])])
def test_bar_faces_with_a_counit_that_vanishes(p, homology):
    field = Field(p)
    hopf = c2_in_the_basis_e_and_g_minus_e(field)
    assert validate_hopf(hopf) is None

    def trivial(h, m):
        return {m: hopf.counit[h]} if hopf.counit[h] else {}
    for act, dim in ((trivial, 1), (hopf.algebra.multiply_basis, 2)):
        cx, ref = HopfComplex(hopf, act, dim), BarReference(hopf, act, dim)
        for n in range(1, TOP_P + 1):
            for i in range(n + 1):
                assert cx.face(n, i) == ref.face(n, i), (dim, n, i)
    assert hopf_homology(hopf, trivial, 1, 3).dims == homology


# hopf_homology calls per E1 at max_q = 2: one per distinct row module
HOPF_CALLS = {"s1": 1, "s2": 1, "s3": 3, "s4": 1, "s5": 3}


@pytest.mark.parametrize("name", sorted(HOPF_CALLS))
def test_first_page_ranks_one_bar_complex_per_distinct_module(
        name, monkeypatch):
    calls = []

    def counted(hopf, act, carrier_dim, max_p):
        calls.append(carrier_dim)
        return hopf_homology(hopf, act, carrier_dim, max_p)
    monkeypatch.setattr(spectral, "hopf_homology", counted)
    cyl = built(name).cylinder
    e1, _ = spectral.compute_E1(cyl, 2, 2)
    assert len(calls) == HOPF_CALLS[name]
    monkeypatch.undo()
    for q in range(3):
        mod = cyl.row_coefficients(q)
        per_row = hopf_homology(cyl.hopf, mod.act, mod.dim, 2)
        assert [e1.entry(p, q) for p in range(3)] == per_row.dims, q


def test_rows_sharing_a_module_are_each_compared(monkeypatch):
    """s1's three rows share one Hopf homology, and each row's homology
    is still compared with it: a row homology off by one in row 2 only
    fails there."""
    homology_dim = spectral.RowComplexes.homology_dim

    def off_in_row_2(rows, p, q):
        return homology_dim(rows, p, q) + (q == 2)
    monkeypatch.setattr(spectral.RowComplexes, "homology_dim", off_in_row_2)
    with pytest.raises(spectral.SpectralError,
                       match=r"first-page mismatch at \(0,2\)"):
        spectral.compute_E1(built("s1").cylinder, 2, 2)


class RegularModule:
    """H acting on itself by left multiplication."""

    def __init__(self, hopf):
        self.hopf, self.dim = hopf, hopf.dim

    def act(self, h, m):
        return self.hopf.algebra.multiply_basis(h, m)


def test_a_module_of_equal_dimension_and_other_action_is_not_shared(
        monkeypatch):
    """s1's rows carry the trivial two-dimensional module.  Replacing row
    1's by the regular module of Q[C2], also two-dimensional, must give
    row 1 a Hopf homology of its own, whose coinvariants are one-
    dimensional, so the first page fails there."""
    cyl = built("s1").cylinder
    row_coefficients = cyl.row_coefficients
    regular = RegularModule(cyl.hopf)
    assert row_coefficients(0).dim == regular.dim == 2
    monkeypatch.setattr(cyl, "row_coefficients",
                        lambda q: regular if q == 1 else row_coefficients(q))
    with pytest.raises(spectral.SpectralError, match=(
            r"first-page mismatch at \(0,1\): row homology 2, "
            r"Hopf homology 1")):
        spectral.compute_E1(cyl, 2, 2)
