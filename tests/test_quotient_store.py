"""The one store behind the three normalizations.

`NormalizedComplex`, `BinormalizedCylinder` and `RowComplexes` keep their
quotients and induced operators in a `cycliccore.QuotientStore`.  An
operator into a zero-dimensional quotient is the zero map and its raw
matrix is never built; any other is built once and must descend.
"""

import pytest

from hclab.algebra import FiniteGroup, dual_numbers, ground_algebra
from hclab.crossed import trivial_action, trivial_cocycle
from hclab.cycliccore import (
    AlgebraCyclicModule, NormalizationError, NormalizedComplex,
    ParacyclicModule, QuotientStore, mixed_complex_of_cyclic,
)
from hclab.cylinder import build_cylinder
from hclab.cylinder.core import BinormalizedCylinder
from hclab.exactlinalg import (
    QQ, SparseMatrix, Subspace, quotient_space,
)
from hclab.hopf import group_hopf
from hclab.spectral import RowComplexes, compute_E1, induced_column_cyclic

def full_quotient(field, ambient_dim):
    """ambient / 0."""
    return quotient_space(ambient_dim,
                          Subspace.from_vectors(field, ambient_dim, []))


# every raw operator matrix is built by one of these
RAW_MATRICES = ("boundary_matrix", "face_matrix", "degeneracy_matrix",
                "rotate_matrix", "sn_matrix")


@pytest.fixture
def raw_calls(monkeypatch):
    """The (method, args) of every raw matrix a ParacyclicModule builds
    while the fixture is active."""
    calls = []
    for name in RAW_MATRICES:
        original = getattr(ParacyclicModule, name)

        def record(self, *args, _original=original, _name=name):
            calls.append((_name, args))
            return _original(self, *args)

        monkeypatch.setattr(ParacyclicModule, name, record)
    return calls


def cylinder(order, algebra):
    """The cylinder of C_order acting trivially on algebra."""
    h = group_hopf(QQ, FiniteGroup.cyclic(order))
    return build_cylinder(h, trivial_action(h, algebra), trivial_cocycle(h))


def ground_normalized():
    """The ground field's normalized complex: dimensions 1, 0, 0, ..."""
    return NormalizedComplex(AlgebraCyclicModule(ground_algebra(QQ)), 3)


def test_store_builds_each_quotient_and_operator_once():
    built, raws = [], []
    store = QuotientStore(lambda n: built.append(n) or full_quotient(QQ, 2),
                          NormalizationError)
    assert store.quotient(0) is store.quotient(0)
    identity = SparseMatrix.identity(QQ, 2)

    def raw():
        raws.append(True)
        return identity
    first = store.induced("id", 0, 1, raw, "never raised")
    assert store.induced("id", 0, 1, raw, "never raised") is first
    assert first == identity
    assert built == [0, 1] and len(raws) == 1
    assert store.operators == {"id": first}


def test_store_skips_the_raw_matrix_into_a_zero_quotient():
    store = QuotientStore(lambda n: full_quotient(QQ, 3 * (1 - n)),
                          NormalizationError)

    def raw():
        raise AssertionError("the raw matrix was built")
    op = store.induced("down", 0, 1, raw, "never raised")
    assert (op.rows, op.cols) == (0, 3) and op.is_zero()


def test_store_raises_its_error_class_with_the_message():
    """The identity does not descend from Q^2 / <e0> to Q^2 / 0."""
    quotients = {"src": quotient_space(2, Subspace.from_vectors(
        QQ, 2, [{0: QQ.one}])), "dst": full_quotient(QQ, 2)}
    store = QuotientStore(quotients.get, NormalizationError)
    with pytest.raises(NormalizationError, match=r"^bad at \{0: 1\}$"):
        store.induced("id", "src", "dst",
                      lambda: SparseMatrix.identity(QQ, 2),
                      "bad at {basis_vector}")
    assert store.operators == {}


def test_normalized_complex_into_a_zero_quotient(raw_calls):
    norm = ground_normalized()
    assert norm.dims == [1, 0, 0, 0]
    connes = norm.connes_matrix(0)
    assert (connes.rows, connes.cols) == (0, 1) and connes.is_zero()
    boundary = norm.boundary_matrix(2)
    assert (boundary.rows, boundary.cols) == (0, 0)
    assert raw_calls == []


def test_binormalized_cylinder_into_a_zero_quotient(raw_calls):
    """With the trivial group every bidegree with p >= 1 is zero."""
    bn = BinormalizedCylinder(cylinder(1, dual_numbers(QQ)), 2)
    assert [bn.dim(p, 0) for p in range(3)] == [2, 0, 0]
    connes = bn.horizontal_connes(0, 0)
    assert (connes.rows, connes.cols) == (0, 2) and connes.is_zero()
    assert raw_calls == []
    bn.vertical_connes(0, 0)
    assert raw_calls != []


def test_row_complexes_into_a_zero_quotient(raw_calls):
    """With the trivial group every row quotient with p >= 1 is zero."""
    rows = RowComplexes(cylinder(1, dual_numbers(QQ)))
    for q in range(3):
        assert rows.quotient(0, q).dim == 2 ** (q + 1)
        assert [rows.quotient(p, q).dim for p in (1, 2)] == [0, 0]
    names = ["row_boundary", "vrot", "vdeg_0", "vdeg_1", "vface_0", "vface_1"]
    for name in names:
        op = rows.induced(name, 2 if name == "row_boundary" else 1, 1)
        assert (op.rows, op.cols) == (0, 0), name
    assert raw_calls == []


def test_s1_second_page_columns_above_zero_build_no_raw_matrix(raw_calls):
    """On s1 the first page vanishes in every column p >= 1, so the
    normalized mixed complex of each such column module reads no raw
    matrix of it."""
    cyl = cylinder(2, ground_algebra(QQ))
    e1, rows = compute_E1(cyl, 2, 2)
    for p in (1, 2):
        assert [e1.entry(p, q) for q in range(3)] == [0, 0, 0]
        column = induced_column_cyclic(rows, p, 3)
        raw_calls.clear()
        mx = mixed_complex_of_cyclic(column, 2)
        assert mx.dims == [0, 0, 0, 0]
        assert raw_calls == []


def test_each_induced_operator_builds_its_raw_matrix_once(raw_calls):
    cyl = cylinder(2, dual_numbers(QQ))
    bn = BinormalizedCylinder(cyl, 2)
    rows = RowComplexes(cyl)
    norm = NormalizedComplex(AlgebraCyclicModule(dual_numbers(QQ)), 3)
    for ask, raw in [
            (lambda: bn.vertical_boundary(1, 1), "boundary_matrix"),
            (lambda: bn.horizontal_connes(0, 1), "sn_matrix"),
            (lambda: bn.induced_vertical_twist(1, 1), "rotate_matrix"),
            (lambda: rows.induced("vrot", 1, 1), "rotate_matrix"),
            (lambda: rows.induced("vface_1", 1, 1), "face_matrix"),
            (lambda: norm.boundary_matrix(2), "boundary_matrix"),
            (lambda: norm.connes_matrix(1), "sn_matrix")]:
        raw_calls.clear()
        first = ask()
        assert first.rows > 0
        assert [name for name, _ in raw_calls].count(raw) == 1
        raw_calls.clear()
        assert ask() is first
        assert raw_calls == []
