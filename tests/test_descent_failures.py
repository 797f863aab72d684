"""Every operator that must descend to a normalization fails loudly, with
its own error class and message, when it does not.

A correct operator always descends, so the failure is injected: the raw
matrix entering the next descent check gets one perturbed column.  The
column is the pivot of the first basis vector of the source quotient's
denominator (degeneracy images, or boundaries on row homology), and the
added entry is the target's first representative, which lies outside
the target's denominator, so that first vector is the one reported.
The perturbation is applied where the raw matrix meets `induced_map`,
which makes the test independent of how the raw operators are built.

Every case in CASES normalizes by degeneracy images of a unit that is a
basis vector, so both denominators are coordinate subspaces, which reduce
by deleting coordinates; the failure must name the same vector
regardless.  MULTI_ENTRY_CASES normalize s3's algebra, whose unit is the
sum of two basis vectors, so the vector named has several entries, and
it is printed in increasing column order.
"""

import pytest

import hclab.cycliccore
import hclab.cylinder.core
import hclab.exactlinalg
import hclab.spectral
from hclab.algebra import (
    FiniteGroup, dual_numbers, function_algebra, ground_algebra,
    group_algebra,
)
from hclab.crossed import (
    ActionMap, lift_group_cocycle, trivial_action, trivial_cocycle,
    validate_cocycle, validate_weak_action,
)
from hclab.cycliccore import (
    AlgebraCyclicModule, MixedComplexError, NormalizationError,
    NormalizedComplex, require_descent,
)
from hclab.cylinder import build_cylinder
from hclab.cylinder.core import BinormalizedCylinder, shuffle_map
from hclab.exactlinalg import (
    QQ, NotWellDefined, SparseMatrix, Subspace, induced_map, quotient_space,
)
from hclab.hopf import group_hopf, is_cocommutative
from hclab.spectral import RowComplexes, SpectralError
from test_crossed import SIGN_COCYCLE


@pytest.fixture
def perturb_next(monkeypatch):
    """perturb_next() arms a one-shot perturbation of the next raw
    matrix that reaches induced_map, in any module that calls it, and
    returns a list that then receives that call's (src, dst, result)."""
    original = hclab.exactlinalg.induced_map
    armed = []
    perturbed = []

    def induced_map(f, src, dst):
        if not armed:
            return original(f, src, dst)
        armed.clear()
        k = src.denominator.pivots[0]
        t = dst.free_columns[0]
        f = f.add(SparseMatrix(f.field, f.rows, f.cols,
                               {(t, k): f.field.one}))
        result = original(f, src, dst)
        perturbed.append((src, dst, result))
        return result

    for module in (hclab.exactlinalg, hclab.cycliccore, hclab.cylinder.core,
                   hclab.spectral):
        if hasattr(module, "induced_map"):
            monkeypatch.setattr(module, "induced_map", induced_map)

    def arm():
        armed.append(True)
        return perturbed
    return arm


def cylinder_s1():
    h = group_hopf(QQ, FiniteGroup.cyclic(2))
    return build_cylinder(h, trivial_action(h, ground_algebra(QQ)),
                          trivial_cocycle(h))


def cylinder_s2():
    h = group_hopf(QQ, FiniteGroup.named("C2xC2"))
    coc = lift_group_cocycle(h, SIGN_COCYCLE)
    return build_cylinder(h, trivial_action(h, ground_algebra(QQ)), coc)


def cylinder_s5():
    h = group_hopf(QQ, FiniteGroup.cyclic(2))
    act = ActionMap(h, dual_numbers(QQ), [[{0: QQ.one}, {1: QQ.one}],
                                          [{0: QQ.one}, {1: QQ.of(-1)}]])
    return build_cylinder(h, act, trivial_cocycle(h))


@pytest.mark.parametrize("factory", [cylinder_s1, cylinder_s2, cylinder_s5])
def test_factory_inputs_meet_the_standing_hypotheses(factory):
    """build_cylinder takes a valid weak action and cocycle of a
    cocommutative Hopf algebra for granted; the fixtures supply them."""
    cyl = factory()
    assert validate_weak_action(cyl.action) is None
    assert validate_cocycle(cyl.cocycle, cyl.action) is None
    assert is_cocommutative(cyl.hopf)


def qc2_normalized():
    module = AlgebraCyclicModule(group_algebra(QQ, FiniteGroup.cyclic(2)))
    return NormalizedComplex(module, 3)


def row_complexes_s2():
    rows = RowComplexes(cylinder_s2())
    # everything induced_on_homology reads except its own descent
    rows.induced("vrot", 0, 0)
    rows.homology(0, 0)
    return rows


def shuffle_s1():
    cyl = cylinder_s1()
    bn = BinormalizedCylinder(cyl, 2)
    return cyl, bn, NormalizedComplex(cyl.diagonal_module(), 2)


# (build, call, error class, exact message)
CASES = {
    "normalized b": (
        qc2_normalized, lambda norm: norm.boundary_matrix(2),
        NormalizationError,
        "induced operator not well defined: boundary in degree 2; "
        "offending vector {0: 1}"),
    "normalized sN": (
        qc2_normalized, lambda norm: norm.connes_matrix(1),
        NormalizationError,
        "induced operator not well defined: Connes boundary in degree 1; "
        "offending vector {0: 1}"),
    "binormalized bv": (
        lambda: BinormalizedCylinder(cylinder_s1(), 2),
        lambda bn: bn.vertical_boundary(1, 1), MixedComplexError,
        "bv not well defined on the normalization at (1,1)"),
    "binormalized bh": (
        lambda: BinormalizedCylinder(cylinder_s1(), 2),
        lambda bn: bn.horizontal_boundary(2, 0), MixedComplexError,
        "bh not well defined on the normalization at (2,0)"),
    "binormalized Bv": (
        lambda: BinormalizedCylinder(cylinder_s5(), 2),
        lambda bn: bn.vertical_connes(1, 0), MixedComplexError,
        "Bv not well defined on the normalization at (1,0)"),
    "binormalized Bh": (
        lambda: BinormalizedCylinder(cylinder_s1(), 2),
        lambda bn: bn.horizontal_connes(1, 0), MixedComplexError,
        "Bh not well defined on the normalization at (1,0)"),
    "vertical twist": (
        lambda: BinormalizedCylinder(cylinder_s1(), 2),
        lambda bn: bn.induced_vertical_twist(1, 0), MixedComplexError,
        "vertical twist not well defined at (1,0)"),
    "row boundary": (
        lambda: RowComplexes(cylinder_s1()),
        lambda rows: rows.induced("row_boundary", 2, 0), SpectralError,
        "row_boundary does not descend to the normalized rows at (2,0)"),
    "row vface": (
        lambda: RowComplexes(cylinder_s1()),
        lambda rows: rows.induced("vface_0", 1, 1), SpectralError,
        "vface_0 does not descend to the normalized rows at (1,1)"),
    "row vdeg": (
        lambda: RowComplexes(cylinder_s1()),
        lambda rows: rows.induced("vdeg_0", 1, 0), SpectralError,
        "vdeg_0 does not descend to the normalized rows at (1,0)"),
    "row vrot": (
        lambda: RowComplexes(cylinder_s1()),
        lambda rows: rows.induced("vrot", 1, 1), SpectralError,
        "vrot does not descend to the normalized rows at (1,1)"),
    "row homology": (
        row_complexes_s2,
        lambda rows: rows.induced_on_homology("vrot", 0, 0, 0),
        SpectralError,
        "vrot is not well defined on row homology at (0,0)"),
    "shuffle map": (
        shuffle_s1, lambda built: shuffle_map(*built, 1, 0),
        MixedComplexError,
        "shuffle map does not respect normalization at (1,0)"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_non_descending_operator_is_named(case, perturb_next):
    build, call, error, message = CASES[case]
    built = build()
    call(built)  # unperturbed, it descends
    built = build()
    perturbed = perturb_next()
    with pytest.raises(error) as info:
        call(built)
    assert str(info.value) == message
    (src, dst, marker), = perturbed
    assert src.denominator.is_coordinate and dst.denominator.is_coordinate
    assert isinstance(marker, NotWellDefined)
    assert (marker.basis_vector == src.denominator.rows[0]
            == {src.denominator.pivots[0]: QQ.one})


def functions_c2_normalized():
    module = AlgebraCyclicModule(function_algebra(QQ, FiniteGroup.cyclic(2)))
    return NormalizedComplex(module, 3)


MULTI_ENTRY_CASES = {
    "s3 normalized b": (
        functions_c2_normalized, lambda norm: norm.boundary_matrix(2),
        NormalizationError,
        "induced operator not well defined: boundary in degree 2; "
        "offending vector {0: 1, 3: -1}"),
    "s3 normalized sN": (
        functions_c2_normalized, lambda norm: norm.connes_matrix(1),
        NormalizationError,
        "induced operator not well defined: Connes boundary in degree 1; "
        "offending vector {0: 1, 1: 1}"),
}


@pytest.mark.parametrize("case", sorted(MULTI_ENTRY_CASES))
def test_multi_entry_denominator_row_is_named(case, perturb_next):
    build, call, error, message = MULTI_ENTRY_CASES[case]
    call(build())  # unperturbed, it descends
    perturbed = perturb_next()
    with pytest.raises(error) as info:
        call(build())
    assert str(info.value) == message
    (src, dst, marker), = perturbed
    assert not src.denominator.is_coordinate
    assert isinstance(marker, NotWellDefined)
    assert marker.basis_vector == src.denominator.rows[0]
    assert len(marker.basis_vector) > 1


def test_offending_vector_is_printed_in_column_order():
    """The key order of an RREF row depends on the elimination order; the
    message does not."""
    marker = NotWellDefined(basis_vector={3: -1, 0: 1, 2: 5}, image={1: 1})
    with pytest.raises(NormalizationError) as info:
        require_descent(marker, NormalizationError, "vector {basis_vector}")
    assert str(info.value) == "vector {0: 1, 2: 5, 3: -1}"


def test_marker_image_is_a_copy_of_the_column():
    """Descent of a unit denominator row {k: 1} is checked on column k in
    place; the marker still reports a copy, which shares no dict with
    the matrix."""
    f = SparseMatrix(QQ, 2, 2, {(1, 0): QQ.one, (1, 1): QQ.one})
    quotient = quotient_space(2, Subspace.from_vectors(QQ, 2, [{0: QQ.one}]))
    marker = induced_map(f, quotient, quotient)
    assert isinstance(marker, NotWellDefined)
    assert marker.basis_vector == {0: QQ.one}
    assert marker.image == f.columns[0] and marker.image is not f.columns[0]
