from fractions import Fraction

import pytest

from hclab.exactlinalg import (
    DimensionMismatch, Field, QQ, SparseMatrix, kernel_basis,
)
from hclab.algebra import (
    FinDimAlgebra,
    FiniteGroup,
    GroupTableError,
    dual_numbers,
    function_algebra,
    ground_algebra,
    group_algebra,
    matrix_algebra,
    validate_algebra,
)

F2 = Field(2)


def is_commutative(a):
    return all(a.mul_table[i][j] == a.mul_table[j][i]
               for i in range(a.dim) for j in range(a.dim))


def test_cyclic_group():
    c2 = FiniteGroup.cyclic(2)
    assert c2.order == 2
    assert c2.op(1, 1) == 0
    assert c2.inverse == [0, 1]


def test_named_groups():
    assert FiniteGroup.named("C2xC2").order == 4
    assert FiniteGroup.named("C3").order == 3
    s3 = FiniteGroup.named("S3")
    assert s3.order == 6
    # noncommutative
    assert any(s3.op(a, b) != s3.op(b, a)
               for a in range(6) for b in range(6))


@pytest.mark.parametrize("name", ["C\u0663", "C2xC\u0662"])
def test_a_group_order_is_ascii_digits(name):
    with pytest.raises(GroupTableError, match="unknown group name"):
        FiniteGroup.named(name)


def test_bad_group_table():
    with pytest.raises(GroupTableError):
        FiniteGroup(["a", "b"], [[0, 0], [0, 0]])


def test_group_algebra_c2():
    a = group_algebra(QQ, FiniteGroup.cyclic(2))
    assert a.dim == 2
    g = a.element(1)
    assert a.multiply(g, g) == a.element(0)
    assert validate_algebra(a) is None


def test_group_algebra_c2xc2_commutative():
    a = group_algebra(QQ, FiniteGroup.named("C2xC2"))
    assert a.dim == 4
    assert is_commutative(a)
    assert validate_algebra(a) is None


def test_group_algebra_s3():
    a = group_algebra(QQ, FiniteGroup.symmetric3())
    assert a.dim == 6
    assert not is_commutative(a)
    assert validate_algebra(a) is None


def test_unit_law_violation_detected():
    two = QQ.of(2)
    bad = FinDimAlgebra(QQ, ["u"], [[{0: two}]], {0: QQ.one})
    v = validate_algebra(bad)
    assert v is not None and "unit" in v.axiom


@pytest.mark.parametrize("field", [QQ, Field(3)], ids=repr)
def test_associativity_violation_names_the_first_triple(field):
    """Basis 1, x, y with x x = x y = 0, y x = 2x and y y = x.  The unit
    laws hold and every triple before (2,2,1) associates, but
    (y y) x = x x = 0 while y (y x) = 4x, which is x over F_3."""
    one, two = field.one, field.of(2)
    table = [[{0: one}, {1: one}, {2: one}],
             [{1: one}, {}, {}],
             [{2: one}, {1: two}, {1: one}]]
    bad = FinDimAlgebra(field, ["1", "x", "y"], table, {0: one})
    v = validate_algebra(bad)
    assert (v.axiom, v.location) == ("associativity", (2, 2, 1))
    assert str(v) == "associativity fails at (2,2,1)"


def test_structure_constant_out_of_range_is_refused():
    one = QQ.one
    table = [[{0: one}, {1: one}], [{1: one}, {-1: one}]]
    with pytest.raises(DimensionMismatch):
        FinDimAlgebra(QQ, ["1", "x"], table, {0: one}).validate()


def test_matrix_algebra():
    m1 = matrix_algebra(QQ, 1)
    assert m1.dim == 1 and validate_algebra(m1) is None
    m2 = matrix_algebra(QQ, 2)
    assert m2.dim == 4 and validate_algebra(m2) is None
    e12, e21, e11 = m2.element("e01"), m2.element("e10"), m2.element("e00")
    assert m2.multiply(e12, e21) == e11
    m2f2 = matrix_algebra(F2, 2)
    assert validate_algebra(m2f2) is None
    assert m2f2.multiply(m2f2.element("e01"), m2f2.element("e10")) == \
        m2f2.element("e00")


def test_matrix_algebra_center_is_scalars():
    # solve the centralizer system: [x, e_k] = 0 for all basis e_k
    a = matrix_algebra(QQ, 2)
    rows = []
    for k in range(a.dim):
        e = a.element(k)
        for target in range(a.dim):
            row = {}
            for j in range(a.dim):
                x = a.element(j)
                comm = a.multiply(x, e)
                for t, c in a.multiply(e, x).items():
                    comm[t] = comm.get(t, QQ.zero) - c
                if comm.get(target):
                    row[j] = comm[target]
            if row:
                rows.append(row)
    m = SparseMatrix.from_row_list(QQ, rows, a.dim)
    assert kernel_basis(m).dim == 1


def test_function_algebra():
    a = function_algebra(QQ, FiniteGroup.cyclic(2))
    de, dg = a.element(0), a.element(1)
    assert a.multiply(de, de) == de
    assert a.multiply(de, dg) == {}
    assert a.multiply(a.unit, dg) == dg
    assert is_commutative(a)
    assert validate_algebra(a) is None


def test_dual_numbers():
    a = dual_numbers(QQ)
    x = a.element("x")
    assert a.multiply(x, x) == {}
    assert a.multiply(a.unit, x) == x
    assert validate_algebra(a) is None


def test_ground_algebra():
    a = ground_algebra(QQ)
    assert a.dim == 1
    assert validate_algebra(a) is None


def test_multiply_is_bilinear():
    a = group_algebra(QQ, FiniteGroup.cyclic(3))
    x = {0: Fraction(2), 1: Fraction(-1)}
    y = {2: Fraction(3)}
    out = a.multiply(x, y)
    assert out == {2: Fraction(6), 0: Fraction(-3)}
