from fractions import Fraction

import pytest

from hclab.exactlinalg import Field, QQ, add_term
from hclab.algebra import FiniteGroup
from hclab.hopf import (
    HopfAlgebra,
    UnsupportedSemisimplicityQuery,
    _sorted_terms,
    find_normalized_integral,
    group_hopf,
    is_cocommutative,
    is_semisimple,
    validate_hopf,
)

F2 = Field(2)


def counit_collapse(hopf, terms, leg):
    """Apply the counit to one leg of a Sweedler term list (one fewer
    leg)."""
    merged = {}
    for coeff, tup in terms:
        add_term(merged, tup[:leg] + tup[leg + 1:],
                 coeff * hopf.counit[tup[leg]])
    return _sorted_terms(merged)


def test_group_hopf_c2_valid():
    h = group_hopf(QQ, FiniteGroup.cyclic(2))
    assert validate_hopf(h) is None
    assert h.antipode[1] == {1: QQ.one}


def test_group_hopf_c3_antipode_inverse():
    h = group_hopf(QQ, FiniteGroup.cyclic(3))
    assert validate_hopf(h) is None
    assert h.antipode[1] == {2: QQ.one}


def test_group_hopf_s3():
    h = group_hopf(QQ, FiniteGroup.symmetric3())
    assert validate_hopf(h) is None
    # a transposition is its own inverse
    assert h.antipode[3] == {3: QQ.one}
    assert is_cocommutative(h)


def test_broken_antipode_detected():
    g = FiniteGroup.cyclic(2)
    h = group_hopf(QQ, g)
    bad = HopfAlgebra(h.algebra, h.coproduct, h.counit,
                      [{0: QQ.one}, {0: QQ.one}], group=g)
    v = validate_hopf(bad)
    assert v is not None and "antipode" in v.axiom


def test_group_hopf_f2():
    h = group_hopf(F2, FiniteGroup.cyclic(2))
    assert validate_hopf(h) is None


def test_iterated_coproduct_group_like():
    h = group_hopf(QQ, FiniteGroup.cyclic(2))
    assert h.sweedler(1, 3) == [(QQ.one, (1, 1, 1))]


def test_iterated_coproduct_n1_is_coproduct():
    h = group_hopf(QQ, FiniteGroup.cyclic(3))
    assert h.sweedler(2, 2) == [(QQ.one, (2, 2))]


def test_counit_collapse_property():
    h = group_hopf(QQ, FiniteGroup.named("C2xC2"))
    for i in range(h.dim):
        for legs in (3, 4):
            terms, smaller = h.sweedler(i, legs), h.sweedler(i, legs - 1)
            for leg in range(legs):
                assert counit_collapse(h, terms, leg) == smaller


def test_antipode_involution_cocommutative():
    for name in ("C2", "C3", "S3"):
        h = group_hopf(QQ, FiniteGroup.named(name))
        for i in range(h.dim):
            assert h.antipode_of(h.antipode[i]) == {i: QQ.one}


def test_cocommutativity_of_group_hopf():
    for name in ("C2", "C4", "C2xC2", "S3"):
        assert is_cocommutative(group_hopf(QQ, FiniteGroup.named(name)))


def test_non_cocommutative_table_detected():
    # a coproduct table failing flip-invariance on a 2-dim coalgebra:
    # keep the group algebra of C2 but redirect the coproduct of g
    # through a non-symmetric tensor (not a valid Hopf structure, the
    # flip check must still answer)
    g = FiniteGroup.cyclic(2)
    h = group_hopf(QQ, g)
    twisted = HopfAlgebra(
        h.algebra,
        [h.coproduct[0], {(0, 1): QQ.one}],
        h.counit, h.antipode, group=g)
    assert not is_cocommutative(twisted)


def test_semisimple_char0():
    assert is_semisimple(group_hopf(QQ, FiniteGroup.cyclic(2)))
    assert is_semisimple(group_hopf(QQ, FiniteGroup.cyclic(1)))


def test_not_semisimple_f2c2():
    assert not is_semisimple(group_hopf(F2, FiniteGroup.cyclic(2)))


def test_semisimple_f3c2_maschke():
    assert is_semisimple(group_hopf(Field(3), FiniteGroup.cyclic(2)))


def test_semisimple_unsupported():
    # k[C1]'s tables over F_2 without its group: no Maschke answer
    k = group_hopf(F2, FiniteGroup.cyclic(1))
    h = HopfAlgebra(k.algebra, k.coproduct, k.counit, k.antipode)
    with pytest.raises(UnsupportedSemisimplicityQuery):
        is_semisimple(h)


def test_normalized_integral_group_average():
    h = group_hopf(QQ, FiniteGroup.cyclic(2))
    lam = find_normalized_integral(h)
    assert lam == {0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_no_integral_when_not_semisimple():
    h = group_hopf(F2, FiniteGroup.cyclic(2))
    assert find_normalized_integral(h) is None
