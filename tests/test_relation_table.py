"""Every identity check goes through the one relation evaluator.

`cycliccore.first_violation` walks tables of relations between operator
words.  Every check of a simplicial, cyclic, cylindrical or intertwining
identity must reach it, so that none keeps a compare loop of its own.
The guard wraps the evaluator in every hclab namespace that imports it
and runs each check on s1.  The evaluator reads an image as an int basis
index or as a sparse vector, and must compare the two forms of one
vector as equal, and of different vectors as different.
"""

import sys

import pytest

import hclab.cli  # noqa: F401  (imports every hclab module)
import hclab.cycliccore
import hclab.cylinder.core
from hclab.algebra import FiniteGroup, ground_algebra
from hclab.crossed import (
    build_crossed_product, trivial_action, trivial_cocycle,
    twisted_scalar_algebra, validate_cocycle, validate_weak_action,
)
from hclab.cycliccore import (
    ZERO, OperatorTable, check_cyclic, check_paracyclic, first_violation,
)
from hclab.cylinder import (
    build_cylinder, check_coefficient_action, check_cylindrical,
    check_diagonal_isomorphism, check_maclane, check_row_identification,
    check_shuffle_chain_map,
)
from hclab.exactlinalg import QQ, Field, add_term
from hclab.hopf import group_hopf, is_cocommutative


def cylinder_s1():
    h = group_hopf(QQ, FiniteGroup.cyclic(2))
    return build_cylinder(h, trivial_action(h, ground_algebra(QQ)),
                          trivial_cocycle(h))


@pytest.mark.parametrize("factory", [cylinder_s1])
def test_factory_inputs_meet_the_standing_hypotheses(factory):
    """build_cylinder takes a valid weak action and cocycle of a
    cocommutative Hopf algebra for granted; the fixtures supply them."""
    cyl = factory()
    assert validate_weak_action(cyl.action) is None
    assert validate_cocycle(cyl.cocycle, cyl.action) is None
    assert is_cocommutative(cyl.hopf)


def diagonal_isomorphism(cyl):
    cp = build_crossed_product(cyl.action, cyl.cocycle)
    return check_diagonal_isomorphism(cyl, cp, 2)


CHECKS = {
    "check_paracyclic": lambda cyl: check_paracyclic(cyl.row_module(1), 2),
    "check_cyclic": lambda cyl: check_cyclic(cyl.diagonal_module(), 2),
    "check_cylindrical": lambda cyl: check_cylindrical(cyl, 2, 2),
    "check_diagonal_isomorphism": diagonal_isomorphism,
    "check_row_identification": lambda cyl: check_row_identification(
        cyl, twisted_scalar_algebra(cyl.cocycle), 1, 2),
    "check_maclane": lambda cyl: check_maclane(
        cyl, twisted_scalar_algebra(cyl.cocycle), 1, 2),
    "check_shuffle_chain_map": lambda cyl: check_shuffle_chain_map(cyl, 2),
    "check_coefficient_action": lambda cyl: check_coefficient_action(cyl, 0),
}


@pytest.fixture
def evaluator_calls(monkeypatch):
    """The list that the wrapped evaluator appends to on every call."""
    original = hclab.cycliccore.first_violation
    calls = []

    def first_violation(stages, field):
        calls.append(True)
        return original(stages, field)

    wrapped = set()
    for name, module in list(sys.modules.items()):
        if (name.startswith("hclab.")
                and getattr(module, "first_violation", None) is original):
            monkeypatch.setattr(module, "first_violation", first_violation)
            wrapped.add(name)
    assert {"hclab.cycliccore", "hclab.cylinder.core",
            "hclab.cylinder.coefficients"} <= wrapped, wrapped
    return calls


@pytest.mark.parametrize("check", sorted(CHECKS))
def test_check_reaches_the_evaluator(check, evaluator_calls):
    assert CHECKS[check](cylinder_s1()) is None
    assert evaluator_calls, f"{check} compared images on its own"


def test_no_hand_written_commutation_loop():
    assert not hasattr(hclab.cylinder.core, "_check_commutation")


# -- images as basis indices and as sparse vectors ---------------------------

FIELDS = {"Q": QQ, "F2": Field(2)}
DIM = 3


def successor():
    """The basis vector after each k (cyclically), as its index."""
    return [(k + 1) % DIM for k in range(DIM)]


def successor_vector(field):
    """The same operator, as sparse vectors."""
    return lambda: [{j: field.one} for j in successor()]


@pytest.mark.parametrize("field", sorted(FIELDS))
def test_index_and_vector_forms_of_one_image_agree(field):
    field = FIELDS[field]
    vector = successor_vector(field)
    table = OperatorTable(vector)
    words = {
        "index": ((successor, ()),),
        "vector": ((vector, ()),),
        "table": ((table, ()),),
        "index then vector": ((successor, ()), (vector, ())),
        "vector then table": ((vector, ()), (table, ())),
        "table then index": ((table, ()), (successor, ())),
    }
    rows = [(f"{a} = {b}", words[a], words[b])
            for a in words for b in words
            if len(words[a]) == len(words[b])]
    assert first_violation([(DIM, rows)], field) is None
    assert table.column(()) == (vector(), False)
    # three steps of the successor are the identity, the empty word
    assert first_violation([(DIM, [("cube", ((table, ()),) * 3, ())])],
                           field) is None


def differing_at(field, bad_k, wrong):
    """The successor as sparse vectors, with image bad_k replaced by
    wrong(field, successor of bad_k)."""
    def op():
        return [wrong(field, j) if k == bad_k else {j: field.one}
                for k, j in enumerate(successor())]
    return op


def doubled(field, j):
    out = {}
    # zero over F_2
    add_term(out, j, field.one + field.one, field.characteristic)
    return out


WRONG_IMAGES = {
    "doubled": (1, doubled),
    "another index": (2, lambda field, j: {(j + 1) % DIM: field.one}),
    "zero": (0, lambda field, j: ZERO),
}


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("wrong", sorted(WRONG_IMAGES))
def test_a_different_vector_fails_at_its_basis_vector(field, wrong):
    field = FIELDS[field]
    bad_k, make = WRONG_IMAGES[wrong]
    op = differing_at(field, bad_k, make)
    good = ("agrees", ((successor, ()),), ((successor_vector(field), ()),))
    for against in (op, OperatorTable(op)):
        row = (wrong, ((successor, ()),), ((against, ()),))
        assert first_violation([(DIM, [good, row])], field) == (
            wrong, bad_k)
        # the same vector, one step into a word
        row = (wrong, ((successor, ()), (successor, ())),
               ((successor, ()), (against, ())))
        assert first_violation([(DIM, [row])], field) == (
            wrong, (bad_k - 1) % DIM)
