"""Every identity check goes through the one relation evaluator.

`cycliccore.first_violation` walks tables of relations between operator
words.  Every check of a simplicial, cyclic, cylindrical or intertwining
identity must reach it, so that none keeps a compare loop of its own.
The guard wraps the evaluator in every hclab namespace that imports it
and runs each check on s1.
"""

import sys

import pytest

import hclab.cli  # noqa: F401  (imports every hclab module)
import hclab.cycliccore
import hclab.cylinder.core
from hclab.algebra import FiniteGroup, ground_algebra
from hclab.crossed import (
    build_crossed_product, trivial_action, trivial_cocycle,
    twisted_scalar_algebra,
)
from hclab.cycliccore import check_cyclic, check_paracyclic
from hclab.cylinder import (
    build_cylinder, check_cylindrical, check_diagonal_isomorphism,
    check_maclane, check_row_identification, check_shuffle_chain_map,
)
from hclab.exactlinalg import QQ
from hclab.hopf import group_hopf


def cylinder_s1():
    h = group_hopf(QQ, FiniteGroup.cyclic(2))
    return build_cylinder(h, trivial_action(h, ground_algebra(QQ)),
                          trivial_cocycle(h))


def diagonal_isomorphism(cyl):
    cp = build_crossed_product(cyl.action, cyl.cocycle, check=False)
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
}


@pytest.fixture
def evaluator_calls(monkeypatch):
    """The list that the wrapped evaluator appends to on every call."""
    original = hclab.cycliccore.first_violation
    calls = []

    def first_violation(stages, one):
        calls.append(True)
        return original(stages, one)

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
