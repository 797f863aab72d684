"""Exact failure text of the identity checks that have no oracle.

`check_row_identification`, `check_maclane`, `check_diagonal_isomorphism`
and `check_shuffle_chain_map` each return None or the first relation that
fails, named.  Each case
injects one fault into a provider or a chain map the check reads, and
pins the whole message: a rewrite of a check must keep both the order in
which it walks its relations and the text it returns.  A provider fault
adds one unit to the least coordinate of entry k of one column
(coordinate 0 when the image is zero); a map fault adds one unit at
entry (0, 0) of the map's matrix in one degree or bidegree.
"""

import pytest

import hclab.cylinder.coefficients
import hclab.cylinder.core
from hclab.algebra import FiniteGroup, dual_numbers, ground_algebra
from hclab.crossed import (
    ActionMap, build_crossed_product, lift_group_cocycle, trivial_action,
    trivial_cocycle, twisted_scalar_algebra, validate_cocycle,
    validate_weak_action,
)
from hclab.cycliccore import ZERO, NormalizedComplex, normal_image
from hclab.cylinder import (
    BinormalizedCylinder, DiagonalModule, HochschildComplex,
    HopfCrossedCylinder, build_cylinder, check_diagonal_isomorphism,
    check_maclane, check_row_identification, check_shuffle_chain_map,
)
from hclab.exactlinalg import QQ, Field, SparseMatrix
from hclab.hopf import group_hopf, is_cocommutative
from test_crossed import SIGN_COCYCLE


def cylinder_s2():
    h = group_hopf(QQ, FiniteGroup.named("C2xC2"))
    coc = lift_group_cocycle(h, SIGN_COCYCLE)
    return build_cylinder(h, trivial_action(h, ground_algebra(QQ)), coc)


def cylinder_s5():
    h = group_hopf(QQ, FiniteGroup.cyclic(2))
    act = ActionMap(h, dual_numbers(QQ), [[{0: QQ.one}, {1: QQ.one}],
                                          [{0: QQ.one}, {1: QQ.of(-1)}]])
    return build_cylinder(h, act, trivial_cocycle(h))


@pytest.mark.parametrize("factory", [cylinder_s2, cylinder_s5])
def test_factory_inputs_meet_the_standing_hypotheses(factory):
    """build_cylinder takes a valid weak action and cocycle of a
    cocommutative Hopf algebra for granted; the fixtures supply them."""
    cyl = factory()
    assert validate_weak_action(cyl.action) is None
    assert validate_cocycle(cyl.cocycle, cyl.action) is None
    assert is_cocommutative(cyl.hopf)


def plus_unit(image, field):
    """A column's image with one more unit in its least coordinate
    (coordinate 0 when it is zero), in normal form: a coordinate that
    the unit cancels is dropped, as no provider stores a zero."""
    image = {image: field.one} if type(image) is int else dict(image)
    key = min(image, default=0)
    if value := field.of(image.get(key, field.zero) + field.one):
        image[key] = value
    else:
        del image[key]
    return normal_image(image, field.one)


def corrupt_provider(cls, provider, at):
    """`provider` of `cls` with one more unit in the least coordinate of
    entry k of its column at the head, where `at` is the head and then
    k."""
    original = getattr(cls, provider)
    head, k = at[:-1], at[-1]

    def wrong(self, *args):
        column = original(self, *args)
        if args == head:
            column = list(column)
            column[k] = plus_unit(column[k], self.field)
        return column
    return cls, provider, wrong


def corrupt_map(owner, name, at):
    """The map `name` of `owner` with one more unit at entry (0, 0) of its
    matrix when its last arguments are `at` (a degree or a bidegree)."""
    original = getattr(owner, name)

    def wrong(source, *args):
        m = original(source, *args)
        if args[-len(at):] == at:
            m = m.add(SparseMatrix(m.field, m.rows, m.cols,
                                   {(0, 0): m.field.one}))
        return m
    return owner, name, wrong


def row_identification(cyl, q):
    return check_row_identification(
        cyl, twisted_scalar_algebra(cyl.cocycle), q, 2)


def maclane(cyl, q):
    return check_maclane(cyl, twisted_scalar_algebra(cyl.cocycle), q, 2)


def diagonal(cyl):
    cp = build_crossed_product(cyl.action, cyl.cocycle)
    return check_diagonal_isomorphism(cyl, cp, 2)


def shuffle(cyl):
    return check_shuffle_chain_map(cyl, 2)


# (cylinder, check, fault, exact message)
CASES = {
    "row identification, s5 row 0": (
        cylinder_s5, lambda cyl: row_identification(cyl, 0),
        corrupt_provider(HopfCrossedCylinder, "hface", (2, 0, 1, 5)),
        "face 1 disagrees at row 0, degree 2, basis 5"),
    "row identification, s2 row 1": (
        cylinder_s2, lambda cyl: row_identification(cyl, 1),
        corrupt_provider(HopfCrossedCylinder, "hface", (1, 1, 0, 3)),
        "face 0 disagrees at row 1, degree 1, basis 3"),
    "Mac Lane, Hochschild face": (
        cylinder_s5, lambda cyl: maclane(cyl, 0),
        corrupt_provider(HochschildComplex, "face", (2, 1, 6)),
        "face 1 intertwining fails in degree 2 at basis 6"),
    "Mac Lane, theta": (
        cylinder_s2, lambda cyl: maclane(cyl, 0),
        corrupt_map(hclab.cylinder.coefficients, "hochschild_to_hopf", (2,)),
        "theta o inverse is not the identity in degree 2"),
    "Mac Lane, inverse": (
        cylinder_s5, lambda cyl: maclane(cyl, 1),
        corrupt_map(hclab.cylinder.coefficients, "hopf_to_hochschild", (1,)),
        "theta o inverse is not the identity in degree 1"),
    "diagonal, phi": (
        cylinder_s5, diagonal,
        corrupt_map(hclab.cylinder.core, "crossed_to_diagonal", (1,)),
        "degeneracy 0 intertwining fails in degree 0"),
    "diagonal, psi": (
        cylinder_s2, diagonal,
        corrupt_map(hclab.cylinder.core, "diagonal_to_crossed", (2,)),
        "psi o phi is not the identity in degree 2"),
    "diagonal, rotation": (
        cylinder_s5, diagonal,
        corrupt_provider(DiagonalModule, "rotate", (1, 9)),
        "rotation intertwining fails in degree 1"),
    "diagonal, face": (
        cylinder_s5, diagonal,
        corrupt_provider(DiagonalModule, "face", (2, 2, 17)),
        "face 2 intertwining fails in degree 2"),
    "diagonal, degeneracy": (
        cylinder_s2, diagonal,
        corrupt_provider(DiagonalModule, "degeneracy", (1, 1, 3)),
        "degeneracy 1 intertwining fails in degree 1"),
    "shuffle, shuffle map": (
        cylinder_s5, shuffle,
        corrupt_map(hclab.cylinder.core, "shuffle_map", (1, 0)),
        "shuffle map is not a chain map at (2,0) column 2"),
    "shuffle, vertical boundary": (
        cylinder_s5, shuffle,
        corrupt_map(BinormalizedCylinder, "vertical_boundary", (1, 1)),
        "shuffle map is not a chain map at (1,1) column 0"),
    "shuffle, diagonal boundary": (
        cylinder_s5, shuffle,
        corrupt_map(NormalizedComplex, "boundary_matrix", (2,)),
        "shuffle map is not a chain map at (0,2) column 0"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_first_failure_is_named(case, monkeypatch):
    build, check, (owner, name, wrong), message = CASES[case]
    assert check(build()) is None
    monkeypatch.setattr(owner, name, wrong)
    assert check(build()) == message


# -- the injected columns keep the providers' normal form ---------------------


def in_normal_form(image, field):
    """Whether an image is as `normal_image` leaves a provider's image:
    an int index, the shared ZERO, or a sparse vector that is neither,
    storing every scalar reduced and nonzero."""
    if type(image) is int:
        return True
    if not image:
        return image is ZERO
    return normal_image(image, field.one) is image and all(
        c and field.of(c) == c for c in image.values())


@pytest.mark.parametrize("p", [0, 2, 3])
def test_plus_unit_drops_a_cancelled_coordinate(p):
    field = Field(p)
    minus_one = field.of(-1)
    assert plus_unit({4: minus_one}, field) is ZERO
    assert plus_unit({4: minus_one, 6: minus_one, 7: minus_one}, field) == \
        {6: minus_one, 7: minus_one}
    assert plus_unit(ZERO, field) == 0
    for image in ({4: minus_one}, {4: minus_one, 6: minus_one}, ZERO, 3,
                  {1: field.one, 2: minus_one}, {0: field.one, 5: minus_one}):
        assert in_normal_form(plus_unit(image, field), field), image


PROVIDER_CASES = sorted(case for case, (_, _, (_, name, _), _) in CASES.items()
                        if name in ("face", "hface", "rotate", "degeneracy"))


@pytest.mark.parametrize("case", PROVIDER_CASES)
def test_every_corrupted_column_is_in_normal_form(case, monkeypatch):
    build, check, (owner, name, wrong), _ = CASES[case]
    columns = []

    def recording(self, *args):
        column = wrong(self, *args)
        columns.append((self.field, column))
        return column
    monkeypatch.setattr(owner, name, recording)
    check(build())
    assert columns
    assert [(i, image) for field, column in columns
            for i, image in enumerate(column)
            if not in_normal_form(image, field)] == []
