"""Membership and induced maps against the reduction-and-copy path.

On a coordinate subspace (every basis row a unit row {k: 1}) `contains`
is the key-set inclusion of the vector's support in the pivots, and on
any other it reduces; either way it must say what `not reduce(v)` says.
`induced_map` tests each denominator image with `contains` and builds
the induced matrix from the fresh dicts that `QuotientSpace.project`
returns, without copying them again.  The reference below is
`induced_map` as it was: membership by reduction and a copy of every
projected column (`SparseMatrix.from_columns`).  Both must return `==`
matrices, or equal `NotWellDefined` markers, over Q and F_5, on
coordinate and non-coordinate denominators, for maps that descend and
maps that do not; and mutating the raw matrix afterwards must leave the
induced matrix as it was.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hclab.exactlinalg import (
    Field,
    NotWellDefined,
    QQ,
    SparseMatrix,
    Subspace,
    induced_map,
    quotient_space,
    vec_add_into,
)

FIELDS = {"Q": QQ, "F5": Field(5)}
# every induced-map combination of field, denominator kinds and descent
# runs its own examples, 480 in all
SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)
COMBINATION_SETTINGS = settings(SETTINGS, max_examples=30)


def reference_induced_map(f, src, dst):
    """induced_map with membership by reduction and copied columns."""
    for row in src.denominator.rows:
        img = f.columns[min(row)] if len(row) == 1 else f.apply(row)
        if dst.denominator.reduce(img):
            return NotWellDefined(basis_vector=dict(row), image=dict(img))
    columns = [dst.project(f.columns[fcol]) for fcol in src.free_columns]
    return SparseMatrix.from_columns(f.field, dst.dim, columns)


def vectors(field, n, min_size=0):
    scalars = st.integers(-4, 4).map(field.of).filter(bool)
    return st.dictionaries(st.integers(0, n - 1), scalars,
                           min_size=min_size, max_size=n)


@st.composite
def subspaces(draw, field, coordinate):
    """A subspace of a space of dimension 1 to 6: the span of some unit
    vectors, built as `degeneracy_quotient` builds it, or the span of
    vectors with two or more entries, whose RREF is not all unit rows."""
    n = draw(st.integers(1 if coordinate else 2, 6))
    if coordinate:
        pivots = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
        return Subspace(field, n, pivots, [{k: field.one} for k in pivots])
    sub = Subspace.from_vectors(field, n, draw(st.lists(
        vectors(field, n, min_size=2), min_size=1, max_size=n)))
    assume(not sub.is_coordinate)
    return sub


def member(draw, field, sub):
    """A random combination of the subspace's basis rows."""
    out = {}
    for row in sub.rows:
        vec_add_into(out, row, field.of(draw(st.integers(-3, 3))),
                     field.characteristic)
    return out


@st.composite
def membership_cases(draw, field, coordinate):
    sub = draw(subspaces(field, coordinate))
    vec = member(draw, field, sub)
    if draw(st.booleans()):
        vec_add_into(vec, draw(vectors(field, sub.ambient_dim)), None,
                     field.characteristic)
    return sub, vec


@pytest.mark.parametrize("coordinate", [True, False])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_contains_is_reduction_to_zero(name, coordinate):
    field = FIELDS[name]

    @SETTINGS
    @given(membership_cases(field, coordinate))
    def check(case):
        sub, vec = case
        assert sub.is_coordinate == coordinate
        assert sub.contains(vec) == (not sub.reduce(vec))
    check()


@st.composite
def induced_cases(draw, field, src_coordinate, dst_coordinate, descends):
    """(f, source quotient, target quotient): f's columns are random, and
    then each source denominator row's pivot column is set so the row
    maps to a random member of the target denominator (rows of an RREF
    are zero on the other pivots, so each row's image is set alone).  A
    map that must not descend then sends the first row off it, by
    adding a free basis vector of the target to its pivot column."""
    src = draw(subspaces(field, src_coordinate))
    dst = draw(subspaces(field, dst_coordinate))
    p = field.characteristic
    n_src, n_dst = src.ambient_dim, dst.ambient_dim
    columns = [draw(vectors(field, n_dst)) for _ in range(n_src)]
    for row in src.rows:
        pivot = min(row)
        image = member(draw, field, dst)
        for k, c in row.items():
            if k != pivot:
                vec_add_into(image, columns[k], -c, p)
        columns[pivot] = image
    source, target = quotient_space(n_src, src), quotient_space(n_dst, dst)
    if not descends:
        assume(src.rows and target.free_columns)
        free = draw(st.sampled_from(target.free_columns))
        vec_add_into(columns[src.pivots[0]], {free: field.one}, None, p)
    return SparseMatrix.from_columns(field, n_dst, columns), source, target


@pytest.mark.parametrize("descends", [True, False])
@pytest.mark.parametrize("dst_coordinate", [True, False])
@pytest.mark.parametrize("src_coordinate", [True, False])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_induced_map_matches_the_copying_path(name, src_coordinate,
                                              dst_coordinate, descends):
    field = FIELDS[name]

    @COMBINATION_SETTINGS
    @given(induced_cases(field, src_coordinate, dst_coordinate, descends))
    def check(case):
        f, src, dst = case
        got = induced_map(f, src, dst)
        want = reference_induced_map(f, src, dst)
        assert type(got) is (SparseMatrix if descends else NotWellDefined)
        assert type(want) is type(got)
        assert got == want
        if not descends:
            return
        assert all(all(col.values()) for col in got.columns)
        kept = [dict(col) for col in got.columns]
        for col in f.columns:
            col.clear()
            col[f.rows] = field.one
        assert got.columns == kept
    check()
