"""Membership and induced maps against the reduction-and-copy path.

On a coordinate subspace (every basis row a unit row {k: 1}) `contains`
is the key-set inclusion of the vector's support in the pivots, and on
any other it reduces; either way it must say what `not reduce(v)` says.
Between two coordinate denominators `induced_map` tests each denominator
image with `contains` and projects each free column with
`QuotientSpace.project`; for any other pair it pushes the free columns
through the target's projector column and sums each denominator row's
class from its pivot column's push and those free images.  The
reference below is `induced_map` as it was: membership by reduction,
with the first failing row reported, and a copy of every projected
column (`SparseMatrix.from_columns`).  Both must return `==` matrices,
or equal `NotWellDefined` markers (row and image), over Q, F_2, F_5 and
F_p for p = 2^31 - 1, on coordinate and non-coordinate denominators, for
maps that descend and maps that do not: the first row fails, an earlier
row descends and a later one fails, or several rows fail.  Mutating the
raw matrix afterwards must leave the induced matrix as it was, and one
pinned case descends only because its class cancels mod p.
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

FIELDS = {"Q": QQ, "F2": Field(2), "F5": Field(5),
          "F2147483647": Field(2 ** 31 - 1)}
# every induced-map combination of field, denominator kinds and the rows
# that fail (none, the first, one after a row that descends, or several)
# runs its own examples, 1,920 in all
SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)
COMBINATION_SETTINGS = settings(SETTINGS, max_examples=30)


def reference_induced_map(f, src, dst):
    """induced_map with membership by reduction and copied columns."""
    for row in src.denominator.rows:
        img = {}
        for k, c in row.items():
            vec_add_into(img, f.columns[k], c, f.field.characteristic)
        if dst.denominator.reduce(img):
            return NotWellDefined(basis_vector=dict(row), image=dict(img))
    columns = [dst.project(f.columns[fcol]) for fcol in src.free_columns]
    return SparseMatrix.from_columns(f.field, dst.dim, columns)


def vectors(field, n, min_size=0):
    # the distinct nonzero scalars among -4..4, drawn without filtering:
    # over F_2 a filter would throw half the draws away
    scalars = st.sampled_from(
        list(dict.fromkeys(c for k in range(-4, 5) if (c := field.of(k)))))
    return st.dictionaries(st.integers(0, n - 1), scalars,
                           min_size=min_size, max_size=n)


@st.composite
def subspaces(draw, field, coordinate, min_rows=0, proper=False):
    """A subspace of a space of dimension 1 to 6 with at least min_rows
    basis rows, and not the whole space when proper: the span of some
    unit vectors, built as `degeneracy_quotient` builds it, or the span
    of vectors with two or more entries, whose RREF is not all unit
    rows."""
    n = draw(st.integers(max(1 if coordinate else 2, min_rows + proper), 6))
    if coordinate:
        pivots = sorted(draw(st.sets(st.integers(0, n - 1), min_size=min_rows,
                                     max_size=n - proper)))
        return Subspace(field, n, pivots, [{k: field.one} for k in pivots])
    sub = Subspace.from_vectors(field, n, draw(st.lists(
        vectors(field, n, min_size=2), min_size=max(1, min_rows),
        max_size=n - proper)))
    assume(not sub.is_coordinate and sub.dim >= min_rows)
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
def induced_cases(draw, field, src_coordinate, dst_coordinate, failure):
    """(f, source quotient, target quotient): f's columns are random, and
    then each source denominator row's pivot column is set so the row
    maps to a random member of the target denominator (rows of an RREF
    are zero on the other pivots, so each row's image is set alone).  A
    map that must not descend then sends the rows `failure` names off
    it, each by adding a free basis vector of the target to its pivot
    column."""
    fails = failure != "none"
    src = draw(subspaces(field, src_coordinate,
                         min_rows={"none": 0, "first": 1}.get(failure, 2)))
    dst = draw(subspaces(field, dst_coordinate, proper=fails))
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
    if fails:
        if failure == "first":
            off = [0]
        elif failure == "later":
            off = [draw(st.integers(1, len(src.rows) - 1))]
        else:
            off = draw(st.sets(st.integers(0, len(src.rows) - 1),
                               min_size=2))
        for t in off:
            free = draw(st.sampled_from(target.free_columns))
            vec_add_into(columns[src.pivots[t]], {free: field.one}, None, p)
    return SparseMatrix.from_columns(field, n_dst, columns), source, target


def check_against_the_copying_path(name, src_coordinate, dst_coordinate,
                                   failure):
    field = FIELDS[name]
    descends = failure == "none"

    @COMBINATION_SETTINGS
    @given(induced_cases(field, src_coordinate, dst_coordinate, failure))
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


@pytest.mark.parametrize("descends", [True, False])
@pytest.mark.parametrize("dst_coordinate", [True, False])
@pytest.mark.parametrize("src_coordinate", [True, False])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_induced_map_matches_the_copying_path(name, src_coordinate,
                                              dst_coordinate, descends):
    """A map that descends, or one whose first row fails."""
    check_against_the_copying_path(name, src_coordinate, dst_coordinate,
                                   "none" if descends else "first")


@pytest.mark.parametrize("failure", ["later", "several"])
@pytest.mark.parametrize("dst_coordinate", [True, False])
@pytest.mark.parametrize("src_coordinate", [True, False])
@pytest.mark.parametrize("name", sorted(FIELDS))
def test_the_first_failing_row_is_the_one_reported(name, src_coordinate,
                                                   dst_coordinate, failure):
    """A row fails after one that descends, or two or more rows fail."""
    check_against_the_copying_path(name, src_coordinate, dst_coordinate,
                                   failure)


def test_a_class_that_cancels_only_mod_p_descends():
    """Row {0: 1, 1: 2} maps to e_0 + 2 * 3 e_1, whose class modulo the
    span of e_0 + e_1 is (-1 + 6) = 5 times that of e_1: zero over F_5,
    so the map descends there, and not over Q, where the marker names
    the row and its image."""
    for field, descends in ((Field(5), True), (QQ, False)):
        src = quotient_space(2, Subspace.from_vectors(
            field, 2, [{0: field.one, 1: field.of(2)}]))
        dst = quotient_space(2, Subspace.from_vectors(
            field, 2, [{0: field.one, 1: field.one}]))
        f = SparseMatrix.from_columns(field, 2, [{0: field.one},
                                                 {1: field.of(3)}])
        got = induced_map(f, src, dst)
        assert got == reference_induced_map(f, src, dst)
        if descends:
            assert got.columns == [{0: 3}]
        else:
            assert got == NotWellDefined(basis_vector={0: 1, 1: 2},
                                         image={0: 1, 1: 6})
