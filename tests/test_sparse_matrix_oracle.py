"""`SparseMatrix` and `block_matrix` against dense matrices.

A matrix is stored as its list of columns, each a sparse vector that
never stores a zero.  Every constructor and operation is compared here
with the same computation on a dense list-of-rows model over Q, F_2 and
F_5, and every matrix that comes out is checked for stored zeros and
for entries outside its shape.  A source guard keeps every other module
of hclab from placing blocks itself.
"""

import ast
import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hclab.exactlinalg import (
    QQ, DimensionMismatch, Field, SparseMatrix, block_matrix,
)

FIELDS = {"Q": QQ, "F2": Field(2), "F5": Field(5)}
SIZE = 4

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)


def scalars(field):
    """Small scalars, zero included."""
    return st.integers(-2, 2).map(field.of)


def dense(field, rows, cols):
    return st.lists(st.lists(scalars(field), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def field_and(draw, make):
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    return field, draw(make(field))


def shapes():
    return st.tuples(st.integers(0, SIZE), st.integers(0, SIZE))


def matrices(field, rows=None, cols=None):
    """(dense model, SparseMatrix built from its columns); the columns
    handed over keep their zeros, which from_columns must drop."""
    return (shapes() if rows is None else st.just((rows, cols))).flatmap(
        lambda shape: dense(field, *shape).map(
            lambda d: (d, from_dense_columns(field, shape, d))))


def from_dense_columns(field, shape, d):
    rows, cols = shape
    return SparseMatrix.from_columns(
        field, rows, [{i: d[i][j] for i in range(rows)} for j in range(cols)])


def model(field, m):
    """The dense rows of m, after checking its storage."""
    assert m.cols == len(m.columns)
    for col in m.columns:
        assert all(col.values()), col
        assert all(0 <= i < m.rows for i in col), col
    return [[m.columns[j].get(i, field.zero) for j in range(m.cols)]
            for i in range(m.rows)]


def zeros(field, rows, cols):
    return [[field.zero] * cols for _ in range(rows)]


def dense_product(field, a, b, inner, cols):
    return [[sum((a[i][t] * b[t][j] for t in range(inner)), field.zero)
             for j in range(cols)] for i in range(len(a))]


def dense_vector(field, d, vec):
    return {i: c for i in range(len(d))
            if (c := sum((d[i][j] * x for j, x in vec.items()), field.zero))}


@SETTINGS
@given(field_and(lambda field: matrices(field)))
def test_constructors_agree_with_the_dense_model(case):
    field, (d, m) = case
    rows, cols = m.rows, m.cols
    assert model(field, m) == d
    rows_in = [{j: d[i][j] for j in range(cols)} for i in range(rows)]
    assert model(field, SparseMatrix.from_row_list(field, rows_in, cols)) == d
    entries = {(i, j): d[i][j] for i in range(rows) for j in range(cols)}
    assert model(field, SparseMatrix(field, rows, cols, entries)) == d
    if rows:
        assert model(field, SparseMatrix.from_dense(field, d)) == d
    # row_dicts is the dense rows without their zeros
    assert m.row_dicts() == [{j: c for j, c in enumerate(row) if c}
                             for row in d]


@SETTINGS
@given(field_and(lambda field: matrices(field)))
def test_from_columns_copies_its_input(case):
    field, (d, m) = case
    columns = [dict(col) for col in m.columns]
    copy = SparseMatrix.from_columns(field, m.rows, columns)
    for col in columns:
        col[0] = field.one
    assert copy == m


@SETTINGS
@given(field_and(lambda field: matrices(field).flatmap(
    lambda dm: st.tuples(st.just(dm), st.dictionaries(
        st.integers(0, max(dm[1].cols - 1, 0)), scalars(field),
        max_size=3)))))
def test_apply_agrees_with_the_dense_model(case):
    field, ((d, m), vec) = case
    vec = {j: c for j, c in vec.items() if j < m.cols}
    assert m.apply(vec) == dense_vector(field, d, vec)
    for j in range(m.cols):
        # the unit fast path returns a copy of the column
        image = m.apply({j: field.one})
        assert image == dense_vector(field, d, {j: field.one})
        image[m.rows] = field.one
        assert model(field, m) == d


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_apply_out_of_range_raises(name):
    field = FIELDS[name]
    m = SparseMatrix.identity(field, 2)
    two = field.of(2) or field.one
    for vec in ({2: field.one}, {-1: field.one}, {2: two},
                {0: field.one, 2: field.one}, {-1: two, 1: field.one}):
        with pytest.raises(DimensionMismatch):
            m.apply(vec)


@SETTINGS
@given(field_and(lambda field: st.tuples(
    st.integers(0, SIZE), st.integers(0, SIZE), st.integers(0, SIZE)).flatmap(
        lambda s: st.tuples(matrices(field, s[0], s[1]),
                            matrices(field, s[1], s[2])))))
def test_compose_is_the_dense_product(case):
    field, ((da, a), (db, b)) = case
    product = a.compose(b)
    assert (product.rows, product.cols) == (a.rows, b.cols)
    assert model(field, product) == dense_product(field, da, db, a.cols,
                                                  b.cols)


def test_compose_refuses_mismatched_shapes():
    with pytest.raises(DimensionMismatch):
        SparseMatrix.zero(QQ, 2, 3).compose(SparseMatrix.zero(QQ, 2, 2))


@SETTINGS
@given(field_and(lambda field: shapes().flatmap(
    lambda s: st.tuples(matrices(field, *s), matrices(field, *s),
                        st.none() | scalars(field)))))
def test_add_is_the_dense_sum(case):
    field, ((da, a), (db, b), coeff) = case
    c = field.one if coeff is None else coeff
    want = [[x + c * y for x, y in zip(ra, rb)] for ra, rb in zip(da, db)]
    assert model(field, a.add(b, coeff)) == want
    assert model(field, a) == da and model(field, b) == db


@SETTINGS
@given(field_and(lambda field: st.tuples(
    matrices(field), matrices(field), st.none() | scalars(field),
    st.integers(0, SIZE), st.integers(0, SIZE))))
def test_add_block_is_the_dense_sum_at_its_offsets(case):
    field, ((dm, m), (db, block), coeff, r0, c0) = case
    fits = r0 + block.rows <= m.rows and c0 + block.cols <= m.cols
    if not fits:
        with pytest.raises(DimensionMismatch):
            m.add_block(block, r0, c0, coeff)
        return
    c = field.one if coeff is None else coeff
    want = [list(row) for row in dm]
    for i, j in itertools.product(range(block.rows), range(block.cols)):
        want[r0 + i][c0 + j] = want[r0 + i][c0 + j] + c * db[i][j]
    m.add_block(block, r0, c0, coeff)
    assert model(field, m) == want
    assert model(field, block) == db


@SETTINGS
@given(field_and(lambda field: st.tuples(matrices(field), scalars(field))))
def test_scale_and_is_zero(case):
    field, ((d, m), coeff) = case
    scaled = m.scale(coeff)
    assert model(field, scaled) == [[coeff * x for x in row] for row in d]
    assert scaled.is_zero() == (not coeff or not any(map(any, d)))
    assert (scaled.rows, scaled.cols) == (m.rows, m.cols)
    assert m.is_zero() == (not any(map(any, d)))


@SETTINGS
@given(field_and(lambda field: shapes().flatmap(
    lambda s: st.tuples(matrices(field, *s), matrices(field, *s)))))
def test_equality_is_dense_equality(case):
    field, ((da, a), (db, b)) = case
    assert (a == b) == (da == db)
    assert a == SparseMatrix.from_columns(field, a.rows, a.columns)
    assert a != SparseMatrix.zero(field, a.rows + 1, a.cols)
    assert a != SparseMatrix.zero(field, a.rows, a.cols + 1)


@st.composite
def block_layouts(draw, field):
    """Row and column block sizes by key, and placements of matrices of
    the right shapes, some at the same block."""
    row_blocks = {f"r{t}": draw(st.integers(0, 3))
                  for t in range(draw(st.integers(0, 3)))}
    col_blocks = {f"c{t}": draw(st.integers(0, 3))
                  for t in range(draw(st.integers(0, 3)))}
    placements = []
    if row_blocks and col_blocks:
        for _ in range(draw(st.integers(0, 5))):
            r = draw(st.sampled_from(sorted(row_blocks)))
            c = draw(st.sampled_from(sorted(col_blocks)))
            d, m = draw(matrices(field, row_blocks[r], col_blocks[c]))
            placements.append((r, c, d, m, draw(st.none() | scalars(field))))
    return row_blocks, col_blocks, placements


@SETTINGS
@given(field_and(block_layouts))
def test_block_matrix_places_every_block_at_its_offsets(case):
    field, (row_blocks, col_blocks, placements) = case

    def offsets(sizes):
        return dict(zip(sizes, itertools.accumulate(sizes.values(),
                                                    initial=0)))

    row_off, col_off = offsets(row_blocks), offsets(col_blocks)
    want = zeros(field, sum(row_blocks.values()), sum(col_blocks.values()))
    for r, c, d, _, coeff in placements:
        k = field.one if coeff is None else coeff
        for i, j in itertools.product(range(row_blocks[r]),
                                      range(col_blocks[c])):
            cell = want[row_off[r] + i]
            cell[col_off[c] + j] = cell[col_off[c] + j] + k * d[i][j]
    got = block_matrix(field, row_blocks, col_blocks,
                       ((r, c, m, coeff) for r, c, _, m, coeff in placements))
    assert model(field, got) == want
    assert got.cols == sum(col_blocks.values())


def test_block_matrix_refuses_a_block_of_the_wrong_shape():
    with pytest.raises(DimensionMismatch):
        block_matrix(QQ, {"r": 2}, {"c": 2},
                     [("r", "c", SparseMatrix.identity(QQ, 3), None)])


def test_only_exactlinalg_places_blocks():
    """Block offsets are computed in one place: every other module builds
    a block matrix with block_matrix and never calls add_block."""
    src = Path(__file__).resolve().parent.parent / "src" / "hclab"
    found = [
        f"{path.relative_to(src)}:{node.lineno}"
        for path in sorted(src.rglob("*.py")) if path.name != "exactlinalg.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "add_block"]
    assert found == []
