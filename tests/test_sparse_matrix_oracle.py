"""`SparseMatrix` and `block_matrix` against dense matrices.

A matrix is stored as its list of columns, each a sparse vector that
never stores a zero.  Every constructor and operation is compared here
with the same computation on a dense list-of-rows model over Q, F_2 and
F_5, and every matrix that comes out is checked for stored zeros and
for entries outside its shape; a result also shares no dict with its
operands, so writing into it leaves them as they were.  A source guard
keeps every other module of hclab from placing blocks itself: it calls
no add_block and binds no name of an offset, and a self-test shows the
guard catches a block placed at a hand-computed offset.  A second guard
keeps every matrix product a `push_images` call and every matrix sum an
`add_images_into` call, with no `vec_add_into` or `add_term` in
`SparseMatrix` or `block_matrix`; its self-test shows it catches the
old `add_block` body.
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
    return [[field.of(sum((a[i][t] * b[t][j] for t in range(inner)),
                          field.zero))
             for j in range(cols)] for i in range(len(a))]


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
    want = [[field.of(x + c * y) for x, y in zip(ra, rb)]
            for ra, rb in zip(da, db)]
    assert model(field, a.add(b, coeff)) == want
    assert model(field, a) == da and model(field, b) == db


@SETTINGS
@given(field_and(lambda field: st.tuples(
    matrices(field), matrices(field), st.none() | scalars(field),
    st.integers(0, SIZE), st.integers(0, SIZE))))
def test_add_block_is_the_dense_sum_at_its_offsets(case):
    """A block added into m at offsets (r0, c0): block_matrix places it
    in a matrix the shape of m, and add sums that onto m; a block that
    overhangs m gives a larger placed matrix, which add refuses."""
    field, ((dm, m), (db, block), coeff, r0, c0) = case
    placed = block_matrix(
        field,
        {"above": r0, "block": block.rows,
         "below": max(m.rows - r0 - block.rows, 0)},
        {"left": c0, "block": block.cols,
         "right": max(m.cols - c0 - block.cols, 0)},
        [("block", "block", block, coeff)])
    fits = r0 + block.rows <= m.rows and c0 + block.cols <= m.cols
    if not fits:
        with pytest.raises(DimensionMismatch):
            m.add(placed)
        return
    c = field.one if coeff is None else coeff
    want = [list(row) for row in dm]
    for i, j in itertools.product(range(block.rows), range(block.cols)):
        want[r0 + i][c0 + j] = field.of(want[r0 + i][c0 + j] + c * db[i][j])
    assert model(field, m.add(placed)) == want
    assert model(field, m) == dm and model(field, block) == db


@SETTINGS
@given(field_and(matrices))
def test_is_zero(case):
    field, (d, m) = case
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
            cell[col_off[c] + j] = field.of(cell[col_off[c] + j]
                                            + k * d[i][j])
    got = block_matrix(field, row_blocks, col_blocks,
                       ((r, c, m, coeff) for r, c, _, m, coeff in placements))
    assert model(field, got) == want
    assert got.cols == sum(col_blocks.values())
    # placing a block leaves it as it was
    assert all(model(field, m) == d for _, _, d, m, _ in placements)


def test_block_matrix_refuses_a_block_of_the_wrong_shape():
    with pytest.raises(DimensionMismatch):
        block_matrix(QQ, {"r": 2}, {"c": 2},
                     [("r", "c", SparseMatrix.identity(QQ, 3), None)])


def with_zero_column(field, dm):
    """The drawn matrix with a zero column appended, and its model."""
    d, m = dm
    return ([row + [field.zero] for row in d],
            SparseMatrix.from_columns(field, m.rows, m.columns + [{}]))


def copies(ms):
    return [SparseMatrix.from_columns(m.field, m.rows, m.columns) for m in ms]


def assert_fresh(field, result, operands, before):
    """result stores no zero, and writing into every one of its columns
    leaves every operand == to its copy taken before the operation."""
    model(field, result)
    for col in result.columns:
        col[result.rows] = field.one
    assert operands == before


@SETTINGS
@given(field_and(lambda field: st.tuples(
    st.integers(0, SIZE), st.integers(0, SIZE), st.integers(0, SIZE)).flatmap(
        lambda s: st.tuples(
            matrices(field, s[0], s[1] + 1),
            matrices(field, s[1] + 1, s[2]).map(
                lambda dm: with_zero_column(field, dm))))))
def test_compose_shares_no_dict_with_its_operands(case):
    field, ((_, a), (_, b)) = case
    before = copies([a, b])
    assert_fresh(field, a.compose(b), [a, b], before)


@SETTINGS
@given(field_and(lambda field: shapes().flatmap(
    lambda s: st.tuples(
        matrices(field, *s).map(lambda dm: with_zero_column(field, dm)),
        matrices(field, *s).map(lambda dm: with_zero_column(field, dm)),
        st.none() | scalars(field)))))
def test_add_shares_no_dict_with_its_operands(case):
    field, ((_, a), (_, b), coeff) = case
    before = copies([a, b])
    assert_fresh(field, a.add(b, coeff), [a, b], before)


@st.composite
def layouts_with_a_block_at_row_offset_0(draw, field):
    """A block layout whose first placement sits at row offset 0, column
    offset 0, and holds a zero column."""
    row_blocks, col_blocks, placements = draw(block_layouts(field))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    d, m = with_zero_column(field, draw(matrices(field, rows, cols)))
    row_blocks = {"top": rows, **row_blocks}
    col_blocks = {"left": cols + 1, **col_blocks}
    return row_blocks, col_blocks, [
        ("top", "left", d, m, draw(st.none() | scalars(field))), *placements]


@SETTINGS
@given(field_and(layouts_with_a_block_at_row_offset_0))
def test_block_matrix_shares_no_dict_with_its_blocks(case):
    field, (row_blocks, col_blocks, placements) = case
    blocks = [m for _, _, _, m, _ in placements]
    before = copies(blocks)
    got = block_matrix(field, row_blocks, col_blocks,
                       ((r, c, m, coeff) for r, c, _, m, coeff in placements))
    assert_fresh(field, got, blocks, before)


def hand_placed_blocks(source, filename="<source>"):
    """The lines of source that place a block by hand: a call of
    add_block, or a binding of a name containing `offset` (a variable,
    an argument or a definition)."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, ast.Attribute):
            name = "add_block" if node.attr == "add_block" else ""
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, ast.arg):
            name = node.arg
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        else:
            continue
        if name == "add_block" or "offset" in name:
            found.append(node.lineno)
    return found


def test_only_exactlinalg_places_blocks():
    """Block offsets are computed in one place: every other module builds
    a block matrix with block_matrix, never calls add_block and binds no
    name of an offset."""
    src = Path(__file__).resolve().parent.parent / "src" / "hclab"
    found = [
        f"{path.relative_to(src)}:{line}"
        for path in sorted(src.rglob("*.py")) if path.name != "exactlinalg.py"
        for line in hand_placed_blocks(path.read_text(), str(path))]
    assert found == []


def test_the_guard_sees_a_block_placed_at_a_hand_computed_offset():
    """The horizontal boundary's block as the shuffle check once placed
    it, one add_term call per entry at a row offset of its own, and the
    placements the guard also refuses."""
    by_hand = """
def total(p, q):
    out = [{} for _ in range(bn.dim(p, q))]
    if p >= 1:
        offset, sign = bn.dim(p, q - 1) if q >= 1 else 0, field.sign(q)
        for image, col in zip(out, bn.horizontal_boundary(p, q).columns):
            for i, c in col.items():
                add_term(image, offset + i, sign * c, field.characteristic)
    return out
"""
    assert hand_placed_blocks(by_hand) == [5]
    assert hand_placed_blocks("def place(m, row_offset):\n    pass\n") == [1]
    assert hand_placed_blocks("out.add_block(m, 0, 0)\n") == [1]
    assert hand_placed_blocks(
        "out = block_matrix(field, rows, cols, blocks)\n") == []


def per_entry_sums(source, filename="<source>"):
    """The lines, inside class SparseMatrix or def block_matrix, that
    call vec_add_into or add_term: a sum taken one vector or one entry at
    a time, where a matrix takes its products and sums whole-list."""
    found = []
    for top in ast.parse(source, filename).body:
        if getattr(top, "name", None) not in ("SparseMatrix", "block_matrix"):
            continue
        found += [node.lineno for node in ast.walk(top)
                  if called(node) in ("vec_add_into", "add_term")]
    return found


def called(node):
    """The name a call node calls, or None."""
    if isinstance(node, ast.Call):
        func = node.func
        return func.id if isinstance(func, ast.Name) else getattr(
            func, "attr", None)
    return None


def test_matrix_products_and_sums_are_whole_list_kernel_calls():
    """compose is a push_images call, add and block_matrix are
    add_images_into calls, and no matrix operation sums by the vector."""
    path = (Path(__file__).resolve().parent.parent / "src" / "hclab"
            / "exactlinalg.py")
    source = path.read_text()
    assert per_entry_sums(source, str(path)) == []
    calls = {node.name: {called(n) for n in ast.walk(node)}
             for node in ast.walk(ast.parse(source, str(path)))
             if isinstance(node, ast.FunctionDef)}
    assert "push_images" in calls["compose"]
    assert "add_images_into" in calls["add"] & calls["block_matrix"]
    assert not hasattr(SparseMatrix, "apply")
    assert not hasattr(SparseMatrix, "add_block")


def test_the_guard_sees_a_matrix_sum_taken_by_the_vector():
    """add_block as it was, one vec_add_into per block column; the same
    call outside a matrix operation is not the guard's business."""
    old = """
class SparseMatrix:
    def add_block(self, block, row_offset, col_offset, coeff=None):
        if coeff is self.field.one:
            coeff = None
        columns, p = self.columns, self.field.characteristic
        for j, col in enumerate(block.columns, col_offset):
            if row_offset:
                col = {row_offset + i: c for i, c in col.items()}
            vec_add_into(columns[j], col, coeff, p)
"""
    assert per_entry_sums(old) == [10]
    assert per_entry_sums(
        "def block_matrix(field):\n    add_term(acc, 0, 1, 0)\n") == [2]
    assert per_entry_sums("def rref(rows):\n    vec_add_into(a, b)\n") == []
