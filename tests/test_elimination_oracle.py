"""The pivot-indexed elimination kernel against the all-rows kernel.

The oracles below are the elimination routines hclab used before its
kernel was pivot-indexed: `rref` scans every stored pivot row, both when
reducing an incoming row and when back-substituting, and the subspace
operations walk every basis row, reading each row's pivot as its least
column.  RREF is unique, so the two kernels must agree exactly on the
pivots, the rows, every reduction, every coordinate vector and every
quotient projection.  sympy's rank is a third, independent oracle over Q.
F_7 is among the fields because F_2 and F_3 have no nonzero scalar
other than ±1, and the kernel skips the arithmetic with units.

Over Q hclab keeps integral scalars as ints, and the oracles divide with
`/`, so they are given `Fraction` copies of their input rows: their
arithmetic stays exact and their results compare with `==` as before.
Over F_p hclab keeps a scalar as an int in [0, p), so the oracles are
given copies in the reference scalar class `test_fp_scalars.FpScalar`,
whose operators reduce mod p, and their results are read back as ints.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hclab.exactlinalg import (
    Field,
    QQ,
    SparseMatrix,
    Subspace,
    mat_rank,
    quotient_space,
    rref,
)
from test_fp_scalars import FpScalar


FIELDS = {"Q": QQ, "F2": Field(2), "F3": Field(3), "F7": Field(7)}


def exact_copy(field, row):
    """The row in the oracles' scalars: every int entry made a `Fraction`
    over Q, every entry an `FpScalar` mod p."""
    p = field.characteristic
    return {k: FpScalar(p, c) if p else Fraction(c) for k, c in row.items()}


def exact_copies(field, rows):
    return [exact_copy(field, row) for row in rows]


def plain(x):
    """An oracle's result with every `FpScalar` read back as its int."""
    if isinstance(x, dict):
        return {k: plain(c) for k, c in x.items()}
    if isinstance(x, list):
        return [plain(c) for c in x]
    return x.v if isinstance(x, FpScalar) else x


def assert_exact_scalars(field, vec):
    """Over Q an int or a Fraction, never a float; mod p an int in
    [1, p)."""
    p = field.characteristic
    for c in vec.values():
        if p:
            assert type(c) is int and 0 < c < p, (c, type(c))
        else:
            assert type(c) in (int, Fraction), (c, type(c))


def oracle_rref(row_dicts):
    pivots = []  # (pivot_col, fully reduced row)
    for row in row_dicts:
        row = dict(row)
        for pcol, prow in pivots:
            if pcol in row:
                coeff = row[pcol]
                for k, c in prow.items():
                    if k in row:
                        s = row[k] - coeff * c
                        if s:
                            row[k] = s
                        else:
                            del row[k]
                    else:
                        row[k] = -(coeff * c)
        if not row:
            continue
        pcol = min(row)
        inv = row[pcol]
        row = {k: c / inv for k, c in row.items()}
        for qcol, qrow in pivots:
            if pcol in qrow:
                coeff = qrow[pcol]
                for k, c in row.items():
                    if k in qrow:
                        s = qrow[k] - coeff * c
                        if s:
                            qrow[k] = s
                        else:
                            del qrow[k]
                    else:
                        qrow[k] = -(coeff * c)
        pivots.append((pcol, row))
    pivots.sort(key=lambda pc: pc[0])
    return [p for p, _ in pivots], [r for _, r in pivots]


def oracle_reduce(basis_rows, vec):
    out = dict(vec)
    for row in basis_rows:
        p = min(row)
        if p in out:
            coeff = out[p]
            for k, c in row.items():
                if k in out:
                    s = out[k] - coeff * c
                    if s:
                        out[k] = s
                    else:
                        del out[k]
                else:
                    out[k] = -(coeff * c)
    return out


def oracle_coords_of(basis_rows, vec):
    """Coordinates in the basis, or None when vec is not in the span."""
    residual = dict(vec)
    coords = {}
    for t, row in enumerate(basis_rows):
        p = min(row)
        if p in residual:
            coeff = residual[p]
            coords[t] = coeff
            for k, c in row.items():
                if k in residual:
                    s = residual[k] - coeff * c
                    if s:
                        residual[k] = s
                    else:
                        del residual[k]
                else:
                    residual[k] = -(coeff * c)
    return None if residual else coords


def oracle_project(ambient_dim, basis_rows, vec):
    pivot_set = {min(row) for row in basis_rows}
    free = [j for j in range(ambient_dim) if j not in pivot_set]
    reduced = oracle_reduce(basis_rows, vec)
    out = {t: reduced.pop(f) for t, f in enumerate(free) if f in reduced}
    assert not reduced
    return out


def combine(field, rows, coeffs):
    """sum coeffs[i] * rows[i], dropping cancelled entries."""
    out = {}
    for row, a in zip(rows, coeffs):
        for k, c in row.items():
            s = field.of(out.get(k, field.zero) + field.of(a) * c)
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


@st.composite
def sparse_rows(draw):
    """A field, an ambient dimension and a list of sparse rows.

    Besides random sparse rows the list holds zero rows, exact duplicates
    and combinations of earlier rows; combining rows whose supports
    overlap makes their reduction fill in columns neither row had alone.
    """
    name = draw(st.sampled_from(sorted(FIELDS)))
    field = FIELDS[name]
    n = draw(st.integers(1, 9))
    scalars = st.integers(-4, 4).map(field.of).filter(bool)
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["sparse", "sparse", "zero", "copy",
                                     "combination"]))
        if kind == "zero" or (kind != "sparse" and not rows):
            rows.append({})
        elif kind == "copy":
            rows.append(dict(draw(st.sampled_from(rows))))
        elif kind == "combination":
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows),
                                   max_size=len(rows)))
            rows.append(combine(field, rows, coeffs))
        else:
            rows.append(draw(st.dictionaries(st.integers(0, n - 1), scalars,
                                             max_size=n)))
    return field, n, rows


def vectors(field, n):
    scalars = st.integers(-4, 4).map(field.of).filter(bool)
    return st.dictionaries(st.integers(0, n - 1), scalars, max_size=n)


ORACLE_SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)

FILL_IN = (QQ, 4, [{0: Fraction(1), 3: Fraction(1)},
                   {1: Fraction(1), 2: Fraction(1)},
                   {0: Fraction(1), 1: Fraction(2)},
                   {2: Fraction(1), 3: Fraction(-1)}])


@ORACLE_SETTINGS
@given(sparse_rows())
@example(FILL_IN)
def test_rref_matches_oracle(case):
    field, n, rows = case
    pivots, reduced = rref(rows, field.characteristic)
    want_pivots, want_rows = oracle_rref(exact_copies(field, rows))
    assert pivots == want_pivots
    assert reduced == plain(want_rows)
    for p, row in zip(pivots, reduced):
        assert_exact_scalars(field, row)
        assert min(row) == p and row[p] == field.one
        assert not any(q in row for q in pivots if q != p)
    if field is QQ:
        dense = [[row.get(j, 0) for j in range(n)] for row in rows]
        assert len(pivots) == sympy.Matrix(len(rows), n,
                                           [x for r in dense for x in r]
                                           ).rank()


@st.composite
def subspace_cases(draw):
    """sparse_rows, a vector to reduce and coefficients of a member."""
    field, n, rows = draw(sparse_rows())
    vec = draw(vectors(field, n))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                           max_size=len(rows)))
    return field, n, rows, vec, coeffs


F7 = FIELDS["F7"]

# unit RREF rows {p: 1} (pivots 0 and 2) beside multi-entry rows, and a
# vector with weight on every pivot and off the span
MIXED_UNIT_ROWS = (
    F7, 5,
    [{0: F7.of(3)}, {1: F7.of(2), 3: F7.of(5)}, {2: F7.one},
     {1: F7.one, 4: F7.of(3)}],
    {0: F7.of(3), 1: F7.of(4), 2: F7.of(6), 3: F7.one, 4: F7.of(2)},
    [1, -2, 3, 1])


@ORACLE_SETTINGS
@given(subspace_cases())
@example(MIXED_UNIT_ROWS)
@example((QQ, 4, [{3: 2}, {0: 1, 2: -1}, {1: 5}], {0: 2, 1: 3, 3: 1},
          [1, 1, -1]))
def test_subspace_operations_match_oracle(case):
    assert_subspace_matches_oracle(*case)


def assert_subspace_matches_oracle(field, n, rows, vec, coeffs):
    """reduce, contains and project on the span of rows, for vec and for
    the member sum coeffs[i] * rows[i], and coords_of for each of them
    that is a member, against the oracles."""
    sub = Subspace.from_vectors(field, n, rows)
    _, basis_rows = oracle_rref(exact_copies(field, rows))
    assert sub.rows == plain(basis_rows)
    quotient = quotient_space(n, sub)
    assert sub.dim + quotient.dim == n

    exact_vec = exact_copy(field, vec)
    reduced = sub.reduce(vec)
    assert_exact_scalars(field, reduced)
    assert reduced == plain(oracle_reduce(basis_rows, exact_vec))
    assert sub.contains(vec) == (not oracle_reduce(basis_rows, exact_vec))
    projected = quotient.project(vec)
    assert_exact_scalars(field, projected)
    assert projected == plain(oracle_project(n, basis_rows, exact_vec))
    want = plain(oracle_coords_of(basis_rows, exact_vec))
    if want is not None:
        coords = sub.coords_of(vec)
        assert_exact_scalars(field, coords)
        assert coords == want

    member = combine(field, rows, coeffs)
    assert sub.reduce(member) == {}
    coords = sub.coords_of(member)
    assert_exact_scalars(field, coords)
    assert coords == plain(oracle_coords_of(basis_rows,
                                            exact_copy(field, member)))
    assert quotient.project(member) == {}


@st.composite
def coordinate_cases(draw):
    """subspace_cases whose rows are single entries {k: c}, c = ±1 or ±2,
    in columns repeated often enough that most rows duplicate an earlier
    one up to a multiple, so `rref` meets stored unit rows."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    n = draw(st.integers(1, 9))
    multiples = st.sampled_from([1, -1, 2, -2]).map(field.of).filter(bool)
    single = st.builds(lambda k, c: {k: c}, st.integers(0, n - 1), multiples)
    rows = draw(st.lists(single, max_size=12))
    if rows:
        rows += [dict(row) for row in draw(st.lists(st.sampled_from(rows),
                                                      max_size=6))]
    rows = draw(st.permutations(rows))
    vec = draw(vectors(field, n))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows),
                           max_size=len(rows)))
    return field, n, rows, vec, coeffs


F3 = FIELDS["F3"]


@ORACLE_SETTINGS
@given(coordinate_cases())
# a unit row {1: 1} arriving after the non-unit row {0: 1, 1: 1} that
# holds its column, then multiples of both, now stored unit rows
@example((QQ, 3, [{0: 1, 1: 1}, {1: 1}, {0: 2}, {1: -1}], {0: 1, 1: 2, 2: 3},
          [1, 2, -1, 1]))
# {0: 3} against the stored pivot row {0: 1, 2: 1}, which is not a unit
# row, so it must be eliminated and leaves the pivot {2: 1}
@example((F7, 3, [{0: F7.one, 2: F7.one}, {0: F7.of(3)}],
          {0: F7.of(3), 1: F7.one}, [2, 1]))
# duplicate rows {k: -1} over F_3
@example((F3, 3, [{1: F3.of(-1)}, {1: F3.of(-1)}, {0: F3.of(-1)},
                  {1: F3.of(-1)}], {0: F3.one, 1: F3.of(2), 2: F3.one},
          [1, 1, 2, 0]))
def test_coordinate_subspaces_match_oracle(case):
    """Single-entry rows span a coordinate subspace: `rref` skips the rows
    a stored unit row already covers, and the subspace reduces, tests
    membership, reads coordinates and projects by deleting coordinates,
    all exactly as the oracles do."""
    field, n, rows, vec, coeffs = case
    before = [dict(row) for row in rows]
    pivots, reduced = rref(rows, field.characteristic)
    assert rows == before
    want_pivots, want_rows = oracle_rref(exact_copies(field, rows))
    assert (pivots, reduced) == (want_pivots, plain(want_rows))
    for row in reduced:
        assert_exact_scalars(field, row)
    sub = Subspace.from_vectors(field, n, rows)
    assert sub.is_coordinate == all(len(row) == 1 for row in reduced)
    if all(len(row) == 1 for row in rows):
        assert sub.is_coordinate
        assert reduced == [{p: field.one} for p in sorted({min(row)
                                                           for row in rows})]
    assert_subspace_matches_oracle(field, n, rows, vec, coeffs)


def free_column_walk_project(quotient, vec):
    """The projection as it walked every free column of the quotient."""
    reduced = quotient.denominator.reduce(vec)
    out = {}
    for t, f in enumerate(quotient.free_columns):
        if f in reduced:
            out[t] = reduced.pop(f)
    assert not reduced
    return out


@ORACLE_SETTINGS
@given(st.data())
def test_project_matches_free_column_walk(data):
    """Projection visits only the reduced vector's entries, yet returns
    the same coordinates in the same (increasing) order as the walk over
    every free column, so reports built from it stay byte-identical."""
    field, n, rows = data.draw(sparse_rows())
    quotient = quotient_space(n, Subspace.from_vectors(field, n, rows))
    vec = data.draw(vectors(field, n))
    got = quotient.project(vec)
    want = free_column_walk_project(quotient, vec)
    assert list(got.items()) == list(want.items())


@ORACLE_SETTINGS
@given(sparse_rows(), st.randoms(use_true_random=False))
@example(FILL_IN, random.Random(0))
def test_rref_output_does_not_depend_on_row_order(case, rng):
    """RREF is a function of the span, so any order of the same rows,
    shuffled or reversed, gives `==` pivots and rows."""
    field, _, rows = case
    p = field.characteristic
    want = rref(rows, p)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert rref(shuffled, p) == want
    assert rref(rows[::-1], p) == want


@ORACLE_SETTINGS
@given(sparse_rows())
@example(FILL_IN)
def test_mat_rank_reads_columns_and_matches_row_rank(case):
    """rank M = rank M^T: `mat_rank` eliminates the stored columns, and
    agrees with the RREF of the rows and, over Q, with sympy; it leaves
    the matrix's columns as they were."""
    field, n, rows = case
    m = SparseMatrix.from_row_list(field, rows, n)
    before = [dict(col) for col in m.columns]
    rank = mat_rank(m)
    assert m.columns == before
    assert [list(col) for col in m.columns] == [list(col) for col in before]
    assert rank == len(rref(m.row_dicts(), field.characteristic)[0])
    if field is QQ:
        dense = [[row.get(j, 0) for j in range(n)] for row in rows]
        assert rank == sympy.Matrix(len(rows), n,
                                    [x for r in dense for x in r]).rank()
