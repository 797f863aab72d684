"""Kernels in their free-column basis, and the one `Subspace` contract.

`kernel_basis` eliminates M once: free column f of RREF(M) gives the
kernel vector v_f = e_f - sum row[f] e_pivot, which is 1 at f and 0 at
every other free column, so the v_f with the free columns as pivots meet
the contract `Subspace` states (row t is 1 at pivots[t] and 0 at every
other pivot), although a pivot is not the least column of its row.  The
kernel used to be those v_f eliminated once more into RREF; the
reference below is that kernel, and the two must span the same space and
give the same page dimensions and the same rank of every operator
induced on row homology.  `coords_of`, `reduce`, `contains` and the
quotient projections read the contract and nothing else, so they are
checked on bases that meet it and are not RREF.

`coords_of` reads a member's coordinates at the pivots and tests nothing;
`spectral._map_rows` certifies membership in the kernel of a matrix M for
a whole list of images at once, by M times each image, before it reads
them.  A row of the source-guard table (`test_source_guards`) keeps
every coordinate read behind that product.
"""

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hclab.spectral
from hclab.cli import build_objects, parse_scenario
from hclab.exactlinalg import (
    Field,
    QQ,
    SparseMatrix,
    Subspace,
    kernel_basis,
    mat_rank,
    push_images,
    quotient_space,
    rref,
)
from hclab.spectral import (
    RowComplexes,
    SpectralError,
    _map_rows,
    collapse_check,
    compute_E1,
    compute_E2,
)

FIELDS = {"Q": QQ, "F2": Field(2), "F5": Field(5)}
SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)
ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def rref_kernel(m):
    """The kernel as an RREF basis: the free-column vectors eliminated a
    second time, as `kernel_basis` once returned it."""
    p = m.field.characteristic
    pivots, rows = rref(m.row_dicts(), p)
    free_cols = [j for j in range(m.cols) if j not in set(pivots)]
    vectors = []
    for f in free_cols:
        v = {f: m.field.one}
        for pivot, row in zip(pivots, rows):
            if f in row:
                v[pivot] = -row[f] % p if p else -row[f]
        vectors.append(v)
    return Subspace.from_vectors(m.field, m.cols, vectors)


def combine(field, rows, coeffs):
    """sum coeffs[t] * rows[t], with no stored zero."""
    out = {}
    for row, a in zip(rows, coeffs):
        for k, c in row.items():
            out[k] = field.of(out.get(k, field.zero) + a * c)
    return {k: c for k, c in out.items() if c}


def scalars(field):
    return st.integers(-4, 4).map(field.of).filter(bool)


@st.composite
def matrices(draw):
    """A sparse matrix over Q, F_2 or F_5, some of whose rows repeat or
    combine earlier ones, so that its rank falls short of its rows."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    cols = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(rows),
                                   max_size=len(rows)))
            rows.append(combine(field, rows, coeffs))
        else:
            rows.append(draw(st.dictionaries(st.integers(0, cols - 1),
                                             scalars(field), max_size=cols)))
    return SparseMatrix.from_row_list(field, rows, cols)


@SETTINGS
@given(matrices())
@example(SparseMatrix(QQ, 2, 4, {(0, 0): 1, (0, 1): 2, (0, 3): 3,
                                 (1, 2): 1, (1, 3): 4}))
@example(SparseMatrix.zero(Field(5), 0, 3))
def test_the_kernel_is_the_free_column_basis_of_one_elimination(m):
    ker = kernel_basis(m)
    pivots, _ = rref(m.row_dicts(), m.field.characteristic)
    assert ker.pivots == [j for j in range(m.cols) if j not in pivots]
    assert ker.dim == m.cols - mat_rank(m)
    for pivot, row in zip(ker.pivots, ker.rows):
        assert row[pivot] == m.field.one
        assert not any(q in row for q in ker.pivots if q != pivot)
        assert all(row.values())
    assert all(not image for image in push_images(
        m.columns, ker.rows, m.field.characteristic))
    again = Subspace.from_vectors(m.field, m.cols, ker.rows)
    old = rref_kernel(m)
    assert (again.pivots, again.rows) == (old.pivots, old.rows)


@st.composite
def contract_bases(draw):
    """A basis meeting the contract, usually not RREF: each row is 1 at
    its pivot and carries entries on non-pivot columns on both sides of
    it, in any key order.  Also coefficients of a member, and a vector
    on the non-pivot columns."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    n = draw(st.integers(1, 8))
    pivots = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    free = [j for j in range(n) if j not in pivots]
    rows = []
    for pivot in pivots:
        entries = draw(st.dictionaries(st.sampled_from(free), scalars(field),
                                       max_size=len(free))) if free else {}
        items = [(pivot, field.one), *entries.items()]
        rows.append(dict(draw(st.permutations(items))))
    coeffs = [field.of(c) for c in draw(st.lists(
        st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))]
    off = draw(st.dictionaries(st.sampled_from(free), scalars(field),
                               min_size=1, max_size=len(free))) if free else {}
    return field, n, pivots, rows, coeffs, off


# row 1 has its pivot 2 after an entry at column 0, and row 0 reaches
# past it to column 3: neither is an RREF row
NOT_RREF = (QQ, 4, [1, 2], [{1: 1, 3: 5}, {0: -2, 2: 1, 3: 1}],
            [3, -1], {0: 7})


@SETTINGS
@given(contract_bases())
@example(NOT_RREF)
def test_subspace_operations_read_the_contract_alone(case):
    field, n, pivots, rows, coeffs, off = case
    p = field.characteristic
    sub = Subspace(field, n, pivots, rows)
    member = combine(field, rows, coeffs)
    assert sub.coords_of(member) == {t: c for t, c in enumerate(coeffs)
                                     if c}
    assert sub.reduce(member) == {}
    assert sub.contains(member)

    quotient = quotient_space(n, sub)
    assert quotient.free_columns == [j for j in range(n) if j not in pivots]
    position = {j: t for t, j in enumerate(quotient.free_columns)}
    assert quotient.project(member) == {}
    assert push_images(quotient.projector(), [member], p) == [{}]
    if not off:
        return
    # the non-pivot entries are the class of the vector off the span
    stray = combine(field, [member, off], [1, 1])
    assert sub.reduce(stray) == off
    assert not sub.contains(stray)
    want = {position[j]: c for j, c in off.items()}
    assert quotient.project(stray) == want
    assert push_images(quotient.projector(), [stray], p) == [want]


@st.composite
def images_in_kernels(draw):
    """A matrix M, its kernel, and a list of images: each a combination of
    the kernel rows with its coefficients, or that plus a random vector,
    which usually leaves the kernel (coefficients None)."""
    m = draw(matrices())
    field, ker = m.field, kernel_basis(m)
    images, coefficients = [], []
    for _ in range(draw(st.integers(0, 4))):
        coeffs = [field.of(c) for c in draw(st.lists(
            st.integers(-3, 3), min_size=ker.dim, max_size=ker.dim))]
        image = combine(field, ker.rows, coeffs)
        if draw(st.booleans()):
            off = draw(st.dictionaries(st.integers(0, m.cols - 1),
                                       scalars(field), max_size=m.cols))
            image, coeffs = combine(field, [image, off], [1, 1]), None
        images.append(image)
        coefficients.append(coeffs)
    return m, ker, images, coefficients


def _example_images():
    """[[1, 2, 0, 3], [0, 0, 1, 4]]: 2 v_1 + v_3, then e_0, which is
    not in the kernel."""
    m = SparseMatrix(QQ, 2, 4, {(0, 0): 1, (0, 1): 2, (0, 3): 3,
                                (1, 2): 1, (1, 3): 4})
    ker = kernel_basis(m)
    member = combine(QQ, ker.rows, [2, 1])
    return m, ker, [member, {0: 1}], [[2, 1], None]


@SETTINGS
@given(images_in_kernels())
@example(_example_images())
def test_map_rows_certifies_the_whole_list_and_reads_the_pivots(case):
    m, ker, images, coefficients = case
    field = m.field
    if any(ker.reduce(image) for image in images):
        with pytest.raises(SpectralError, match="^leaves the kernel$"):
            _map_rows(images, m, ker, "leaves the kernel")
        return
    out = _map_rows(images, m, ker, "leaves the kernel")
    assert (out.rows, out.cols) == (ker.dim, len(images))
    for column, image, coeffs in zip(out.columns, images, coefficients):
        assert all(column.values())
        assert combine(field, ker.rows, [column.get(t, field.zero)
                                         for t in range(ker.dim)]) == image
        if coeffs is not None:
            assert column == {t: c for t, c in enumerate(coeffs) if c}


Q_S3 = (SCENARIOS / "s1.scn").read_text().replace("group = C2",
                                                  "group = S3")

# M_3(Q): the functions on C3 with C3 acting by translation, trivial
# cocycle; its action and twisted rows are not trivial
M3_Q = """\
field = Q
[hopf]
kind = group
group = C3
[algebra]
kind = functions C3
[action]
kind = permutation
perm = 0 : 0 1 2
perm = 1 : 1 2 0
perm = 2 : 2 0 1
[cocycle]
kind = trivial
[compute]
max_degree = 2
max_p = 2
max_q = 2
"""


def pages(built, monkeypatch):
    """E1, E2 and the collapse dims at (2, 2), with the rank of every
    operator induced on row homology, keyed by name and bidegree."""
    ranks = {}
    induced = RowComplexes.induced_on_homology

    def ranked(rows, name, p, q, tq):
        out = induced(rows, name, p, q, tq)
        ranks[(name, p, q, tq)] = mat_rank(out)
        return out

    with monkeypatch.context() as patch:
        patch.setattr(RowComplexes, "induced_on_homology", ranked)
        e1, rows = compute_E1(built.cylinder, 2, 2)
        e2 = compute_E2(e1, rows)
    try:
        collapse = collapse_check(built.cylinder, built.direct_hc)
        via = collapse.via_invariants, collapse.direct
    except SpectralError as exc:      # not semisimple
        via = str(exc)
    return e1.entries, e2.entries, via, ranks


@pytest.mark.parametrize("text", [
    *((SCENARIOS / f"s{i}.scn").read_text() for i in range(1, 6)), Q_S3,
    M3_Q], ids=["s1", "s2", "s3", "s4", "s5", "Q[S3]", "M_3(Q)"])
def test_pages_agree_with_the_rref_kernel(text, monkeypatch):
    scenario = parse_scenario(text)
    new = pages(build_objects(scenario), monkeypatch)
    monkeypatch.setattr(hclab.spectral, "kernel_basis", rref_kernel)
    old = pages(build_objects(scenario), monkeypatch)
    assert new == old
    assert new[3]        # the induced operators ran
