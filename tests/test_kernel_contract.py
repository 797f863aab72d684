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
"""

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hclab.spectral
from hclab.cli import build_objects, parse_scenario
from hclab.exactlinalg import (
    Field,
    NotInSubspace,
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
    collapse_check,
    compute_E1,
    compute_E2,
)

FIELDS = {"Q": QQ, "F2": Field(2), "F5": Field(5)}
SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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
@example(SparseMatrix.from_dense(QQ, [[1, 2, 0, 3], [0, 0, 1, 4]]))
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
    with pytest.raises(NotInSubspace):
        sub.coords_of(stray)
    want = {position[j]: c for j, c in off.items()}
    assert quotient.project(stray) == want
    assert push_images(quotient.projector(), [stray], p) == [want]


Q_S3 = (SCENARIOS / "s1.scn").read_text().replace("group = C2",
                                                  "group = S3")


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
    *((SCENARIOS / f"s{i}.scn").read_text() for i in range(1, 6)), Q_S3],
    ids=["s1", "s2", "s3", "s4", "s5", "Q[S3]"])
def test_pages_agree_with_the_rref_kernel(text, monkeypatch):
    scenario = parse_scenario(text)
    new = pages(build_objects(scenario), monkeypatch)
    monkeypatch.setattr(hclab.spectral, "kernel_basis", rref_kernel)
    old = pages(build_objects(scenario), monkeypatch)
    assert new == old
    assert new[3]        # the induced operators ran
