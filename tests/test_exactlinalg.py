from fractions import Fraction
from random import Random

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hclab.exactlinalg import (
    DimensionCapExceeded,
    ExactLinalgError,
    DimensionMismatch,
    Field,
    NotWellDefined,
    QQ,
    SparseMatrix,
    Subspace,
    check_dimension_cap,
    exact_div,
    induced_map,
    kernel_basis,
    mat_rank,
    push_images,
    quotient_space,
    solve_linear,
    vec_add_into,
)


F2 = Field(2)


def apply(m, vec):
    """m times a sparse vector keyed by column index."""
    return push_images(m.columns, [vec], m.field.characteristic)[0]


def image_subspace(m):
    """Column space of m, as a canonical subspace of the target."""
    return Subspace.from_vectors(m.field, m.rows, m.columns)


def test_field_validation():
    with pytest.raises(Exception):
        Field(4)
    assert QQ.parse("-3/2") == Fraction(-3, 2)
    assert F2.parse("3") == F2.one
    assert QQ.sign(3) == -1


# Carmichael numbers, the least strong pseudoprimes to every prime base
# up to 23 and up to 37, and primes on both sides of 2^31 and 2^61
PRIMALITY_CASES = [561, 1105, 1729, 3825123056546413051,
                   318665857834031151167461, 2**31 - 1, 2**31 + 11,
                   2**61 - 1, 2**61 + 1]


def test_a_field_is_built_exactly_for_the_primes():
    """Field(n) decides primality by deterministic Miller-Rabin; it must
    agree with sympy on every n below 3000 and on the hard cases."""
    for n in [*range(1, 3000), *PRIMALITY_CASES]:
        try:
            Field(n)
            built = True
        except ExactLinalgError:
            built = False
        assert built == sympy.isprime(n), n


def test_fp_arithmetic():
    a = F2.of(1)
    assert F2.of(a + a) == F2.zero
    assert not F2.of(a + a)
    f5 = Field(5)
    x = f5.of(2)
    assert f5.of(exact_div(x, f5.of(3), 5) * f5.of(3)) == x


def test_rationals_are_ints_when_integral():
    for value in (3, Fraction(6, 3), QQ.parse("4/2"), QQ.parse("-5"),
                  QQ.of(Fraction(-8, 4))):
        assert type(QQ.of(value)) is int
    assert QQ.of(Fraction(6, 3)) == 2
    assert type(QQ.parse("-3/2")) is Fraction
    assert type(QQ.one) is int and type(QQ.zero) is int
    assert QQ.sign(0) == 1 and QQ.sign(5) == -1
    f3 = Field(3)
    assert f3.of(Fraction(1, 2)) == f3.of(2)
    assert type(f3.of(Fraction(1, 2))) is int


def test_field_constants_are_built_once():
    for field in (QQ, F2, Field(5)):
        assert field.one is field.one and field.zero is field.zero
        assert field.sign(2) is field.sign(4) is field.one
        assert field.sign(1) is field.sign(3) == field.of(-1)


RATIONALS = st.one_of(st.integers(-60, 60),
                      st.fractions(min_value=-20, max_value=20,
                                   max_denominator=12))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(RATIONALS, RATIONALS)
@example(7, 7)
@example(1, 3)
@example(-6, 3)
@example(0, -4)
@example(Fraction(3, 2), Fraction(3, 4))
@example(Fraction(4, 2), 2)
@example(2, Fraction(1, 3))
@example(5, 0)
@example(Fraction(1, 2), Fraction(0))
def test_exact_div_is_exact(a, b):
    if b == 0:
        with pytest.raises(ZeroDivisionError):
            exact_div(a, b)
        return
    q = exact_div(a, b)
    assert q == Fraction(a) / Fraction(b)
    assert type(q) in (int, Fraction), type(q)
    assert (type(q) is int) == (Fraction(q).denominator == 1)


def test_exact_div_mod_p():
    f5 = Field(5)
    q = exact_div(f5.of(2), f5.of(3), 5)
    assert type(q) is int and f5.of(q * f5.of(3)) == f5.of(2)
    with pytest.raises(ZeroDivisionError):
        exact_div(f5.one, f5.zero, 5)


def test_rank_identity():
    assert mat_rank(SparseMatrix.identity(QQ, 3)) == 3


def test_rank_zero_matrix():
    assert mat_rank(SparseMatrix.zero(QQ, 2, 5)) == 0


def test_rank_proportional_rows():
    m = SparseMatrix(QQ, 2, 2, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4})
    assert mat_rank(m) == 1


def test_kernel_identity():
    assert kernel_basis(SparseMatrix.identity(QQ, 2)).dim == 0


def test_kernel_zero():
    k = kernel_basis(SparseMatrix.zero(QQ, 2, 3))
    assert k.dim == 3


def test_kernel_single_relation_mod2():
    m = SparseMatrix(F2, 1, 2, {(0, 0): F2.one, (0, 1): F2.one})
    k = kernel_basis(m)
    assert k.dim == 1
    assert k.rows[0] == {0: F2.one, 1: F2.one}


def test_solve_identity():
    m = SparseMatrix.identity(QQ, 2)
    assert solve_linear(m, {0: Fraction(5), 1: Fraction(7)}) == {
        0: Fraction(5), 1: Fraction(7)}


def test_solve_inconsistent():
    m = SparseMatrix.zero(QQ, 1, 1)
    assert solve_linear(m, {0: Fraction(1)}) is None


def test_solve_exact_rational():
    m = SparseMatrix(QQ, 1, 1, {(0, 0): 2})
    assert solve_linear(m, {0: Fraction(1)}) == {0: Fraction(1, 2)}


def test_solve_underdetermined_canonical():
    # one equation, two unknowns: free variable pinned to zero
    m = SparseMatrix(QQ, 1, 2, {(0, 0): 1, (0, 1): 1})
    assert solve_linear(m, {0: Fraction(3)}) == {0: Fraction(3)}


def test_quotient_dims():
    e1 = Subspace.from_vectors(QQ, 3, [{0: Fraction(1)}])
    q = quotient_space(3, e1)
    assert q.dim == 2
    q_full = quotient_space(4, Subspace.from_vectors(QQ, 4, []))
    assert q_full.dim == 4
    everything = Subspace.from_vectors(
        QQ, 2, [{0: Fraction(1)}, {1: Fraction(1)}])
    assert quotient_space(2, everything).dim == 0
    with pytest.raises(DimensionMismatch):
        quotient_space(5, e1)


def test_quotient_projection_roundtrip():
    denom = Subspace.from_vectors(QQ, 3, [{0: Fraction(1), 1: Fraction(1)}])
    q = quotient_space(3, denom)
    v = {0: Fraction(2), 1: Fraction(5), 2: Fraction(-1)}
    coords = q.project(v)
    lifted = {q.free_columns[t]: c for t, c in coords.items()}
    # lifted and v differ by an element of the denominator
    diff = dict(v)
    vec_add_into(diff, lifted, QQ.sign(1))
    assert denom.contains(diff)


def test_induced_identity_on_equal_quotients():
    denom = Subspace.from_vectors(QQ, 3, [{1: Fraction(1)}])
    q = quotient_space(3, denom)
    f = SparseMatrix.identity(QQ, 3)
    ind = induced_map(f, q, q)
    assert ind == SparseMatrix.identity(QQ, 2)


def test_induced_zero_map():
    q1 = quotient_space(3, Subspace.from_vectors(QQ, 3, [{0: Fraction(1)}]))
    q2 = quotient_space(2, Subspace.from_vectors(QQ, 2, []))
    f = SparseMatrix.zero(QQ, 2, 3)
    ind = induced_map(f, q1, q2)
    assert ind.is_zero() and ind.rows == 2 and ind.cols == 2


def test_induced_not_well_defined():
    # f(e0)=e1 with e0 in the source denominator, e1 not in the target's
    src = quotient_space(2, Subspace.from_vectors(QQ, 2, [{0: Fraction(1)}]))
    dst = quotient_space(2, Subspace.from_vectors(QQ, 2, []))
    f = SparseMatrix(QQ, 2, 2, {(1, 0): 1})
    res = induced_map(f, src, dst)
    assert isinstance(res, NotWellDefined)
    assert res.basis_vector == {0: Fraction(1)}


def test_induced_commutes_with_projection():
    rng = Random(7)
    for _ in range(10):
        f = _random_matrix(QQ, rng, 4, 4, 6)
        denom_src = Subspace.from_vectors(
            QQ, 4, [_random_vector(QQ, rng, 4, 2)])
        # build a target denominator containing the image of the source one
        img_rows = [apply(f, r) for r in denom_src.rows]
        denom_dst = Subspace.from_vectors(
            QQ, 4, img_rows + [_random_vector(QQ, rng, 4, 2)])
        src = quotient_space(4, denom_src)
        dst = quotient_space(4, denom_dst)
        ind = induced_map(f, src, dst)
        assert not isinstance(ind, NotWellDefined)
        for j in range(4):
            v = {j: Fraction(1)}
            assert apply(ind, src.project(v)) == dst.project(apply(f, v))


def _random_vector(field, rng, n, nnz):
    v = {}
    for _ in range(nnz):
        v[rng.randrange(n)] = field.of(rng.randint(-3, 3))
    return {k: c for k, c in v.items() if c}


def _random_matrix(field, rng, rows, cols, nnz):
    entries = {}
    for _ in range(nnz):
        i, j = rng.randrange(rows), rng.randrange(cols)
        entries[(i, j)] = field.of(rng.randint(-4, 4))
    return SparseMatrix(field, rows, cols, entries)


@pytest.mark.parametrize("field", [QQ, F2, Field(5)])
def test_rank_nullity_randomized(field):
    rng = Random(2024)
    for _ in range(25):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        m = _random_matrix(field, rng, rows, cols, rng.randint(0, rows * cols))
        assert mat_rank(m) + kernel_basis(m).dim == cols


def test_quotient_dims_additive_randomized():
    rng = Random(5)
    for _ in range(15):
        n = rng.randint(1, 7)
        vecs = [_random_vector(QQ, rng, n, rng.randint(0, n))
                for _ in range(rng.randint(0, n))]
        denom = Subspace.from_vectors(QQ, n, vecs)
        assert denom.dim + quotient_space(n, denom).dim == n


def test_kernel_vectors_annihilated():
    rng = Random(11)
    for _ in range(10):
        m = _random_matrix(QQ, rng, 5, 6, 9)
        k = kernel_basis(m)
        for row in k.rows:
            assert apply(m, row) == {}


def test_image_subspace_matches_rank():
    rng = Random(13)
    for _ in range(10):
        m = _random_matrix(QQ, rng, 5, 5, 8)
        assert image_subspace(m).dim == mat_rank(m)


def test_determinism_bit_identical():
    def build():
        rng = Random(99)
        m = _random_matrix(QQ, rng, 6, 6, 12)
        k = kernel_basis(m)
        return repr([sorted(col.items()) for col in m.columns]) + repr(
            sorted((i, sorted(r.items())) for i, r in
                   enumerate(k.rows)))
    assert build() == build()


def test_dimension_cap():
    check_dimension_cap(10, cap=100)
    with pytest.raises(DimensionCapExceeded):
        check_dimension_cap(10 ** 6)
