"""An oracle of F_p scalars: plain ints against a scalar class.

Over F_p hclab keeps a scalar as an `int` in [0, p) and reduces mod p
inside the exact kernels.  `FpScalar` below is the scalar class hclab
used before, an object whose operators reduce their result; it is kept
here as the reference.  `Field.of`, `parse`, `sign`, exact division,
`add_term`, `vec_add_into`, `expand`, `rref` and `mat_rank` are compared
with the same operation done in `FpScalar`s, for p = 2, 3, 5, 7 and the
Mersenne prime 2^31 - 1, on inputs that are unreduced ints where the
kernels accept any int.  Every scalar that comes out must be an `int`
in [0, p), and every one stored in a sparse vector must be nonzero.
The sums that `Cocycle.of`, `HopfAlgebra.counit_of` and `convolve` fold
outside the kernels must come back reduced too.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hclab.algebra import FiniteGroup
from hclab.crossed import Cocycle, convolve
from hclab.exactlinalg import (
    ExactLinalgError, Field, SparseMatrix, add_term, exact_div, expand,
    mat_rank, rref, vec_add_into,
)
from hclab.hopf import group_hopf

PRIMES = (2, 3, 5, 7, 2**31 - 1)
N = 5   # few keys, so that terms collide and cancel often

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)


class FpScalar:
    """An element of F_p, with field arithmetic through operators."""

    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def __add__(self, other):
        return FpScalar(self.p, self.v + other.v)

    def __sub__(self, other):
        return FpScalar(self.p, self.v - other.v)

    def __mul__(self, other):
        if self.v == 1:
            return other
        if other.v == 1:
            return self
        return FpScalar(self.p, self.v * other.v)

    def __neg__(self):
        if self.p == 2:
            return self
        return FpScalar(self.p, -self.v)

    def __truediv__(self, other):
        if other.v == 0:
            raise ZeroDivisionError("division by zero in F_p")
        return FpScalar(self.p, self.v * pow(other.v, -1, self.p))

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        return (isinstance(other, FpScalar) and self.p == other.p
                and self.v == other.v)

    def __hash__(self):
        return hash((self.p, self.v))

    def __repr__(self):
        return f"{self.v}"


def ref(p, n):
    """n, an int or a Fraction, as a reference scalar."""
    n = Fraction(n)
    return FpScalar(p, n.numerator) / FpScalar(p, n.denominator)


def residues(vec):
    """A vector of reference scalars as hclab stores it."""
    return {k: c.v for k, c in vec.items()}


def assert_stored(p, vec):
    for c in vec.values():
        assert type(c) is int and 0 < c < p, (p, vec)


@st.composite
def prime_and(draw, make):
    p = draw(st.sampled_from(PRIMES))
    return p, draw(make(p))


def ints(p):
    """Any int, unreduced: 0, 1, p - 1, -1, p, p + 1 or up to 3p away."""
    return (st.sampled_from([0, 1, p - 1, -1, p, p + 1])
            | st.integers(-3 * p, 3 * p))


def vectors(p):
    """Sparse vectors as hclab stores them: residues in [1, p)."""
    return st.dictionaries(st.integers(0, N - 1),
                           ints(p).map(lambda c: c % p).filter(bool),
                           max_size=N)


# -- the field ---------------------------------------------------------------


@SETTINGS
@given(prime_and(lambda p: st.tuples(ints(p), ints(p))))
@example((2, (3, 1)))
@example((2**31 - 1, (2**31 - 2, -(2**31))))
def test_of_parse_sign_and_division_match_the_reference(case):
    p, (a, b) = case
    field = Field(p)
    for n in (a, Fraction(a, b) if b % p else a):
        got = field.of(n)
        assert type(got) is int and 0 <= got < p
        assert got == ref(p, n).v
        assert field.parse(str(n)) == got
    assert field.sign(a) == ref(p, (-1) ** (a % 2)).v
    if b % p:
        q = exact_div(a, b, p)
        assert type(q) is int and q == (ref(p, a) / ref(p, b)).v
    else:
        with pytest.raises(ZeroDivisionError):
            exact_div(a, b, p)
        if b and Fraction(a, b).denominator % p == 0:
            with pytest.raises(ExactLinalgError):
                field.of(Fraction(a, b))


@SETTINGS
@given(prime_and(lambda p: st.tuples(ints(p), ints(p))))
@example((2, (1, 1)))
@example((7, (1, 6)))
def test_operators_match_ints_mod_p(case):
    """Sums, differences, products and negatives folded on ints and then
    reduced through `Field.of` are the reference operators' results."""
    p, (a, b) = case
    field, x, y = Field(p), FpScalar(p, a), FpScalar(p, b)
    a, b = field.of(a), field.of(b)
    for got, want in ((a + b, x + y), (a - b, x - y), (a * b, x * y),
                      (-a, -x)):
        assert field.of(got) == want.v
    assert bool(field.of(a * b)) == bool(a * b) == bool(x * y)


@pytest.mark.parametrize("p", PRIMES)
def test_constants_are_reduced_ints(p):
    field = Field(p)
    assert (field.zero, field.one, field.sign(1)) == (0, 1, p - 1)
    assert all(type(c) is int for c in (field.zero, field.one, field.sign(1)))


@pytest.mark.parametrize("p", PRIMES)
def test_a_factor_one_returns_the_other_factor(p):
    """A coefficient one adds the vector itself."""
    field = Field(p)
    for coeff in (field.one, p + 1, 1 - p):
        acc, plain = {0: 1}, {0: 1}
        vec_add_into(acc, {0: p - 1, 1: 1}, coeff, p)
        vec_add_into(plain, {0: p - 1, 1: 1}, None, p)
        assert acc == plain == {1: 1}


def test_f2_negation_returns_its_operand():
    field = Field(2)
    assert field.sign(1) is field.one
    for x in (field.zero, field.one):
        assert field.of(-x) == x


# -- the kernels -------------------------------------------------------------


@SETTINGS
@given(prime_and(lambda p: st.tuples(
    vectors(p), st.lists(st.tuples(st.integers(0, N - 1), ints(p)),
                         max_size=12))))
def test_add_term_matches_the_reference(case):
    p, (start, terms) = case
    acc, want = dict(start), {k: FpScalar(p, c) for k, c in start.items()}
    for k, c in terms:
        add_term(acc, k, c, p)
        s = want.get(k, FpScalar(p, 0)) + FpScalar(p, c)
        want[k] = s
        want = {k: c for k, c in want.items() if c}
        assert_stored(p, acc)
        assert acc == residues(want)


@SETTINGS
@given(prime_and(lambda p: st.tuples(vectors(p), vectors(p),
                                     st.none() | ints(p))))
@example((5, ({0: 4, 1: 3}, {0: 4, 1: 2}, 3)))
@example((3, ({0: 1}, {0: 2}, None)))
def test_vec_add_into_matches_the_reference(case):
    p, (start, vec, coeff) = case
    acc = dict(start)
    vec_add_into(acc, vec, coeff, p)
    assert_stored(p, acc)
    want = {k: FpScalar(p, c) for k, c in start.items()}
    scale = FpScalar(p, 1 if coeff is None else coeff)
    for k, c in vec.items():
        want[k] = want.get(k, FpScalar(p, 0)) + scale * FpScalar(p, c)
    assert acc == residues({k: c for k, c in want.items() if c})


@SETTINGS
@given(prime_and(lambda p: st.tuples(
    ints(p), st.lists(st.integers(0, N - 1) | vectors(p), max_size=4))))
@example((7, (10, [1, {0: 3, 2: 5}, {1: 6}])))
def test_expand_matches_the_reference(case):
    p, (coef, slots) = case
    got = expand(coef, slots, p)
    assert_stored(p, got)
    want = {(): FpScalar(p, coef)}
    for slot in slots:
        slot = {slot: 1} if isinstance(slot, int) else slot
        want = {t + (b,): c * FpScalar(p, cb)
                for t, c in want.items() for b, cb in slot.items()}
    assert got == residues({t: c for t, c in want.items() if c})


def reference_rref(p, rows):
    """Gauss-Jordan on reference scalars: (pivots, rows), by pivot."""
    done = []
    for row in rows:
        row = {k: FpScalar(p, c) for k, c in row.items()}
        for pivot, prow in done:
            if pivot in row:
                coeff = row[pivot]
                for k, c in prow.items():
                    row[k] = row.get(k, FpScalar(p, 0)) - coeff * c
                row = {k: c for k, c in row.items() if c}
        if not row:
            continue
        pivot = min(row)
        inv = row[pivot]
        row = {k: c / inv for k, c in row.items()}
        for i, (q, qrow) in enumerate(done):
            if pivot in qrow:
                coeff = qrow[pivot]
                for k, c in row.items():
                    qrow[k] = qrow.get(k, FpScalar(p, 0)) - coeff * c
                done[i] = q, {k: c for k, c in qrow.items() if c}
        done.append((pivot, row))
    done.sort(key=lambda pr: pr[0])
    return [q for q, _ in done], [residues(r) for _, r in done]


@SETTINGS
@given(prime_and(lambda p: st.lists(vectors(p), max_size=7)))
@example((7, [{0: 3, 1: 5}, {0: 6, 1: 3}, {1: 4, 2: 1}]))
@example((2**31 - 1, [{0: 2, 3: 2**31 - 2}, {0: 1, 1: 5}, {3: 7}]))
def test_rref_and_mat_rank_match_the_reference(case):
    p, rows = case
    pivots, reduced = rref(rows, p)
    assert (pivots, reduced) == reference_rref(p, rows)
    for row in reduced:
        assert_stored(p, row)
    m = SparseMatrix.from_row_list(Field(p), rows, N)
    assert mat_rank(m) == len(pivots)


# -- folds outside the kernels ----------------------------------------------


def test_folds_outside_the_kernels_come_back_reduced():
    """`Cocycle.of`, `HopfAlgebra.counit_of` and `convolve` sum products
    themselves, then reduce through `Field.of`: on vectors with several
    entries over F_5 their sums pass 5, yet each result is the
    reference's residue."""
    p = 5
    hopf = group_hopf(Field(p), FiniteGroup.named("C2xC2"))
    values = [[(i + 2 * j) % 4 + 1 for j in range(4)] for i in range(4)]
    cocycle = Cocycle(hopf, values, values)
    u, v = {0: 4, 1: 3, 2: 2}, {0: 4, 3: 4}
    want = FpScalar(p, 0)
    for i, ci in u.items():
        for j, cj in v.items():
            want = want + FpScalar(p, ci) * FpScalar(p, cj) * FpScalar(
                p, values[i][j])
    assert cocycle.of(u, v) == want.v
    assert hopf.counit_of(u) == (FpScalar(p, 4) + FpScalar(p, 3)
                                 + FpScalar(p, 2)).v
    for row in convolve(hopf, values, values):
        assert all(type(c) is int and 0 <= c < p for c in row)
    # group-like h and l: (f * g)(h, l) = f(h, l) g(h, l)
    assert convolve(hopf, values, values)[1][2] == (
        FpScalar(p, values[1][2]) * FpScalar(p, values[1][2])).v
