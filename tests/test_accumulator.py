"""The one sparse accumulator: `add_term`, `vec_add_into` and `expand`.

A sparse vector never stores a zero.  These three functions in
`exactlinalg` are the only code that adds into one, so they are the only
code that drops a cancelled entry.  Each is compared here with a dense
reference sum over Q, F_2, F_3 and F_7, reduced mod p at the end, and
must never leave a zero value in its dict.  F_7 is there for its
scalars other than 0 and ±1.
Two rows of the source-guard table (`test_source_guards`) keep every
other module of hclab from dropping cancelled entries by hand and from
reducing mod p: over F_p a scalar is an int in [0, p), reduced only
inside `exactlinalg`.
"""

import itertools

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hclab.exactlinalg import QQ, Field, add_term, expand, vec_add_into

FIELDS = {"Q": QQ, "F2": Field(2), "F3": Field(3), "F7": Field(7)}
N = 4   # few keys, so that terms collide and cancel often

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)


def scalars(field):
    """Small scalars, zero included."""
    return st.integers(-2, 2).map(field.of)


def sparse(field, n=N):
    return st.dictionaries(st.integers(0, n - 1),
                           scalars(field).filter(bool), max_size=n)


@st.composite
def field_and(draw, make):
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    return field, draw(make(field))


def dense_sum(field, start, terms):
    """start + sum of the (key, scalar) terms, reduced and with zeros
    dropped at the end only."""
    total = dict.fromkeys(range(N), field.zero)
    for k, c in itertools.chain(start.items(), terms):
        total[k] = total[k] + c
    total = {k: field.of(c) for k, c in total.items()}
    return {k: c for k, c in total.items() if c}


def assert_no_zero(vec):
    assert all(vec.values()), vec


@SETTINGS
@given(field_and(lambda field: st.tuples(
    sparse(field),
    st.lists(st.tuples(st.integers(0, N - 1), scalars(field)),
             max_size=12))))
@example((QQ, ({0: 1}, [(0, -1), (1, 0), (1, 2), (1, -2)])))
def test_add_term_matches_dense_sum(case):
    field, (start, terms) = case
    acc = dict(start)
    for k, c in terms:
        add_term(acc, k, c, field.characteristic)
        assert_no_zero(acc)
    assert acc == dense_sum(field, start, terms)


@SETTINGS
@given(field_and(lambda field: st.tuples(
    sparse(field), sparse(field), st.none() | scalars(field))))
@example((QQ, ({0: 1, 1: 2}, {0: -1, 1: 1}, None)))
@example((Field(3), ({0: Field(3).of(1)}, {0: Field(3).of(1)},
                     Field(3).of(2))))
def test_vec_add_into_matches_dense_sum(case):
    field, (start, vec, coeff) = case
    acc = dict(start)
    vec_add_into(acc, vec, coeff, field.characteristic)
    assert_no_zero(acc)
    scaled = [(k, c if coeff is None else coeff * c) for k, c in vec.items()]
    assert acc == dense_sum(field, start, scaled)


def slots(field):
    """A mix of basis indices and sparse vectors, the empty vector too."""
    return st.lists(st.integers(0, N - 1) | sparse(field), max_size=5)


@SETTINGS
@given(field_and(lambda field: st.tuples(scalars(field), slots(field))))
@example((QQ, (3, [1, {0: 1, 2: -1}, 2, 0, {1: 2}])))
@example((QQ, (0, [{0: 1}])))
def test_expand_matches_dense_product(case):
    field, (coef, pieces) = case
    got = expand(coef, pieces, field.characteristic)
    assert_no_zero(got)
    # every index tuple of the right shape, with coef times the product
    # of the slot coefficients; fixed indices contribute a factor 1
    want = {}
    for key in itertools.product(range(N), repeat=len(pieces)):
        c = coef
        for k, piece in zip(key, pieces):
            if isinstance(piece, int):
                c = c if k == piece else field.zero
            else:
                c = c * piece.get(k, field.zero)
        if field.of(c):
            want[key] = field.of(c)
    assert got == want
