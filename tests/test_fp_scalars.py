"""`FpScalar` arithmetic against plain ints mod p.

Every operator of an F_p scalar is compared with the same operation on
its residue, for p = 2, 3, 7 and the Mersenne prime 2^31 - 1, with 0
and 1 among the operands.  Scalars are never mutated, so an
operation whose answer is one of its operands returns that operand
itself; the last tests pin that, since over F_2 it is what keeps the
kernels from allocating a scalar per product.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hclab.exactlinalg import Field, FpScalar

PRIMES = (2, 3, 7, 2**31 - 1)

SETTINGS = settings(derandomize=True, max_examples=300, deadline=None)


@st.composite
def residue_pairs(draw):
    """A prime and two ints, each 0, 1, p - 1 or any int."""
    p = draw(st.sampled_from(PRIMES))
    ints = (st.sampled_from([0, 1, p - 1, -1, p, p + 1])
            | st.integers(-2 * p, 2 * p))
    return p, draw(ints), draw(ints)


@SETTINGS
@given(residue_pairs())
@example((2, 1, 1))
@example((3, 0, 1))
@example((7, 1, 6))
@example((2**31 - 1, 2**31 - 2, 2**31 - 2))
def test_operators_match_ints_mod_p(case):
    p, a, b = case
    x, y = FpScalar(p, a), FpScalar(p, b)
    for got, want in ((x + y, a + b), (x - y, a - b), (x * y, a * b),
                      (-x, -a)):
        assert type(got) is FpScalar and got.p == p
        assert got.v == want % p
    assert (x == y) == ((a - b) % p == 0)
    if x == y:
        assert hash(x) == hash(y)
    assert bool(x) == (a % p != 0)
    if b % p:
        q = x / y
        assert type(q) is FpScalar and q.p == p
        assert (q.v * b - a) % p == 0
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


def test_a_scalar_equals_no_int_and_no_scalar_of_another_prime():
    assert FpScalar(3, 1) != 1
    assert FpScalar(3, 1) != FpScalar(5, 1)


@pytest.mark.parametrize("p", PRIMES)
def test_a_factor_one_returns_the_other_factor(p):
    field = Field(p)
    for x in (field.zero, field.one, field.of(p - 1), field.of(5)):
        if x == field.one and x is not field.one:
            continue   # one * x is then field.one, not x
        assert x * field.one is x
        assert field.one * x is x


def test_f2_negation_returns_its_operand():
    field = Field(2)
    assert field.sign(1) is field.one
    for x in (field.zero, field.one):
        assert -x is x
