"""The whole-list column kernels against walks one image at a time.

`exactlinalg.push_images` pushes a whole list of images through a column
in one call.  The reference below is how the evaluator pushed them
before: one image at a time, an index reading its column entry, a zero
kept as it is, and a sparse vector summed term by term with `add_term`
and `vec_add_into`.  Both must agree over Q and over F_p for p in
{2, 3, 5, 7, 2^31 - 1}, on columns of indices, zeros and sparse vectors
and on images of all three kinds whose terms cancel, with image
coefficients mod p that are not reduced.  The kernel must store no zero,
keep every F_p scalar in [1, p), return a zero image as the very object
it got and a sparse one as a fresh dict, and leave its inputs unchanged.

At stride 1, `cycliccore.merge_column` and `insert_column` fill their
column with one comprehension; the reference is the walk through
`slot_images` they share with every other stride.
"""

import copy
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hclab.cycliccore import ZERO, insert_column, merge_column, slot_images
from hclab.exactlinalg import add_term, push_images, vec_add_into

PRIMES = (2, 3, 5, 7, 2 ** 31 - 1)
N, M = 5, 4   # column length and target dimension: few keys, many clashes

SETTINGS = settings(derandomize=True, max_examples=400, deadline=None)


def reference_push(column, images, p):
    """The images pushed one at a time, one term at a time."""
    out = []
    for v in images:
        if type(v) is int:
            out.append(column[v])
        elif not v:
            out.append(v)
        else:
            acc = {}
            for k, c in v.items():
                image = column[k]
                if type(image) is int:
                    add_term(acc, image, c, p)
                else:
                    vec_add_into(acc, image, c, p)
            out.append(acc)
    return out


def stored_scalars(p):
    """Nonzero scalars as a column stores them: reduced mod p."""
    if p:
        return st.sampled_from(sorted({1, 2 % p or 1, p - 1, (p + 1) // 2}))
    return st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-2, 3)])


def loose_scalars(p):
    """Nonzero coefficients of an image: mod p any int, multiples of p
    and negatives included."""
    if p:
        return st.integers(-2 * p - 1, 2 * p + 1).filter(bool) | \
            st.sampled_from([p, -p, p + 1, 2 * p - 1, 3 * p ** 2 + 1])
    return stored_scalars(0)


def image(keys, scalars):
    return (st.integers(0, keys - 1) | st.just(ZERO)
            | st.dictionaries(st.integers(0, keys - 1), scalars,
                              min_size=1, max_size=keys))


@st.composite
def pushes(draw):
    p = draw(st.sampled_from((0,) + PRIMES))
    column = draw(st.lists(image(M, stored_scalars(p)), min_size=N,
                           max_size=N))
    images = draw(st.lists(image(N, loose_scalars(p)), max_size=8))
    return p, column, images


@SETTINGS
@given(pushes())
# terms that cancel to zero through an index column and a vector column
@example((0, [0, 0, {1: 1, 2: -1}, {1: -1, 2: 1}, ZERO],
          [{0: 1, 1: -1}, {2: 1, 3: 1}, ZERO, 4, {4: 2}]))
@example((2, [0, 0, {1: 1}, {1: 1}, ZERO], [{0: 1, 1: 1}, {2: 3, 3: 5}]))
@example((7, [1, {1: 6}, 2, 3, 0], [{0: 8, 1: -6}, {2: 7}, {3: -1, 4: 1}]))
# a sum that cancels to 0 mod p and then gets a term again at the same key
@example((2, [0, {0: 1}, 0, {0: 1, 1: 1}, ZERO],
          [{0: 1, 1: 1, 2: 1}, {1: 1, 3: 1, 0: 3}]))
@example((2 ** 31 - 1, [0, {0: 2 ** 31 - 2}, 0, {0: 1, 1: 2 ** 31 - 2}, ZERO],
          [{0: 1, 1: 1, 2: 2 ** 31}, {1: 1, 3: 1, 0: 2 ** 32 - 3}]))
# input coefficients that are multiples of p store nothing
@example((3, [0, {1: 2}, ZERO, 1, 2], [{0: 3, 1: -6}, {3: 9, 4: 1}]))
def test_push_images_matches_the_walk_one_image_at_a_time(case):
    p, column, images = case
    column_before, images_before = copy.deepcopy((column, images))
    got = push_images(column, images, p)
    assert got == reference_push(column, images, p)
    assert (column, images) == (column_before, images_before)
    for v, w in zip(images, got):
        if type(w) is dict:
            assert all(w.values()), w
            if p:
                assert all(0 < c < p for c in w.values()), w
        if type(v) is dict:
            if v:
                assert w is not v and all(w is not u for u in column)
            else:
                assert w is v


# -- stride-1 slot fills ------------------------------------------------------


def walk_merge(dim, stride, d, pairs, e=None):
    e = d if e is None else e
    out = []
    for base in range(0, dim // d, e * stride):
        for pair in pairs:
            out.extend(slot_images(pair, base, stride))
    return out


def walk_insert(dim, stride, d, unit):
    out = []
    for base in range(0, dim * d, d * stride):
        out.extend(slot_images(unit, base, stride))
    return out


PAIRS = [0, ZERO, {0: 1, 2: -1}, 2, {1: Fraction(1, 2)}, ZERO, 1, {3: 1},
         {0: -1}]


def test_stride_1_merge_equals_the_slot_images_walk():
    for d in (1, 2, 3):
        pairs = PAIRS[:d * d]
        for dim in (d * d, d ** 3, d ** 4):
            assert merge_column(dim, 1, d, pairs) == \
                walk_merge(dim, 1, d, pairs)
    # two slot sizes: x of size d, y of size e at stride 1
    for d, e in ((2, 3), (3, 2), (1, 4)):
        pairs = (PAIRS * 2)[:d * e]
        for dim in (d * e, d * e * 2, d * e * 6):
            assert merge_column(dim, 1, d, pairs, e) == \
                walk_merge(dim, 1, d, pairs, e)


def test_stride_1_insert_equals_the_slot_images_walk():
    for unit in (0, 2, ZERO, {0: 1, 1: 1}, {1: -1}):
        for d in (2, 3):
            for dim in (1, d, d ** 3):
                assert insert_column(dim, 1, d, unit) == \
                    walk_insert(dim, 1, d, unit)


def test_stride_1_fills_keep_images_apart():
    """Every sparse image of a filled column is its own dict, and a zero
    image is the shared ZERO."""
    column = merge_column(8, 1, 2, [{0: 1}, ZERO, {1: 2}, 3])
    dicts = [v for v in column if type(v) is dict and v]
    assert len({id(v) for v in dicts}) == len(dicts) == 4
    assert all(v is ZERO for v in column if type(v) is dict and not v)
    assert insert_column(3, 1, 2, {0: 1, 1: 1}) == [
        {0: 1, 1: 1}, {2: 1, 3: 1}, {4: 1, 5: 1}]
