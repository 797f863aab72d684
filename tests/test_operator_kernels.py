"""The raw Connes and boundary operators against their compose/add forms.

`ParacyclicModule` builds b, N, s N and (1 - lambda) s N, and
`BinormalizedCylinder` the vertical rotation's (q+1)-st power, with the
whole-list column kernels: `exactlinalg.add_images_into` adds a whole
list of images into a list of columns, and `push_images` pushes one
through a column.  The references below are the definitions they
replace: one `SparseMatrix.compose` per power and one `SparseMatrix.add`
per summand.  Both must agree, storing no zero and every F_p scalar in
[1, p), on every algebra, row and column module of the shipped
scenarios through degree 4, and on a matrix-backed module whose
rotations have multi-term columns.

`add_images_into` itself is checked against a walk that calls `add_term`
or `vec_add_into` once per image, over Q, F_2 and F_5.

The vertical rotation's Sweedler strings and antipode actions are kept
per cylinder: no module of hclab keeps a cache of its own, and two
cylinders share none.
"""

import ast
import copy
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hclab.cli import build_objects, parse_scenario
from hclab.crossed import build_crossed_product
from hclab.cycliccore import (
    ZERO, AlgebraCyclicModule, MatrixParacyclicModule,
)
from hclab.cylinder import build_cylinder
from hclab.cylinder.core import BinormalizedCylinder
from hclab.exactlinalg import (
    Field, SparseMatrix, add_images_into, add_term, induced_map,
    vec_add_into,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hclab"
SCENARIOS = ("s1", "s2", "s3", "s4", "s5")
TOP = 4

SETTINGS = settings(derandomize=True, max_examples=400, deadline=None)


# -- add_images_into against a walk one image at a time -----------------------


def reference_add(columns, images, coeff, p):
    """columns[j] += coeff * images[j], one kernel call per image."""
    for acc, v in zip(columns, images, strict=True):
        if type(v) is int:
            add_term(acc, v, coeff, p)
        else:
            vec_add_into(acc, v, coeff, p)


def scalars(p):
    """Nonzero scalars: mod p any int, multiples of p and negatives
    included; over Q ints and fractions."""
    if p:
        return st.integers(-2 * p - 1, 2 * p + 1).filter(bool)
    return st.sampled_from([1, -1, 2, -2, Fraction(1, 2), Fraction(-2, 3)])


def reduced(p):
    """Nonzero scalars as a column stores them."""
    if p:
        return st.integers(1, p - 1)
    return scalars(0)


@st.composite
def additions(draw):
    p = draw(st.sampled_from((0, 2, 5)))
    n = draw(st.integers(0, 6))
    keys = st.integers(0, 3)   # few keys, so that terms cancel often
    columns = draw(st.lists(st.dictionaries(keys, reduced(p), max_size=4),
                            min_size=n, max_size=n))
    images = draw(st.lists(keys | st.just(ZERO)
                           | st.dictionaries(keys, scalars(p), min_size=1,
                                             max_size=4),
                           min_size=n, max_size=n))
    return p, columns, images, draw(scalars(p))


@SETTINGS
@given(additions())
# an index and a vector that cancel what their columns hold
@example((0, [{0: 1}, {1: -2, 2: 1}], [0, {1: 1, 2: -1}], -1))
@example((2, [{0: 1, 1: 1}, {}], [0, {0: 3, 1: 1}], 1))
@example((5, [{2: 4}, {1: 1}, {}], [2, {1: 9}, ZERO], 6))
def test_add_images_into_matches_the_walk_one_image_at_a_time(case):
    p, columns, images, coeff = case
    want = copy.deepcopy(columns)
    reference_add(want, images, coeff, p)
    images_before = copy.deepcopy(images)
    add_images_into(columns, images, coeff, p)
    assert columns == want
    assert images == images_before and ZERO == {}
    for col in columns:
        assert all(col.values()), col
        if p:
            assert all(0 < c < p for c in col.values()), col


def test_add_images_into_wants_one_image_per_column():
    with pytest.raises(ValueError):
        add_images_into([{}, {}], [0], 1, 0)


# -- the operators against their compose/add definitions ----------------------


def reference_boundary(module, n):
    field = module.field
    out = module.face_matrix(n, 0)
    for i in range(1, n + 1):
        out = out.add(module.face_matrix(n, i), field.sign(i))
    return out


def signed_rotation(module, n):
    rotation = module.rotate_matrix(n)
    return SparseMatrix(module.field, rotation.rows, rotation.cols).add(
        rotation, module.field.sign(n))


def reference_norm(module, n):
    """N = 1 + lambda + ... + lambda^n by n composes and n adds."""
    lam = signed_rotation(module, n)
    acc = SparseMatrix.identity(module.field, module.dim(n))
    total = acc
    for _ in range(n):
        acc = lam.compose(acc)
        total = total.add(acc)
    return total


def reference_sn(module, n):
    return module.extra_degeneracy_matrix(n).compose(reference_norm(module, n))


def reference_connes(module, n):
    sn = reference_sn(module, n)
    return sn.add(signed_rotation(module, n + 1).compose(sn),
                  module.field.sign(1))


def reference_twist_power(module, q):
    rot = module.rotate_matrix(q)
    acc = SparseMatrix.identity(module.field, rot.cols)
    for _ in range(q + 1):
        acc = rot.compose(acc)
    return acc


def exact(m):
    """Whether a matrix stores no zero and every F_p scalar reduced."""
    p = m.field.characteristic
    return all(c and (not p or 0 < c < p)
               for col in m.columns for c in col.values())


def assert_operators_match(module, top):
    """b, N, s N and (1 - lambda) s N out of every degree through top."""
    for n in range(top + 1):
        pairs = [("norm", module.norm_matrix(n), reference_norm(module, n)),
                 ("sn", module.sn_matrix(n), reference_sn(module, n)),
                 ("connes", module.connes_matrix(n),
                  reference_connes(module, n))]
        if n >= 1:
            pairs.append(("b", module.boundary_matrix(n),
                          reference_boundary(module, n)))
        for name, got, want in pairs:
            assert got == want, (name, n)
            assert exact(got), (name, n)


def scenario(name):
    return build_objects(parse_scenario((ROOT / "scenarios" / f"{name}.scn")
                                        .read_text()))


@pytest.mark.parametrize("name", SCENARIOS)
def test_algebra_operators_match_compose_and_add(name):
    built = scenario(name)
    for algebra in (built.action.algebra, built.hopf.algebra,
                    build_crossed_product(built.action,
                                          built.cocycle).product):
        assert_operators_match(AlgebraCyclicModule(algebra), TOP)


@pytest.mark.parametrize("name", SCENARIOS)
def test_row_and_column_operators_match_compose_and_add(name):
    built = scenario(name)
    cyl = build_cylinder(built.hopf, built.action, built.cocycle)
    for degree in range(TOP + 1):
        assert_operators_match(cyl.row_module(degree), TOP)
        assert_operators_match(cyl.column_module(degree), TOP)


@pytest.mark.parametrize("name", SCENARIOS)
def test_twist_power_matches_compose(name):
    built = scenario(name)
    cyl = build_cylinder(built.hopf, built.action, built.cocycle)
    bn = BinormalizedCylinder(cyl, TOP)
    for p in range(TOP + 1):
        for q in range(TOP + 1 - p):
            quotient = bn.store.quotient((p, q))
            want = induced_map(
                reference_twist_power(cyl.column_module(p), q),
                quotient, quotient)
            assert bn.induced_vertical_twist(p, q) == want, (p, q)


def sparse_matrix(field, rows, cols, rng):
    """A matrix whose columns have up to three terms, some cancelling."""
    entries = {}
    for j in range(cols):
        for i in rng.sample(range(rows), min(rows, rng.randint(0, 3))):
            if c := field.of(rng.choice([1, -1, 2, -2, 3])):
                entries[i, j] = c
    return SparseMatrix(field, rows, cols, entries)


@pytest.mark.parametrize("p", [0, 2, 5])
def test_matrix_module_with_multi_term_rotations(p):
    field, rng = Field(p), random.Random(p)
    dims = [2, 3, 4, 3, 2]
    top = len(dims) - 1
    faces = {(n, i): sparse_matrix(field, dims[n - 1], dims[n], rng)
             for n in range(1, top + 1) for i in range(n + 1)}
    degeneracies = {(n, i): sparse_matrix(field, dims[n + 1], dims[n], rng)
                    for n in range(top) for i in range(n + 1)}
    rotations = {n: sparse_matrix(field, dims[n], dims[n], rng)
                 for n in range(top + 1)}
    assert any(len(col) > 1 for m in rotations.values() for col in m.columns)
    module = MatrixParacyclicModule(field, dims, faces, degeneracies,
                                    rotations)
    assert_operators_match(module, top - 1)


# -- cache lifetime -----------------------------------------------------------


def module_level_caches(source, filename="<source>"):
    """Line numbers of every functools.cache or lru_cache whose cache
    lives as long as the module: a decorator on a function or method
    defined at module or class level, or such a call bound there."""
    def is_cache(node):
        node = node.func if isinstance(node, ast.Call) else node
        name = node.attr if isinstance(node, ast.Attribute) else \
            getattr(node, "id", None)
        return name in ("cache", "lru_cache")

    found = []

    def visit(body):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.extend(d.lineno for d in node.decorator_list
                             if is_cache(d))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and \
                    isinstance(node.value, ast.Call) and is_cache(node.value):
                found.append(node.lineno)
    visit(ast.parse(source, filename).body)
    return sorted(found)


def test_guard_sees_a_module_level_cache():
    source = ("import functools\n"
              "from functools import lru_cache\n"
              "@functools.cache\n"
              "def f(n): return n\n"
              "class C:\n"
              "    @lru_cache(maxsize=None)\n"
              "    def g(self, n): return n\n"
              "h = functools.cache(len)\n"
              "def outer():\n"
              "    return functools.cache(len)\n"
              "class D:\n"
              "    def __init__(self):\n"
              "        self.k = functools.cache(len)\n")
    assert module_level_caches(source) == [3, 6, 8]


def test_no_module_keeps_a_cache_of_its_own():
    """A cache that outlives the objects it serves would let one run
    help the next in the same process."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        found += [f"{path.relative_to(SRC)}:{line}" for line in
                  module_level_caches(path.read_text(), str(path))]
    assert found == []


def test_two_cylinders_share_no_vertical_rotation_cache():
    built = scenario("s5")
    first, second = (build_cylinder(built.hopf, built.action, built.cocycle)
                     for _ in range(2))
    column = first.vrot(2, 1)
    assert len(first._vrot_terms) == 3 and len(first._antipode_actions) > 1
    # a new cylinder knows the unit's antipode action alone
    assert second._vrot_terms == [] and len(second._antipode_actions) == 1
    assert second.vrot(2, 1) == column
    for name in ("_vrot_terms", "_strings", "_antipode_actions"):
        mine, theirs = getattr(first, name), getattr(second, name)
        assert mine is not theirs
        values = mine.values() if isinstance(mine, dict) else mine
        other = theirs.values() if isinstance(theirs, dict) else theirs
        assert not {id(v) for v in values} & {id(v) for v in other}, name
