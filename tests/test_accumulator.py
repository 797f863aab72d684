"""The one sparse accumulator: `add_term`, `vec_add_into` and `expand`.

A sparse vector never stores a zero.  These three functions in
`exactlinalg` are the only code that adds into one, so they are the only
code that drops a cancelled entry.  Each is compared here with a dense
reference sum over Q, F_2, F_3 and F_7, reduced mod p at the end, and
must never leave a zero value in its dict.  F_7 is there for its
scalars other than 0 and ±1.
A source guard keeps every other module of hclab from dropping
cancelled entries by hand, and another from reducing mod p: over F_p a
scalar is an int in [0, p), reduced only inside `exactlinalg`.
"""

import ast
import itertools
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hclab.exactlinalg import QQ, Field, add_term, expand, vec_add_into

SRC = Path(__file__).resolve().parent.parent / "src" / "hclab"

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


def deleted_subscripts(source, filename="<source>"):
    """Line numbers of every `del x[...]` statement in the source."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source, filename))
        if isinstance(node, ast.Delete)
        and any(isinstance(sub, ast.Subscript)
                for target in node.targets for sub in ast.walk(target)))


def test_guard_sees_a_hand_written_cancellation():
    source = ("def acc(out, key, c):\n"
              "    s = out.get(key, 0) + c\n"
              "    if s:\n"
              "        out[key] = s\n"
              "    else:\n"
              "        del out[key]\n")
    assert deleted_subscripts(source) == [6]
    assert deleted_subscripts("out.pop(key)\ndel out\n") == []


def test_no_module_drops_a_cancelled_entry_by_hand():
    """Only exactlinalg may delete a dict entry: everywhere else a sum
    goes through add_term, vec_add_into or expand."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "exactlinalg.py":
            continue
        found += [f"{path.relative_to(SRC)}:{line}"
                  for line in deleted_subscripts(path.read_text(), str(path))]
    assert found == []


def reductions_mod_p(source, filename="<source>"):
    """Line numbers of every reduction by the characteristic in the
    source: `x % m` or `x %= m` where m is `p`, `mod`, a `.characteristic`
    or a name bound to an expression reading one, and every three-argument
    `pow`."""
    tree = ast.parse(source, filename)

    def reads_characteristic(node):
        return any(isinstance(sub, ast.Attribute)
                   and sub.attr == "characteristic" for sub in ast.walk(node))

    moduli = {"p", "mod"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts)
                         if isinstance(target, ast.Tuple)
                         and isinstance(node.value, ast.Tuple)
                         else [(target, node.value)])
                moduli |= {t.id for t, v in pairs if isinstance(t, ast.Name)
                           and reads_characteristic(v)}
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.Mod)):
            right = node.right if isinstance(node, ast.BinOp) else node.value
            if (isinstance(right, ast.Name) and right.id in moduli
                    or reads_characteristic(right)):
                found.add(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "pow" and len(node.args) == 3):
            found.add(node.lineno)
    return sorted(found)


def test_guard_sees_a_hand_written_reduction():
    source = ("def f(field, x, y):\n"
              "    q = field.characteristic\n"
              "    a = (x + y) % q\n"
              "    b, m = 0, field.characteristic\n"
              "    x %= m\n"
              "    c = x * pow(y, -1, m)\n"
              "    d = x % field.characteristic\n"
              "    return x % p, x % 2, y % len(field)\n")
    assert reductions_mod_p(source) == [3, 5, 6, 7, 8]


def test_only_exactlinalg_reduces_mod_p():
    """FpScalar is gone, and reduction by the characteristic is written
    only in exactlinalg: every other module hands a folded scalar to a
    kernel or to `Field.of`."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        name = path.relative_to(SRC)
        if "FpScalar" in source:
            found.append(f"{name}: names FpScalar")
        if path.name != "exactlinalg.py":
            found += [f"{name}:{line}"
                      for line in reductions_mod_p(source, str(path))]
    assert found == []


# the positional arguments of a kernel call that passes the modulus, which
# defaults to 0 (Q): a call without it would leave F_p sums unreduced
KERNEL_ARITY = {"add_term": 4, "vec_add_into": 4, "expand": 3, "rref": 2,
                "exact_div": 3, "push_images": 3, "add_images_into": 4}


def test_every_kernel_call_passes_the_modulus():
    calls = [
        (f"{path.relative_to(SRC)}:{node.lineno}", node.func.id, node.args)
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in KERNEL_ARITY]
    assert {name for _, name, _ in calls} == set(KERNEL_ARITY)
    assert [where for where, name, args in calls
            if len(args) != KERNEL_ARITY[name]] == []
