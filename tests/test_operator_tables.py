"""The operator tables of the identity checks.

An identity check reads every operator image through one
`cycliccore.OperatorTable` per provider, built for that check alone.  A
table keeps every image of a head inside the checked range in one list,
and outside it only the images that are a basis vector (as its index)
or zero (as the shared empty vector), so what it holds is bounded by
what the relation table reads there.  An oracle compares what fresh
tables hold with the raw providers, since the evaluator oracle reads
the same tables and cannot see a wrong one.  The memory guard measures
that bound on the deepest benchmarked check, and a second guard
measures the total mixed complex of the deepest benchmarked `hc`.  The
source guards keep the per-stage memos that the tables replaced from
coming back beside them, and keep the operator providers on index
arithmetic: none of them decodes a basis index into a tuple of slots or
encodes one back.  A last guard keeps every normalization's induced
operators in its `cycliccore.QuotientStore`: only the store, and the
two maps between spaces that no store owns, call `induced_map`.
"""

import ast
import tracemalloc
from pathlib import Path

import pytest

from hclab.cli import build_objects, parse_scenario
from hclab.cycliccore import ZERO
from hclab.cylinder import HopfCrossedCylinder
from hclab.cylinder.core import (
    check_cylindrical, operator_tables, tot_mixed_complex,
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hclab"
REPLACED = {"memoized", "_in_range_operators"}
MEBIBYTE = 2 ** 20


def traced_peak(name, run):
    """The traced peak of run(cyl) on a fresh cylinder of scenario name."""
    built = build_objects(parse_scenario(
        (ROOT / "scenarios" / f"{name}.scn").read_text()))
    cyl = HopfCrossedCylinder(built.hopf, built.action, built.cocycle)
    tracemalloc.start()
    try:
        run(cyl)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["s3", "s5"])
def test_deep_check_stays_under_two_mebibytes(name):
    """check_cylindrical at (3,3), traced from a fresh cylinder."""
    def check(cyl):
        assert check_cylindrical(cyl, 3, 3) is None
    peak = traced_peak(name, check)
    assert peak < 2 * MEBIBYTE, peak


def test_deep_total_complex_stays_under_one_and_a_half_mebibytes():
    """tot_mixed_complex on s4 (F_2) at degree 7, the deepest `hc`
    benchmarked: what the providers keep per Hopf string must not
    outgrow the images they no longer build."""
    peak = traced_peak("s4", lambda cyl: tot_mixed_complex(cyl, 7))
    assert peak < 1.5 * MEBIBYTE, peak


# the checked range of each scenario's fresh tables
TABLE_RANGES = {"s1": (2, 2), "s2": (2, 2), "s3": (3, 3), "s4": (2, 2),
                "s5": (3, 3)}


def heads(name, p, q):
    """Every head of cylinder provider `name` out of bidegree (p, q)."""
    n = q if name.startswith("v") else p
    if name.endswith("rot"):
        return [(p, q)]
    return [(p, q, i) for i in range(n + 1 if n or "deg" in name else 0)]


def same_image(got, raw, one):
    """Whether a table's image is the raw provider's as the table keeps
    it: the index of a basis vector, ZERO for zero, else an equal dict."""
    if not raw:
        return got is ZERO
    if len(raw) == 1 and next(iter(raw.values())) == one:
        return type(got) is int and raw == {got: one}
    return type(got) is dict and got == raw


@pytest.mark.parametrize("name", sorted(TABLE_RANGES))
def test_fresh_tables_hold_the_raw_provider_images(name):
    """Every in-range column entry, and every read one bidegree out of
    range (first read and, from the buffer, second), is the raw image."""
    built = build_objects(parse_scenario(
        (ROOT / "scenarios" / f"{name}.scn").read_text()))
    cyl = built.cylinder
    max_p, max_q = TABLE_RANGES[name]
    tables = operator_tables(cyl, max_p, max_q)
    one = cyl.field.one
    checked = {"in": 0, "out": 0}
    for provider, table in sorted(tables.items()):
        raw = getattr(cyl, provider)
        for p in range(max_p + 2):
            for q in range(max_q + 2 if p <= max_p else max_q + 1):
                for head in heads(provider, p, q):
                    if p <= max_p and q <= max_q:
                        images, indices = table.column(head)
                        assert len(images) == cyl.dim(p, q)
                        assert indices == all(type(v) is int for v in images)
                        reads = [images]
                        checked["in"] += len(images)
                    else:
                        read = table.reader(head)
                        reads = [[read(k) for k in range(cyl.dim(p, q))]
                                 for _ in range(2)]
                        checked["out"] += len(reads[0])
                    for k in range(cyl.dim(p, q)):
                        want = raw(*head, k)
                        for got in reads:
                            assert same_image(got[k], want, one), (
                                provider, head, k, got[k], want)
    assert checked["in"] and checked["out"]


def replaced_names(source, filename="<source>"):
    """(line, name) of every definition or import of a replaced memo."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rpartition(".")[2] for alias in node.names]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [(node.lineno, n) for n in names if n in REPLACED]
    return found


def test_guard_sees_a_replaced_memo():
    source = ("from .cycliccore import first_violation, memoized\n"
              "def _in_range_operators(module, top):\n"
              "    return ()\n"
              "memoized = None\n")
    assert replaced_names(source) == [(1, "memoized"),
                                      (2, "_in_range_operators"),
                                      (4, "memoized")]
    assert replaced_names("from .cycliccore import OperatorTable\n") == []


def test_no_module_defines_or_imports_a_replaced_memo():
    found = [f"{path.relative_to(SRC)}:{line} {name}"
             for path in sorted(SRC.rglob("*.py"))
             for line, name in replaced_names(path.read_text(), str(path))]
    assert found == []


# the providers of each class, which compute target indices by strides
PROVIDERS = {
    "cycliccore.py": {"AlgebraCyclicModule": {"face", "degeneracy",
                                              "rotate"}},
    "cylinder/core.py": {"HopfCrossedCylinder": {
        "vface", "vdeg", "vrot", "hface", "hdeg", "hrot"}},
}
TUPLE_INDEXING = {"decode", "encode", "split"}


def tuple_indexing_calls(source, providers, filename="<source>"):
    """(function, line, name) of every call of decode, encode or split
    in a provider, or in a method or module function that one calls by
    name, directly or through others."""
    tree = ast.parse(source, filename)
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    todo = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name in providers:
            methods = {f.name: f for f in node.body
                       if isinstance(f, ast.FunctionDef)}
            functions.update(methods)
            todo += [methods[name] for name in sorted(providers[node.name])]
    found, seen = [], set()
    while todo:
        function = todo.pop()
        if function.name in seen:
            continue
        seen.add(function.name)
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            callee = node.func
            name = (callee.attr if isinstance(callee, ast.Attribute)
                    else callee.id if isinstance(callee, ast.Name) else None)
            if name in TUPLE_INDEXING:
                found.append((function.name, node.lineno, name))
            elif name in functions:
                todo.append(functions[name])
    return sorted(found)


def test_guard_sees_tuple_indexing_in_a_provider_or_its_helper():
    source = ("class M:\n"
              "    def face(self, n, i, k):\n"
              "        return _slots(self.space(n), k)\n"
              "    def rotate(self, n, k):\n"
              "        return {k: 1}\n"
              "    def unrelated(self, k):\n"
              "        return self.space(0).decode(k)\n"
              "def _slots(space, k):\n"
              "    return space.encode(space.decode(k))\n")
    providers = {"M": {"face", "rotate"}}
    assert tuple_indexing_calls(source, providers) == [
        ("_slots", 9, "decode"), ("_slots", 9, "encode")]
    assert tuple_indexing_calls("class M:\n    def face(self):\n"
                                "        return self.split(0, 0, 1)\n",
                                {"M": {"face"}}) == [("face", 3, "split")]


def test_no_provider_decodes_or_encodes_a_basis_index():
    found = [f"{path}:{line} {function} calls {name}"
             for path, providers in PROVIDERS.items()
             for function, line, name in tuple_indexing_calls(
                 (SRC / path).read_text(), providers, path)]
    assert found == []
    assert not hasattr(HopfCrossedCylinder, "split")


# the only callers of induced_map: the store every normalization keeps its
# induced operators in, and the two maps between spaces no store owns
INDUCED_MAP_CALLERS = {
    "cycliccore.py": {"QuotientStore.induced"},
    "spectral.py": {"RowComplexes.induced_on_homology"},
    "cylinder/core.py": {"shuffle_map"},
}


def induced_map_callers(source, filename="<source>"):
    """(enclosing class and function names, line) of every call of
    induced_map, by name or as an attribute."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                callee = child.func
                name = (callee.attr if isinstance(callee, ast.Attribute)
                        else callee.id if isinstance(callee, ast.Name)
                        else None)
                if name == "induced_map":
                    found.append((".".join(scope), child.lineno))
            visit(child, scope)

    visit(ast.parse(source, filename), ())
    return found


def test_guard_sees_every_induced_map_call():
    source = ("class Rows:\n"
              "    def induced(self, raw):\n"
              "        def build():\n"
              "            return exactlinalg.induced_map(raw, 0, 1)\n"
              "        return require_descent(induced_map(build(), 0, 1))\n"
              "x = induced_map(None, 0, 1)\n")
    assert induced_map_callers(source) == [
        ("Rows.induced.build", 4), ("Rows.induced", 5), ("", 6)]
    assert induced_map_callers("from .exactlinalg import induced_map\n"
                               "def induced_map(f, src, dst):\n"
                               "    return f\n") == []


def test_only_the_store_and_the_two_cross_maps_call_induced_map():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        for scope, line in induced_map_callers(path.read_text(), str(path)):
            found.setdefault(name, set()).add(scope)
    assert found == INDUCED_MAP_CALLERS
