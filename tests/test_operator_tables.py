"""The operator tables of the identity checks.

An identity check reads every operator image through one
`cycliccore.OperatorTable` per provider, built for that check alone;
`check_cylindrical` reads one set for all its row checks, column checks
and relations at each bidegree, and drops a column once no later one of
them reads it.  A table keeps every column it reads: the list, indexed
by basis index, of every image of one head, in the normal form the
provider returns.  An oracle
compares what fresh tables hold with the tuple-decoding references of
`test_provider_oracle`, since the evaluator oracle reads the same
tables and cannot see a wrong one.  The memory guard measures the
deepest benchmarked check, and two more guards measure the total mixed
complex of the deepest benchmarked `hc` and of s2 at degree 3.  The source guards keep the
per-stage memos that the tables replaced from coming back beside them,
keep every provider on whole columns (none takes a basis index, and no
table reads one basis vector at a time) and keep the operator providers
on index arithmetic: none of them decodes a basis index into a tuple of
slots or encodes one back.  A last guard keeps every normalization's
induced operators in its `cycliccore.QuotientStore`: only the store,
and the two maps between spaces that no store owns, call `induced_map`.
"""

import ast
import tracemalloc
from pathlib import Path

import pytest

from hclab.cli import build_objects, parse_scenario
from hclab.cylinder import HopfCrossedCylinder
from hclab.cylinder.core import (
    check_cylindrical, operator_tables, tot_mixed_complex,
)
from test_provider_oracle import CylinderReference, same_image

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


def test_total_complex_of_s2_at_degree_3_stays_under_one_and_a_quarter_mebibytes():
    """tot_mixed_complex on s2 at degree 3.  It peaked at 1,412,214 bytes
    while b was assembled from one materialized matrix per face; with b
    built in face_0's matrix it peaks at about 1,018,000 (Python 3.11)."""
    peak = traced_peak("s2", lambda cyl: tot_mixed_complex(cyl, 3))
    assert peak < 1.25 * MEBIBYTE, peak


# the bidegrees each scenario's fresh tables are read through
TABLE_RANGES = {"s1": (3, 3), "s2": (3, 3), "s3": (4, 4), "s4": (3, 3),
                "s5": (4, 4)}


def heads(name, p, q):
    """Every head of cylinder provider `name` out of bidegree (p, q)."""
    n = q if name.startswith("v") else p
    if name.endswith("rot"):
        return [(p, q)]
    return [(p, q, i) for i in range(n + 1 if n or "deg" in name else 0)]


@pytest.mark.parametrize("name", sorted(TABLE_RANGES))
def test_fresh_tables_hold_the_raw_provider_images(name):
    """Every entry of every column a fresh table reads through the range
    is the reference image in normal form, the flag says whether all of
    them are indices, and a second read returns the kept column."""
    built = build_objects(parse_scenario(
        (ROOT / "scenarios" / f"{name}.scn").read_text()))
    cyl = built.cylinder
    ref = CylinderReference(cyl)
    top_p, top_q = TABLE_RANGES[name]
    one = cyl.field.one
    checked = 0
    for provider, table in sorted(operator_tables(cyl).items()):
        for p in range(top_p + 1):
            for q in range(top_q + 1):
                for head in heads(provider, p, q):
                    images, indices = table.column(head)
                    assert table.column(head)[0] is images
                    assert len(images) == cyl.dim(p, q)
                    assert indices == all(type(v) is int for v in images)
                    for k, got in enumerate(images):
                        want = getattr(ref, provider)(*head, k)
                        assert same_image(got, want, one), (
                            provider, head, k, got, want)
                    checked += len(images)
    assert checked


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
    "cylinder/coefficients.py": {"HopfComplex": {"face"}},
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


# the files whose modules provide operator columns, and the number of
# arguments that place each provider's column (its head)
COLUMN_FILES = ("cycliccore.py", "cylinder/core.py",
                "cylinder/coefficients.py")
HEAD_ARITY = {"face": 2, "degeneracy": 2, "rotate": 1,
              "vface": 3, "vdeg": 3, "vrot": 2,
              "hface": 3, "hdeg": 3, "hrot": 2}


def per_index_readers(source, filename="<source>"):
    """(class, function, line) of every provider that takes more
    arguments than its head, or any variable number, and of every
    function inside OperatorTable that is named a reader or takes an
    argument k."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if not (isinstance(item, ast.FunctionDef)
                    and item.name in HEAD_ARITY):
                continue
            args = item.args
            if (args.vararg or args.kwonlyargs or args.kwarg
                    or len(args.posonlyargs + args.args) - 1
                    != HEAD_ARITY[item.name]):
                found.append((node.name, item.name, item.lineno))
        if node.name == "OperatorTable":
            for inner in ast.walk(node):
                if isinstance(inner, (ast.FunctionDef, ast.Lambda)) and (
                        "reader" in getattr(inner, "name", "")
                        or "k" in [a.arg for a in inner.args.args]):
                    found.append((node.name, getattr(inner, "name",
                                                     "<lambda>"),
                                  inner.lineno))
    return found


def test_guard_sees_a_per_index_provider_or_reader():
    source = ("class M(ParacyclicModule):\n"
              "    def face(self, n, i, k):\n"
              "        return {}\n"
              "    def rotate(self, n):\n"
              "        return []\n"
              "class C:\n"
              "    def hrot(self, *args):\n"
              "        return []\n"
              "class OperatorTable:\n"
              "    def column(self, head):\n"
              "        return self.op(*head)\n"
              "    def reader(self, head):\n"
              "        def read(k):\n"
              "            return k\n"
              "        return read\n")
    assert per_index_readers(source) == [
        ("M", "face", 2), ("C", "hrot", 7), ("OperatorTable", "reader", 12),
        ("OperatorTable", "read", 13)]
    assert per_index_readers("class M:\n    def vface(self, p, q, i):\n"
                             "        return []\n") == []


def test_no_provider_takes_a_basis_index():
    found = [f"{path}:{line} {cls}.{function}"
             for path in COLUMN_FILES
             for cls, function, line in per_index_readers(
                 (SRC / path).read_text(), path)]
    assert found == []


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
