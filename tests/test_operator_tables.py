"""The operator tables of the identity checks.

An identity check reads every operator image through one
`cycliccore.OperatorTable` per provider, built for that check alone.  A
table keeps an image that is a basis vector as its index and a zero
image as the shared empty vector everywhere, and any other image only
inside the checked range, so what it holds is bounded by what the
relation table reads there.  The memory guard measures that bound on
the deepest benchmarked check; the source guard keeps the per-stage
memos that the tables replaced from coming back beside them.
"""

import ast
import tracemalloc
from pathlib import Path

import pytest

from hclab.cli import build_objects, parse_scenario
from hclab.cylinder import HopfCrossedCylinder
from hclab.cylinder.core import check_cylindrical

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hclab"
REPLACED = {"memoized", "_in_range_operators"}


@pytest.mark.parametrize("name", ["s3", "s5"])
def test_deep_check_stays_under_two_mebibytes(name):
    """check_cylindrical at (3,3), traced from a fresh cylinder."""
    built = build_objects(parse_scenario(
        (ROOT / "scenarios" / f"{name}.scn").read_text()))
    cyl = HopfCrossedCylinder(built.hopf, built.action, built.cocycle)
    tracemalloc.start()
    try:
        assert check_cylindrical(cyl, 3, 3) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak


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
