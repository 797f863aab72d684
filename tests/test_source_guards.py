"""Source guard: `src/hclab` ships no API that only tests or demos call.

Every module-level function and class under `src/hclab` is named by
other code there, by a name or an attribute, and every method by an
attribute read (`x.name`), outside its own definition.  An import is not
a use, so the re-exports in `cylinder/__init__.py` do not count, and
neither does a call from `tests/` or `demos/`, which read the program's
own API.  Dunder methods are called by Python itself and are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hclab"

# path:qualname -> why it stays although nothing in src names it
ALLOWED = {
    "cylinder/core.py:check_diagonal_isomorphism":
        "chain-level certificate that `verify` is to run (ROADMAP item 11)",
    "cylinder/core.py:check_shuffle_chain_map":
        "chain-level certificate that `verify` is to run (ROADMAP item 11)",
    "cylinder/coefficients.py:check_maclane":
        "chain-level certificate that `verify` is to run (ROADMAP item 11)",
    "cycliccore.py:hochschild_homology":
        "HH that the reports are to print (ROADMAP item 7)",
    "algebra.py:FinDimAlgebra.element":
        "the basis-vector shorthand every demo reads",
}


def unreferenced(sources):
    """`path:qualname` of every module-level function and class, and
    every method other than a dunder, that no code in `sources` (path ->
    text) names outside its own definition: a function or class by a
    name or an attribute, a method by an attribute."""
    defined, used = [], []
    for path, text in sources.items():
        tree = ast.parse(text, path)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path, node.name, node, False))
            if isinstance(node, ast.ClassDef):
                defined += [(path, f"{node.name}.{sub.name}", sub, True)
                            for sub in node.body
                            if isinstance(sub, ast.FunctionDef)
                            and not (sub.name.startswith("__")
                                     and sub.name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.append((node.id, False, path, node.lineno))
            elif isinstance(node, ast.Attribute):
                used.append((node.attr, True, path, node.lineno))
    return [f"{path}:{qualname}" for path, qualname, node, method in defined
            if not any(name == node.name and (attribute or not method)
                       and not (where == path and node.lineno <= line
                                <= node.end_lineno)
                       for name, attribute, where, line in used)]


def test_guard_sees_an_unreferenced_function():
    sources = {
        "a.py": ("def used():\n"
                 "    return 1\n"
                 "def recursive(n):\n"
                 "    return recursive(n - 1) if n else used()\n"
                 "class Box:\n"
                 "    def read(self):\n"
                 "        return self.size()\n"
                 "    def size(self):\n"
                 "        return 2\n"
                 "    def named_bare(self):\n"
                 "        return 3\n"
                 "    def __repr__(self):\n"
                 "        return 'Box'\n"
                 "named_bare = Box().read()\n"),
        "b.py": "from a import recursive\n",
    }
    assert unreferenced(sources) == ["a.py:recursive", "a.py:Box.named_bare"]
    sources["b.py"] += "print(recursive(2), Box.named_bare)\n"
    assert unreferenced(sources) == []


def test_src_ships_no_api_that_only_tests_call():
    found = set(unreferenced({
        path.relative_to(SRC).as_posix(): path.read_text()
        for path in sorted(SRC.rglob("*.py"))}))
    assert sorted(found - ALLOWED.keys()) == []
    # an allowed name that src has started to call leaves the list
    assert sorted(ALLOWED.keys() - found) == []
