"""Source guards: the design rules of `src/hclab`, as one table.

Each row of RULES is one rule of the "one implementation" design: a
finder over the one walk of the source, the places allowed to do what
the rule governs (`path:qualname`, or a whole file), each with its
reason, the calls a place must make before any finding there, and a
seeded violation.  A place is a file under `src/hclab` and the qualname
of the def or class around a node; a nested function is a place of its
own.  Two tests run the table: `src/hclab` breaks no row and no row is
stale (each allowed place still holds a finding, each required place
still exists), and each row catches its own seed.
"""

import ast
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hclab"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class Site(NamedTuple):
    """One node of a walked file.  `scope` is the qualname of the def or
    class around it ("" at module level), `owner` that node and `place`
    the two as `path:scope`, or the path alone at module level; `name`
    is what a def, import, binding or argument names, a call calls (by
    bare name or as an attribute), or a name or attribute reads."""
    path: str
    scope: str
    owner: object
    place: str
    node: ast.AST
    name: object

    @property
    def qualname(self):
        return f"{self.scope}.{self.name}" if self.scope else self.name

    @property
    def defines(self):
        return f"{self.path}:{self.qualname}"


def name_of(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, DEFS):
        return node.name
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.arg):
        return node.arg
    if isinstance(node, ast.alias):
        return node.name.rpartition(".")[2]
    return None


def walk(files):
    """Every node of every file in `files` (path -> source), as a Site."""
    sites = []

    def visit(path, node, scope, owner):
        place = f"{path}:{scope}" if scope else path
        for child in ast.iter_child_nodes(node):
            site = Site(path, scope, owner, place, child, name_of(child))
            sites.append(site)
            if isinstance(child, DEFS):
                visit(path, child, site.qualname, child)
            else:
                visit(path, child, scope, owner)

    for path, source in files.items():
        visit(path, ast.parse(source, path), "", None)
    return sites


class Finding(NamedTuple):
    place: str
    line: int
    col: int
    what: str

    def __str__(self):
        return f"{self.place}:{self.line} {self.what}"


def at(site, what, place=None):
    return Finding(place or site.place, site.node.lineno,
                   site.node.col_offset, what)


def calls(sites, names):
    return [s for s in sites if isinstance(s.node, ast.Call)
            and s.name in names]


def defs(sites):
    return [s for s in sites if isinstance(s.node, DEFS)]


def inside(scope, qualname):
    return scope == qualname or scope.startswith(qualname + ".")


def within(place, where):
    """Whether `place` is `where`: a `path:qualname`, a whole file, or
    "" for the whole of src."""
    return not where or place == where or place.startswith(where + ":")


# -- the finders -------------------------------------------------------------


def deleted_entries(sites):
    """`del x[...]`: an entry dropped by hand."""
    return [at(s, "deletes an entry") for s in sites
            if isinstance(s.node, ast.Subscript)
            and isinstance(s.node.ctx, ast.Del)]


def reads_characteristic(node):
    return any(isinstance(sub, ast.Attribute) and sub.attr == "characteristic"
               for sub in ast.walk(node))


def reductions_mod_p(sites):
    """`x % m` and `x %= m`, where m is `p`, `mod`, a `.characteristic`
    or a name its file binds to an expression reading one, and every
    three-argument `pow`."""
    moduli = defaultdict(lambda: {"p", "mod"})
    for s in sites:
        if isinstance(s.node, ast.Assign):
            value = s.node.value
            for target in s.node.targets:
                pairs = (zip(target.elts, value.elts)
                         if isinstance(target, ast.Tuple)
                         and isinstance(value, ast.Tuple)
                         else [(target, value)])
                moduli[s.path] |= {t.id for t, v in pairs
                                   if isinstance(t, ast.Name)
                                   and reads_characteristic(v)}
    found = []
    for s in sites:
        node = s.node
        if (isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.Mod)):
            right = node.right if isinstance(node, ast.BinOp) else node.value
            if (isinstance(right, ast.Name) and right.id in moduli[s.path]
                    or reads_characteristic(right)):
                found.append(at(s, "reduces mod p"))
        elif (isinstance(node, ast.Call) and s.name == "pow"
              and len(node.args) == 3):
            found.append(at(s, "reduces mod p"))
    return found


# the positional arguments of a kernel call that passes the modulus, which
# defaults to 0 (Q): a call without it would leave F_p sums unreduced
KERNEL_ARITY = {"add_term": 4, "vec_add_into": 4, "expand": 3, "rref": 2,
                "exact_div": 3, "push_images": 3, "add_images_into": 4}


def kernel_calls_without_modulus(sites):
    return [at(s, f"calls {s.name} with {len(s.node.args)} arguments")
            for s in calls(sites, KERNEL_ARITY)
            if len(s.node.args) != KERNEL_ARITY[s.name]]


def coordinate_reads(sites):
    """Every `coords_of` call, and every call of vec_add_into or reduce
    in `Subspace.coords_of`."""
    return ([at(s, "reads coordinates") for s in calls(sites, {"coords_of"})]
            + [at(s, f"calls {s.name}")
               for s in calls(sites, {"vec_add_into", "reduce"})
               if s.scope == "Subspace.coords_of"])


def is_cache(node):
    return name_of(node) in ("cache", "lru_cache")


def module_level_caches(sites):
    """A functools.cache or lru_cache that lives as long as its module:
    a decorator on a def at module or class level, or such a call bound
    there."""
    found = []
    for s in sites:
        if s.owner is not None and not isinstance(s.owner, ast.ClassDef):
            continue
        if isinstance(s.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found += [Finding(s.place, d.lineno, d.col_offset, "caches")
                      for d in s.node.decorator_list if is_cache(d)]
        elif (isinstance(s.node, (ast.Assign, ast.AnnAssign))
              and isinstance(s.node.value, ast.Call)
              and is_cache(s.node.value)):
            found.append(at(s, "caches"))
    return found


# replaced by OperatorTable, by the whole-list kernels and by the relation
# tables; a bare name is refused anywhere, a dotted one as that definition
DELETED = {"memoized", "_in_range_operators", "FpScalar",
           "SparseMatrix.apply", "SparseMatrix.add_block",
           "HopfCrossedCylinder.split", "_check_commutation"}


def deleted_names(sites):
    """Every definition, binding or import of a deleted name, and every
    name or attribute that reads a deleted bare name."""
    found = []
    for s in sites:
        node = s.node
        if isinstance(node, (*DEFS, ast.alias)) or (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Store)):
            qualname = s.name if isinstance(node, ast.alias) else s.qualname
            if any(qualname == d or qualname.endswith("." + d)
                   for d in DELETED):
                found.append(at(s, f"defines {s.name}"))
        elif isinstance(node, (ast.Name, ast.Attribute)) and s.name in DELETED:
            found.append(at(s, f"reads {s.name}"))
    return found


# the operator providers, which compute target indices by strides
PROVIDERS = {
    "cycliccore.py:AlgebraCyclicModule": {"face", "degeneracy", "rotate"},
    "cylinder/core.py:HopfCrossedCylinder": {"vface", "vdeg", "vrot",
                                             "hface", "hdeg", "hrot"},
    "cylinder/coefficients.py:HopfComplex": {"face"}}
TUPLE_INDEXING = {"decode", "encode", "split"}


def tuple_indexing(sites):
    """Every call of decode, encode or split in a provider, or in a module
    function or provider method of its file that it calls by name,
    directly or through others."""
    helpers = defaultdict(dict)
    for s in defs(sites):
        if isinstance(s.node, ast.FunctionDef) and not s.scope:
            helpers[s.path][s.name] = s.qualname
    todo = []
    for s in defs(sites):
        if isinstance(s.node, ast.FunctionDef) and s.place in PROVIDERS:
            helpers[s.path][s.name] = s.qualname
            if s.name in PROVIDERS[s.place]:
                todo.append((s.path, s.qualname))
    every_call = calls(sites, TUPLE_INDEXING | {
        name for names in helpers.values() for name in names})
    found, seen = [], set()
    while todo:
        function = todo.pop()
        if function in seen:
            continue
        seen.add(function)
        path, qualname = function
        for s in every_call:
            if s.path != path or not inside(s.scope, qualname):
                continue
            if s.name in TUPLE_INDEXING:
                found.append(at(s, f"calls {s.name}"))
            elif s.name in helpers[s.path]:
                todo.append((s.path, helpers[s.path][s.name]))
    return found


# the arguments that place each provider's column (its head)
HEAD_ARITY = {"face": 2, "degeneracy": 2, "rotate": 1,
              "vface": 3, "vdeg": 3, "vrot": 2,
              "hface": 3, "hdeg": 3, "hrot": 2}


def per_index_readers(sites):
    """Every provider method that takes more arguments than its head, or
    any variable number, and every function in OperatorTable named a
    reader or taking an argument k."""
    found = []
    for s in sites:
        node = s.node
        if (isinstance(node, ast.FunctionDef) and s.name in HEAD_ARITY
                and isinstance(s.owner, ast.ClassDef)):
            args = node.args
            if (args.vararg or args.kwonlyargs or args.kwarg
                    or len(args.posonlyargs + args.args) - 1
                    != HEAD_ARITY[s.name]):
                found.append(at(s, "takes more than its head", s.defines))
        if (isinstance(node, (ast.FunctionDef, ast.Lambda))
                and "OperatorTable" in s.scope.split(".")
                and ("reader" in (s.name or "")
                     or "k" in [a.arg for a in node.args.args])):
            found.append(at(s, "reads one basis vector",
                            s.defines if s.name else None))
    return found


def calls_of(*names):
    def find(sites):
        return [at(s, f"calls {s.name}") for s in calls(sites, names)]
    return find


def unreferenced(sites):
    """Every module-level function and class, and every method other than
    a dunder, that no code names outside its own definition: a function
    or class by a name or an attribute, a method by an attribute.  An
    import is not a use."""
    uses = defaultdict(list)
    for s in sites:
        if isinstance(s.node, (ast.Name, ast.Attribute)):
            uses[s.name].append(s)
    found = []
    for s in defs(sites):
        method = isinstance(s.owner, ast.ClassDef) and "." not in s.scope
        dunder = s.name.startswith("__") and s.name.endswith("__")
        if not (not s.scope or method and not dunder
                and isinstance(s.node, ast.FunctionDef)):
            continue
        if not any((not method or isinstance(u.node, ast.Attribute))
                   and not (u.path == s.path and inside(u.scope, s.qualname))
                   for u in uses[s.name]):
            found.append(at(s, "is named by no code in src", s.defines))
    return found


def hand_placed_blocks(sites):
    """Every add_block attribute, and every binding of a name containing
    `offset`: a variable, an argument or a definition."""
    return [at(s, f"places a block: {s.name}") for s in sites
            if isinstance(s.node, ast.Attribute) and s.name == "add_block"
            or (isinstance(s.node, ast.Name)
                and isinstance(s.node.ctx, ast.Store)
                or isinstance(s.node, (ast.arg, ast.FunctionDef,
                                       ast.ClassDef)))
            and ("offset" in s.name or s.name == "add_block")]


def per_entry_sums(sites):
    """Every call of vec_add_into or add_term in class SparseMatrix or def
    block_matrix: a sum taken one vector or one entry at a time."""
    return [at(s, f"sums by the vector with {s.name}")
            for s in calls(sites, {"vec_add_into", "add_term"})
            if s.scope.split(".")[0] in ("SparseMatrix", "block_matrix")]


BUILDERS = {"build_cylinder", "build_crossed_product"}


def validations(sites):
    """Every call of an input validator, and every `check` parameter of a
    builder."""
    found = calls_of("validate_hopf", "validate_weak_action",
                     "validate_cocycle")(sites)
    for s in defs(sites):
        if s.name in BUILDERS and isinstance(s.node, ast.FunctionDef):
            args = s.node.args
            if any(a.arg == "check"
                   for a in args.posonlyargs + args.args + args.kwonlyargs):
                found.append(at(s, "takes check", s.defines))
    return found


# -- the table ---------------------------------------------------------------


class Rule(NamedTuple):
    name: str
    find: object       # sites -> [Finding]
    allowed: dict      # place -> why it may do what the rule governs
    requires: tuple    # (place, callee): the place calls callee before any
                       # finding there; callee None: the place exists
    seed: dict         # path -> source that breaks the rule
    caught: list       # `place:line` of every breach in the seed


def breaches(rule, sites, found):
    """Each finding outside the rule's allowed places or before the call
    its place must make first, and each required place in `sites` that
    makes no such call."""
    out = {f for f in found if not any(within(f.place, a)
                                       for a in rule.allowed)}
    for where, callee in rule.requires:
        there = [s for s in sites if within(s.place, where)]
        if not there or callee is None:
            continue
        first = min(((s.node.lineno, s.node.col_offset)
                     for s in calls(there, {callee})), default=None)
        if first is None:
            out.add(Finding(where, 0, 0, f"makes no {callee} call"))
        else:
            out |= {f for f in found if within(f.place, where)
                    and (f.line, f.col) < first}
    return sorted(out)


def stale(rule, sites, found):
    """Each allowed place that no longer does what the rule governs, and
    each required place that is gone."""
    return ([a for a in rule.allowed
             if not any(within(f.place, a) for f in found)]
            + [w for w, _ in rule.requires
               if not any(within(s.place, w) for s in sites)])


WHY_CERTIFICATE = ("chain-level certificate that `verify` is to run "
                   "(ROADMAP item 11)")

RULES = [
    Rule(
        "cancellation_only_in_the_accumulators", deleted_entries,
        {"exactlinalg.py": "add_term, vec_add_into, expand and the "
                           "eliminations drop a cancelled entry"},
        (),
        {"seed.py": "def acc(out, key, c):\n"
                    "    s = out.get(key, 0) + c\n"
                    "    if s:\n"
                    "        out[key] = s\n"
                    "    else:\n"
                    "        del out[key]\n"
                    "out.pop(key)\n"
                    "del out\n"},
        ["seed.py:acc:6"]),
    Rule(
        "reduction_mod_p_only_in_exactlinalg", reductions_mod_p,
        {"exactlinalg.py": "an F_p scalar is an int in [0, p), folded by the "
                           "kernels and Field.of"},
        (),
        {"seed.py": "def f(field, x, y):\n"
                    "    q = field.characteristic\n"
                    "    a = (x + y) % q\n"
                    "    b, m = 0, field.characteristic\n"
                    "    x %= m\n"
                    "    c = x * pow(y, -1, m)\n"
                    "    d = x % field.characteristic\n"
                    "    return x % p, x % 2, y % len(field)\n"},
        ["seed.py:f:3", "seed.py:f:5", "seed.py:f:6", "seed.py:f:7",
         "seed.py:f:8"]),
    Rule(
        "every_kernel_call_passes_the_modulus", kernel_calls_without_modulus,
        {},
        tuple(("", kernel) for kernel in KERNEL_ARITY),
        {"seed.py": "def f(acc, rows, columns, images, k, c, p):\n"
                    "    add_term(acc, k, c, p)\n"
                    "    exactlinalg.add_term(acc, k, c)\n"
                    "    vec_add_into(acc, rows[0], c)\n"
                    "    expand(images, c, p)\n"
                    "    exactlinalg.rref(rows, p)\n"
                    "    exact_div(k, c)\n"
                    "    push_images(columns, images, p)\n"
                    "    add_images_into(columns, images, c, p, 0)\n"},
        ["seed.py:f:3", "seed.py:f:4", "seed.py:f:7", "seed.py:f:9"]),
    Rule(
        "coordinates_are_read_behind_the_membership_product",
        coordinate_reads,
        {"spectral.py:_map_rows": "certifies the whole list by one "
                                  "push_images product, then reads"},
        (("spectral.py:_map_rows", "push_images"),
         ("exactlinalg.py:Subspace.coords_of", None)),
        {"spectral.py": "def _map_rows(images, equations, dst):\n"
                        "    cols = [dst.coords_of(v) for v in images]\n"
                        "    if any(push_images(equations.columns, images)):\n"
                        "        raise ValueError\n"
                        "    return [dst.coords_of(v) for v in images]\n"
                        "class Rows:\n"
                        "    def homology(self, ker, col):\n"
                        "        return ker.coords_of(col)\n",
         "exactlinalg.py": "class Subspace:\n"
                           "    def coords_of(self, vec):\n"
                           "        return (self.reduce(vec)\n"
                           "                or vec_add_into(vec, vec, 1))\n"},
        ["exactlinalg.py:Subspace.coords_of:3",
         "exactlinalg.py:Subspace.coords_of:4",
         "spectral.py:Rows.homology:8", "spectral.py:_map_rows:2"]),
    Rule(
        "no_module_level_cache", module_level_caches, {}, (),
        {"seed.py": "import functools\n"
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
                    "        self.k = functools.cache(len)\n"},
        ["seed.py:3", "seed.py:8", "seed.py:C:6"]),
    Rule(
        "deleted_names_stay_deleted", deleted_names, {}, (),
        {"seed.py": "from .cycliccore import first_violation, memoized\n"
                    "def _in_range_operators(module, top):\n"
                    "    return ()\n"
                    "memoized = None\n"
                    "class SparseMatrix:\n"
                    "    def apply(self, vec):\n"
                    "        return vec\n"
                    "    add_block = None\n"
                    "class HopfCrossedCylinder:\n"
                    "    def split(self, k):\n"
                    "        return k\n"
                    "def _check_commutation(cyl):\n"
                    "    return FpScalar(cyl).split()\n"
                    "from .cycliccore import OperatorTable\n"},
        ["seed.py:1", "seed.py:2", "seed.py:4", "seed.py:12",
         "seed.py:HopfCrossedCylinder:10", "seed.py:SparseMatrix:6",
         "seed.py:SparseMatrix:8", "seed.py:_check_commutation:13"]),
    Rule(
        "no_provider_decodes_encodes_or_splits", tuple_indexing, {},
        tuple((f"{cls}.{provider}", None)
              for cls, providers in PROVIDERS.items()
              for provider in sorted(providers)),
        {"cycliccore.py": "class AlgebraCyclicModule:\n"
                          "    def face(self, n, i, k):\n"
                          "        return _slots(self.space(n), k)\n"
                          "    def rotate(self, n, k):\n"
                          "        return {k: 1}\n"
                          "    def unrelated(self, k):\n"
                          "        return self.space(0).decode(k)\n"
                          "    def degeneracy(self):\n"
                          "        return self.split(0, 0, 1)\n"
                          "def _slots(space, k):\n"
                          "    return space.encode(space.decode(k))\n"},
        ["cycliccore.py:AlgebraCyclicModule.degeneracy:9",
         "cycliccore.py:_slots:11", "cycliccore.py:_slots:11"]),
    Rule(
        "providers_take_only_their_head", per_index_readers, {}, (),
        {"seed.py": "class M(ParacyclicModule):\n"
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
                    "        return read\n"
                    "class N:\n"
                    "    def vface(self, p, q, i):\n"
                    "        return []\n"},
        ["seed.py:C.hrot:7", "seed.py:M.face:2",
         "seed.py:OperatorTable.reader:12",
         "seed.py:OperatorTable.reader.read:13"]),
    Rule(
        "induced_map_only_in_the_store_and_the_cross_maps",
        calls_of("induced_map"),
        {"cycliccore.py:QuotientStore.induced":
             "the store every normalization keeps its induced operators in",
         "spectral.py:RowComplexes.induced_on_homology":
             "maps row homology, a space no store owns",
         "cylinder/core.py:shuffle_map":
             "maps the diagonal onto the total complex, which no store owns"},
        (),
        {"cycliccore.py": "class QuotientStore:\n"
                          "    def induced(self, raw):\n"
                          "        def build():\n"
                          "            return exactlinalg.induced_map(raw)\n"
                          "        return induced_map(build(), 0, 1)\n"
                          "x = induced_map(None, 0, 1)\n"
                          "from .exactlinalg import induced_map\n"
                          "def induced_map(f, src, dst):\n"
                          "    return f\n"},
        ["cycliccore.py:6", "cycliccore.py:QuotientStore.induced.build:4"]),
    Rule(
        "rref_only_from_its_entry_points", calls_of("rref"),
        {"exactlinalg.py:mat_rank": "the rank",
         "exactlinalg.py:kernel_basis": "the kernel's free-column basis",
         "exactlinalg.py:solve_linear": "a solution of m x = rhs",
         "exactlinalg.py:Subspace.from_vectors": "the RREF basis of a span"},
        (),
        {"exactlinalg.py": "def mat_rank(m):\n"
                           "    return len(rref(m.row_dicts(), 0)[0])\n"
                           "def project(rows, p):\n"
                           "    return exactlinalg.rref(rows, p)\n"},
        ["exactlinalg.py:project:4"]),
    Rule(
        "src_ships_no_api_that_only_tests_call", unreferenced,
        {"cylinder/core.py:check_diagonal_isomorphism": WHY_CERTIFICATE,
         "cylinder/core.py:check_shuffle_chain_map": WHY_CERTIFICATE,
         "cylinder/coefficients.py:check_maclane": WHY_CERTIFICATE,
         "cycliccore.py:hochschild_homology":
             "HH that the reports are to print (ROADMAP item 7)",
         "algebra.py:FinDimAlgebra.element":
             "the basis-vector shorthand every demo reads"},
        (),
        {"a.py": "def used():\n"
                 "    return shared()\n"
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
                 "named_bare = Box().read()\n"
                 "def shared():\n"
                 "    return 4\n",
         "b.py": "from a import recursive\n"},
        ["a.py:Box.named_bare:10", "a.py:recursive:3"]),
    Rule(
        "block_offsets_only_in_exactlinalg", hand_placed_blocks,
        {"exactlinalg.py": "block_matrix computes every block offset"},
        (),
        {"seed.py": "def total(p, q):\n"
                    "    out = [{} for _ in range(bn.dim(p, q))]\n"
                    "    if p >= 1:\n"
                    "        offset = bn.dim(p, q - 1) if q >= 1 else 0\n"
                    "        for image, col in zip(out, boundary.columns):\n"
                    "            for i, c in col.items():\n"
                    "                add_term(image, offset + i, c, p)\n"
                    "    return out\n"
                    "def place(m, row_offset):\n"
                    "    out.add_block(m, 0, 0)\n"
                    "    return block_matrix(field, rows, cols, blocks)\n"},
        ["seed.py:place:9", "seed.py:place:10", "seed.py:total:4"]),
    Rule(
        "matrix_products_and_sums_take_whole_lists", per_entry_sums, {},
        (("exactlinalg.py:SparseMatrix.compose", "push_images"),
         ("exactlinalg.py:SparseMatrix.add", "add_images_into"),
         ("exactlinalg.py:block_matrix", "add_images_into")),
        {"exactlinalg.py":
            "class SparseMatrix:\n"
            "    def add_block(self, block, row_offset, col_offset, coeff):\n"
            "        columns, p = self.columns, self.field.characteristic\n"
            "        for j, col in enumerate(block.columns, col_offset):\n"
            "            if row_offset:\n"
            "                col = shifted(col, row_offset)\n"
            "            vec_add_into(columns[j], col, coeff, p)\n"
            "    def compose(self, other):\n"
            "        return [self.apply(col) for col in other.columns]\n"
            "def block_matrix(field, blocks):\n"
            "    add_term(acc, 0, 1, 0)\n"
            "    add_images_into(columns, images, 1, 0)\n"
            "def rref(rows):\n"
            "    vec_add_into(a, b)\n"},
        ["exactlinalg.py:SparseMatrix.add_block:7",
         "exactlinalg.py:SparseMatrix.compose:0",
         "exactlinalg.py:block_matrix:11"]),
    Rule(
        "only_build_objects_validates_the_inputs", validations,
        {"cli.py:build_objects": "the one validation pass of a run"},
        (),
        {"cli.py": "def build_cylinder(hopf, action, cocycle, check=True):\n"
                   "    if check and validate_weak_action(action):\n"
                   "        crossed.validate_cocycle(cocycle, action)\n"
                   "def build_crossed_product(act, coc, *, check):\n"
                   "    return validate_algebra(act)\n"
                   "def build_objects(scenario):\n"
                   "    return validate_hopf(scenario.hopf)\n"
                   "def run_command(built):\n"
                   "    return validate_hopf(built.hopf)\n"},
        ["cli.py:build_crossed_product:4", "cli.py:build_cylinder:1",
         "cli.py:build_cylinder:2", "cli.py:build_cylinder:3",
         "cli.py:run_command:9"]),
]


@pytest.fixture(scope="session")
def src_sites():
    """The one walk of src/hclab: each file is parsed once a session."""
    return walk({path.relative_to(SRC).as_posix(): path.read_text()
                 for path in sorted(SRC.rglob("*.py"))})


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_src_keeps_the_rule(rule, src_sites):
    found = rule.find(src_sites)
    assert [str(f) for f in breaches(rule, src_sites, found)] == []
    # a place the rule no longer needs leaves its row
    assert stale(rule, src_sites, found) == []


@pytest.mark.parametrize("rule", RULES, ids=lambda rule: rule.name)
def test_rule_catches_its_seed(rule):
    sites = walk(rule.seed)
    assert [f"{f.place}:{f.line}"
            for f in breaches(rule, sites, rule.find(sites))] == rule.caught
