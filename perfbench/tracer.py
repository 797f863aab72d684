"""Span tracing of hclab's public functions, installed from outside.

The tracer replaces each target function with a timing wrapper in every
`hclab` module namespace that holds it (a function imported by name lives
in several), and replaces each target method or constructor on its class.
`restore()` puts every original back, and a target that cannot be found
makes `install()` raise, so a renamed or inlined function cannot read as
a layer that got faster.  Spans (name, start, end, parent
span, item) are kept in memory; self time and the per-layer totals are
computed from them afterwards.

Counting hooks ride on the same wrappers: provider methods are only
counted (they run hundreds of thousands of times per pass), and a few
spans also record counts derived from their arguments or result.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import defaultdict

# (layer, module holding the definition, qualified name).  A dotted name
# is a method, wrapped on the class that defines it (subclass overrides
# are not wrapped); a bare class name times its constructor.
SPANS = (
    ("cli", "hclab.cli", "parse_scenario"),
    ("cli", "hclab.cli", "build_objects"),
    ("cli", "hclab.cli", "run_command"),
    ("cli", "hclab.cli", "emit_report"),
    ("exactlinalg", "hclab.exactlinalg", "rref"),
    ("exactlinalg", "hclab.exactlinalg", "mat_rank"),
    ("exactlinalg", "hclab.exactlinalg", "kernel_basis"),
    ("exactlinalg", "hclab.exactlinalg", "Subspace.reduce"),
    ("exactlinalg", "hclab.exactlinalg", "Subspace.coords_of"),
    ("exactlinalg", "hclab.exactlinalg", "quotient_space"),
    ("exactlinalg", "hclab.exactlinalg", "induced_map"),
    ("cycliccore", "hclab.cycliccore", "ParacyclicModule.face_matrix"),
    ("cycliccore", "hclab.cycliccore", "ParacyclicModule.degeneracy_matrix"),
    ("cycliccore", "hclab.cycliccore", "ParacyclicModule.rotate_matrix"),
    ("cycliccore", "hclab.cycliccore", "ParacyclicModule.boundary_matrix"),
    ("cycliccore", "hclab.cycliccore", "ParacyclicModule.norm_matrix"),
    ("cycliccore", "hclab.cycliccore",
     "ParacyclicModule.extra_degeneracy_matrix"),
    ("cycliccore", "hclab.cycliccore", "ParacyclicModule.connes_matrix"),
    ("cycliccore", "hclab.cycliccore", "NormalizedComplex"),
    ("cycliccore", "hclab.cycliccore", "NormalizedComplex.boundary_matrix"),
    ("cycliccore", "hclab.cycliccore", "NormalizedComplex.connes_matrix"),
    ("cycliccore", "hclab.cycliccore", "check_paracyclic"),
    ("cycliccore", "hclab.cycliccore", "check_cyclic"),
    ("cycliccore", "hclab.cycliccore", "MixedComplex.verify"),
    ("cycliccore", "hclab.cycliccore", "mixed_complex_of_cyclic"),
    ("cycliccore", "hclab.cycliccore", "cyclic_homology_mixed"),
    ("cylinder", "hclab.cylinder.core", "build_cylinder"),
    ("cylinder", "hclab.cylinder.core", "check_cylindrical"),
    ("cylinder", "hclab.cylinder.core", "BinormalizedCylinder"),
    ("cylinder", "hclab.cylinder.core",
     "BinormalizedCylinder.vertical_boundary"),
    ("cylinder", "hclab.cylinder.core",
     "BinormalizedCylinder.horizontal_boundary"),
    ("cylinder", "hclab.cylinder.core",
     "BinormalizedCylinder.vertical_connes"),
    ("cylinder", "hclab.cylinder.core",
     "BinormalizedCylinder.horizontal_connes"),
    ("cylinder", "hclab.cylinder.core", "BinormalizedCylinder.twist"),
    ("cylinder", "hclab.cylinder.core", "tot_mixed_complex"),
    ("cylinder", "hclab.cylinder.coefficients", "check_row_identification"),
    ("cylinder", "hclab.cylinder.coefficients", "check_coefficient_action"),
    ("cylinder", "hclab.cylinder.coefficients", "hopf_homology"),
    ("spectral", "hclab.spectral", "RowComplexes"),
    ("spectral", "hclab.spectral", "RowComplexes.induced"),
    ("spectral", "hclab.spectral", "RowComplexes.homology"),
    ("spectral", "hclab.spectral", "RowComplexes.induced_on_homology"),
    ("spectral", "hclab.spectral", "compute_E1"),
    ("spectral", "hclab.spectral", "compute_E2"),
    ("spectral", "hclab.spectral", "induced_column_cyclic"),
    ("spectral", "hclab.spectral", "collapse_check"),
    ("crossed", "hclab.crossed", "validate_weak_action"),
    ("crossed", "hclab.crossed", "validate_cocycle"),
    ("crossed", "hclab.crossed", "verify_action_upgrade"),
    ("crossed", "hclab.crossed", "build_crossed_product"),
    ("hopf", "hclab.hopf", "validate_hopf"),
    ("hopf", "hclab.hopf", "is_cocommutative"),
    ("hopf", "hclab.hopf", "is_semisimple"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in SPANS))

# Methods that are counted but not timed: (counter, module, class, methods).
PROVIDERS = (
    ("cycliccore.AlgebraCyclicModule.provider_calls", "hclab.cycliccore",
     "AlgebraCyclicModule", ("face", "degeneracy", "rotate")),
    ("cylinder.HopfCrossedCylinder.provider_calls", "hclab.cylinder.core",
     "HopfCrossedCylinder", ("vface", "vdeg", "vrot", "hface", "hdeg",
                             "hrot")),
)

COUNTS = (
    "exactlinalg.rref.rows_in",
    "exactlinalg.rref.nnz_in",
    "exactlinalg.rref.rank_out",
    "exactlinalg.induced_map.not_well_defined",
    "cycliccore.check_paracyclic.failed",
    "cylinder.check_cylindrical.failed",
) + tuple(counter for counter, _, _, _ in PROVIDERS)


def span_name(layer, qualname):
    return f"{layer}.{qualname}"


def _count_rref(counts, args, result):
    rows = args[0] if args else None
    if isinstance(rows, (list, tuple)):
        counts["exactlinalg.rref.rows_in"] += len(rows)
        counts["exactlinalg.rref.nnz_in"] += sum(len(r) for r in rows)
    if isinstance(result, tuple) and result:
        counts["exactlinalg.rref.rank_out"] += len(result[0])


def _count_not_well_defined(counts, args, result):
    if type(result).__name__ == "NotWellDefined":
        counts["exactlinalg.induced_map.not_well_defined"] += 1


def _counter_of_failures(counter):
    def hook(counts, args, result):
        if result is not None:
            counts[counter] += 1
    return hook


HOOKS = {
    "exactlinalg.rref": _count_rref,
    "exactlinalg.induced_map": _count_not_well_defined,
    "cycliccore.check_paracyclic":
        _counter_of_failures("cycliccore.check_paracyclic.failed"),
    "cylinder.check_cylindrical":
        _counter_of_failures("cylinder.check_cylindrical.failed"),
}


class Tracer:
    """Install with `install()`, undo with `restore()`.

    `item` names the unit of work the next spans belong to; the caller
    sets it.  `spans` holds (name index, start, end, parent index, item)
    tuples in call order; `names[i]` is the span name of index i.
    """

    def __init__(self):
        self.names = [span_name(layer, q) for layer, _, q in SPANS]
        self.spans = []
        self.counts = defaultdict(int)
        self.item = ""
        self._patches = []      # (owner, attribute, original)
        self._stack = [-1]

    # -- patching ---------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for sid, (layer, modname, qualname) in enumerate(SPANS):
                hook = HOOKS.get(self.names[sid])
                self._patch(modname, qualname,
                            lambda fn, sid=sid, hook=hook:
                            self._timed(sid, fn, hook))
            for counter, modname, cls, methods in PROVIDERS:
                for method in methods:
                    self._patch(modname, f"{cls}.{method}",
                                lambda fn, counter=counter:
                                self._counted(counter, fn))
        except BaseException:
            self.restore()
            raise

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def _patch(self, modname, qualname, make_wrapper):
        module = sys.modules.get(modname) or importlib.import_module(modname)
        owner_name, _, attr = qualname.rpartition(".")
        missing = LookupError(f"trace target {modname}.{qualname} not found")
        if owner_name:
            cls = getattr(module, owner_name, None)
            if cls is None or attr not in vars(cls):
                raise missing
            original = vars(cls)[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, make_wrapper(original))
            return
        original = getattr(module, attr, None)
        if original is None:
            raise missing
        if isinstance(original, type):
            # a constructor: time __init__ under the class's name
            init = vars(original).get("__init__")
            if init is None:
                raise missing
            self._patches.append((original, "__init__", init))
            setattr(original, "__init__", make_wrapper(init))
            return
        wrapper = make_wrapper(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "hclab" or
                                   name.startswith("hclab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _timed(self, sid, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (sid, start, end, parent, self.item)
            if hook is not None:
                hook(counts, args, result)
            return result
        return wrapper

    def _counted(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- analysis ---------------------------------------------------------

    def summary(self, setup_item, passes):
        """Per span name: calls and self seconds of one set-up plus the
        mean of `passes` traced passes, and the mean time per pass that
        spans below the root spans cover.  The roots are the cli entry
        points the benchmark calls, so their own self time is the time no
        deeper span accounts for.  Spans whose item is `setup_item` belong
        to the set-up; every other span to a pass."""
        names = len(self.names)
        calls = {True: [0] * names, False: [0] * names}
        self_s = {True: [0.0] * names, False: [0.0] * names}
        child = [0.0] * len(self.spans)
        covered = 0.0
        # a span's children start after it, so they have higher indices:
        # walking backwards sees every child before its parent
        for index in range(len(self.spans) - 1, -1, -1):
            sid, start, end, parent, item = self.spans[index]
            duration = end - start
            in_setup = item == setup_item
            calls[in_setup][sid] += 1
            self_s[in_setup][sid] += duration - child[index]
            if parent >= 0:
                child[parent] += duration
                if self.spans[parent][3] < 0 and not in_setup:
                    covered += duration
        return ([calls[True][s] + calls[False][s] / passes
                 for s in range(names)],
                [self_s[True][s] + self_s[False][s] / passes
                 for s in range(names)],
                covered / passes)

    def write_spans(self, path):
        """One CSV line per span, times in microseconds from the first."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,name,start_us,end_us,parent,item\n")
            for index, (sid, start, end, parent, item) in \
                    enumerate(self.spans):
                fh.write(f"{index},{self.names[sid]},"
                         f"{(start - origin) * 1e6:.1f},"
                         f"{(end - origin) * 1e6:.1f},{parent},{item}\n")
