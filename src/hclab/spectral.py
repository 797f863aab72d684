"""Pages of the cyclic-homology spectral sequence of a crossed product.

The first page is the homology of the cylinder rows, computed twice and
compared: once as row homology of the horizontally normalized cylinder,
once as Hopf-algebra homology with the twisted row coefficients.  Row
homology in a fixed column degree carries induced vertical operators
whose well-definedness is machine-verified; the rotation becomes honestly
cyclic on homology, so each column of the first page is a cyclic module
and the second page is its cyclic homology.  For a semisimple Hopf
algebra the first page is concentrated in its zeroth column, which is
also realized as the invariant subcomplex of the row coefficients, and
the collapse comparison checks the resulting cyclic homology against the
crossed product's own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .cycliccore import (
    MatrixParacyclicModule,
    QuotientStore,
    check_cyclic,
    cyclic_homology_mixed,
    degeneracy_quotient,
    mixed_complex_of_cyclic,
    require_descent,
)
from .cylinder.coefficients import hopf_homology, module_key
from .exactlinalg import (
    MathError,
    SparseMatrix,
    Subspace,
    induced_map,
    kernel_basis,
    push_images,
    quotient_space,
)
from .hopf import find_normalized_integral, invariance_equations, is_semisimple


class SpectralError(MathError):
    pass


@dataclass
class SpectralPage:
    page: int
    entries: dict                      # (p, q) -> dimension

    def entry(self, p, q):
        return self.entries[(p, q)]


class RowComplexes:
    """Horizontally normalized rows with the vertical operators induced
    across the normalization (they commute with horizontal degeneracies),
    plus kernel/image data for row homology; each built on first read."""

    def __init__(self, cyl):
        self.cyl = cyl
        self.field = cyl.field
        self.store = QuotientStore(
            lambda pq: degeneracy_quotient([(cyl.row_module(pq[1]), pq[0])]),
            SpectralError)
        self._homology = {}

    def quotient(self, p, q):
        """The horizontally normalized space at (p, q)."""
        return self.store.quotient((p, q))

    def induced(self, name, p, q):
        """An operator induced on the horizontally normalized spaces: its
        raw matrix and the bidegree it lands in are read by name from the
        table of the operators out of (p, q)."""
        row, col = self.cyl.row_module(q), self.cyl.column_module(p)
        ops = {"row_boundary": (partial(row.boundary_matrix, p), (p - 1, q)),
               "vrot": (partial(col.rotate_matrix, q), (p, q))}
        for i in range(q + 1):
            ops[f"vdeg_{i}"] = partial(col.degeneracy_matrix, q, i), (p, q + 1)
            if q >= 1:
                ops[f"vface_{i}"] = partial(col.face_matrix, q, i), (p, q - 1)
        raw, target = ops[name]
        return self.store.induced(
            (name, p, q), (p, q), target, raw,
            f"{name} does not descend to the normalized rows at ({p},{q})")

    def cycle_equations(self, p, q):
        """The row boundary out of (p, q), whose kernel is the row cycles;
        at p = 0 the zero map onto the zero space."""
        if p == 0:
            return SparseMatrix.zero(self.field, 0, self.quotient(0, q).dim)
        return self.induced("row_boundary", p, q)

    def homology(self, p, q):
        """(kernel subspace, quotient space of homology classes) of the
        row differential at (p, q)."""
        key = (p, q)
        if key in self._homology:
            return self._homology[key]
        equations = self.cycle_equations(p, q)
        if p == 0:   # every vector is a cycle: the coordinate subspace
            dim = equations.cols
            ker = Subspace(self.field, dim, list(range(dim)),
                           [{j: self.field.one} for j in range(dim)])
        else:
            ker = kernel_basis(equations)
        boundaries = _map_rows(
            [col for col in self.induced("row_boundary", p + 1, q).columns
             if col], equations, ker,
            f"row boundary at ({p + 1},{q}) does not land in the row "
            f"cycles at ({p},{q})")
        denom = Subspace.from_vectors(self.field, ker.dim, boundaries.columns)
        quot = quotient_space(ker.dim, denom)
        self._homology[key] = (ker, quot)
        return self._homology[key]

    def homology_dim(self, p, q):
        return self.homology(p, q)[1].dim

    def induced_on_homology(self, name, p, q, tq):
        """A vertical operator transported to row homology; every step is
        verified (kernel preservation, then quotient well-definedness)."""
        ker_src, quot_src = self.homology(p, q)
        ker_dst, quot_dst = self.homology(p, tq)
        on_kernels = _map_rows(
            push_images(self.induced(name, p, q).columns, ker_src.rows,
                        self.field.characteristic),
            self.cycle_equations(p, tq), ker_dst,
            f"{name} does not preserve row cycles at ({p},{q})")
        return require_descent(
            induced_map(on_kernels, quot_src, quot_dst), SpectralError,
            f"{name} is not well defined on row homology at ({p},{q})")


def compute_E1(cyl, max_p, max_q):
    """The first page, computed two independent ways that must agree:
    row homology of the normalized cylinder, and Hopf-algebra homology
    with the twisted row coefficients, once per distinct coefficient
    module.  Returns it and its RowComplexes."""
    rows = RowComplexes(cyl)
    entries, reports = {}, {}
    for q in range(max_q + 1):
        mod = cyl.row_coefficients(q)
        key = module_key(mod)
        if key not in reports:
            reports[key] = hopf_homology(cyl.hopf, mod.act, mod.dim, max_p)
        for p in range(max_p + 1):
            d_row = rows.homology_dim(p, q)
            d_hopf = reports[key].dims[p]
            if d_row != d_hopf:
                raise SpectralError(
                    f"first-page mismatch at ({p},{q}): row homology "
                    f"{d_row}, Hopf homology {d_hopf}")
            entries[(p, q)] = d_row
    return SpectralPage(page=1, entries=entries), rows


def _transported_cyclic(field, dims, transport, what):
    """The cyclic module on dims whose operators are transport(op, q, tq,
    *index), op "vrot", "vface" or "vdeg" out of degree q into tq; it is
    verified cyclic, else SpectralError names it by `what`."""
    max_q = len(dims) - 1
    faces, degens, rots = {}, {}, {}
    for q in range(max_q + 1):
        rots[q] = transport("vrot", q, q)
        if q >= 1:
            for i in range(q + 1):
                faces[(q, i)] = transport("vface", q, q - 1, i)
        if q < max_q:
            for i in range(q + 1):
                degens[(q, i)] = transport("vdeg", q, q + 1, i)
    module = MatrixParacyclicModule(field, dims, faces, degens, rots)
    bad = check_cyclic(module, max_q - 1 if max_q >= 1 else 0)
    if bad is not None:
        raise SpectralError(f"{what} is not cyclic: {bad}")
    return module


def induced_column_cyclic(rows, p, max_q):
    """The p-th column of the first page as a genuine cyclic module on
    row-homology classes; cyclicity of the induced rotation is verified.
    """
    return _transported_cyclic(
        rows.field, [rows.homology_dim(p, q) for q in range(max_q + 1)],
        lambda op, q, tq, *index: rows.induced_on_homology(
            "_".join([op, *map(str, index)]), p, q, tq),
        f"induced column {p}")


def compute_E2(e1, rows):
    """The second page over the range of `e1`: cyclic homology of the
    induced column modules on `rows`, the RowComplexes `e1` read."""
    max_p, max_q = max(e1.entries)     # entries fill 0..max_p x 0..max_q
    entries = {}
    for p in range(max_p + 1):
        column = induced_column_cyclic(rows, p, max_q + 1)
        mx = mixed_complex_of_cyclic(column, max_q)
        hc = cyclic_homology_mixed(mx, max_q)
        for q in range(max_q + 1):
            dim = hc.dims[q]
            if dim > e1.entry(p, q):
                raise SpectralError(
                    f"second page exceeds the first at ({p},{q})")
            entries[(p, q)] = dim
    return SpectralPage(page=2, entries=entries)


@dataclass
class InvariantComplex:
    dims: list
    subspaces: list                    # invariant subspace per degree
    module: MatrixParacyclicModule    # restricted vertical cyclic structure


def invariant_complex_N0(cyl, max_q):
    """Invariants of the row coefficients under the twisted action, with
    the restricted vertical cyclic structure.

    Only available for semisimple Hopf algebras, where invariants and
    coinvariants agree through the averaging projection (verified); for
    anything else the degree-zero column is the coinvariant space and the
    second page should be used instead.
    """
    hopf = cyl.hopf
    field = cyl.field
    if not is_semisimple(hopf):
        raise SpectralError(
            "invariants only describe the zeroth column for a semisimple "
            "Hopf algebra; compute the second page on coinvariants instead")
    integral = find_normalized_integral(hopf)
    if integral is None:
        raise SpectralError("no normalized integral; not semisimple")

    equations, subspaces = [], []
    for q in range(max_q + 1):
        mod = cyl.row_coefficients(q)
        equations.append(invariance_equations(hopf, mod.act, mod.dim))
        subspaces.append(kernel_basis(equations[q]))

    # averaging projection onto invariants must hit every invariant and
    # identify them with the coinvariants
    for q in range(max_q + 1):
        mod = cyl.row_coefficients(q)
        sub = subspaces[q]
        for row in sub.rows:
            averaged = mod.act_vec(integral, row)
            if averaged != row:
                raise SpectralError(
                    f"averaging does not fix an invariant in degree {q}")

    def restrict(op, q, tq, *index):
        """A vertical operator of column 0 restricted to invariants."""
        word = {"vrot": "rotation", "vface": "face", "vdeg": "degeneracy"}[op]
        what = " ".join([word, *map(str, index)])
        return _map_rows(
            push_images(getattr(cyl, op)(0, q, *index), subspaces[q].rows,
                        field.characteristic), equations[tq], subspaces[tq],
            f"vertical {what} does not preserve invariants in degree {q}")

    dims = [s.dim for s in subspaces]
    module = _transported_cyclic(field, dims, restrict, "invariant complex")
    return InvariantComplex(dims=dims, subspaces=subspaces, module=module)


def _map_rows(images, equations, dst, message):
    """The matrix, in dst's basis, of a list of images, where dst is the
    kernel of the matrix `equations`.  Membership is certified for the
    whole list by one product, equations times each image, which must be
    zero, else SpectralError(message); the coordinates are then read at
    dst's pivots."""
    field = dst.field
    if any(push_images(equations.columns, images, field.characteristic)):
        raise SpectralError(message)
    return SparseMatrix._of(field, dst.dim,
                            [dst.coords_of(v) for v in images])


@dataclass
class CollapseReport:
    direct: list
    via_invariants: list

    @property
    def passed(self):
        return self.direct == self.via_invariants


def collapse_check(cyl, direct):
    """`direct`, the crossed product's own HC, against cyclic homology of
    the invariant complex through the same degree; semisimple only."""
    max_degree = direct.degrees[-1]
    inv = invariant_complex_N0(cyl, max_degree + 1)
    mx = mixed_complex_of_cyclic(inv.module, max_degree)
    via = cyclic_homology_mixed(mx, max_degree)
    return CollapseReport(direct=direct.dims, via_invariants=via.dims)
