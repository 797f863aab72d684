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
    apply_linear,
    check_cyclic,
    cyclic_homology_mixed,
    degeneracy_quotient,
    mixed_complex_of_cyclic,
    require_descent,
)
from .cylinder.coefficients import hopf_homology
from .exactlinalg import (
    MathError,
    NotInSubspace,
    SparseMatrix,
    Subspace,
    induced_map,
    kernel_basis,
    quotient_space,
)
from .hopf import find_normalized_integral, is_semisimple


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

    def homology(self, p, q):
        """(kernel subspace, quotient space of homology classes) of the
        row differential at (p, q)."""
        key = (p, q)
        if key in self._homology:
            return self._homology[key]
        if p == 0:
            dim = self.quotient(0, q).dim
            ker = Subspace.from_vectors(
                self.field, dim, [{j: self.field.one} for j in range(dim)])
        else:
            ker = kernel_basis(self.induced("row_boundary", p, q))
        img_in_ker = []
        for col in self.induced("row_boundary", p + 1, q).columns:
            if col:
                try:
                    img_in_ker.append(ker.coords_of(col))
                except NotInSubspace:
                    raise SpectralError(
                        f"row boundary at ({p + 1},{q}) does not land in "
                        f"the row cycles at ({p},{q})")
        denom = Subspace.from_vectors(self.field, ker.dim, img_in_ker)
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
            ker_src, ker_dst, self.induced(name, p, q).apply,
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
        # a module is its dimension and its action on every basis pair
        key = (mod.dim, tuple(frozenset(mod.act(h, m).items())
                              for h in range(cyl.hopf.dim)
                              for m in range(mod.dim)))
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


def induced_column_cyclic(rows, p, max_q):
    """The p-th column of the first page as a genuine cyclic module on
    row-homology classes; cyclicity of the induced rotation is verified.
    """
    dims = [rows.homology_dim(p, q) for q in range(max_q + 1)]
    faces, degens, rots = {}, {}, {}
    for q in range(max_q + 1):
        rots[q] = rows.induced_on_homology("vrot", p, q, q)
        if q >= 1:
            for i in range(q + 1):
                faces[(q, i)] = rows.induced_on_homology(
                    f"vface_{i}", p, q, q - 1)
        if q < max_q:
            for i in range(q + 1):
                degens[(q, i)] = rows.induced_on_homology(
                    f"vdeg_{i}", p, q, q + 1)
    module = MatrixParacyclicModule(rows.field, dims, faces, degens, rots)
    bad = check_cyclic(module, max_q - 1 if max_q >= 1 else 0)
    if bad is not None:
        raise SpectralError(f"induced column {p} is not cyclic: {bad}")
    return module


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

    subspaces = []
    for q in range(max_q + 1):
        mod = cyl.row_coefficients(q)
        rows = []
        for h in range(hopf.dim):
            eps = hopf.counit[h]
            for target in range(mod.dim):
                row = {}
                for m in range(mod.dim):
                    c = mod.act(h, m).get(target, field.zero)
                    if m == target:
                        c = field.of(c - eps)
                    if c:
                        row[m] = c
                rows.append(row)
        stacked = SparseMatrix.from_row_list(field, rows, mod.dim)
        subspaces.append(kernel_basis(stacked))

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

    def restrict(op, q, tq, what, *index):
        """A vertical operator of column 0 restricted to invariants."""
        column = op(0, q, *index)
        return _map_rows(
            subspaces[q], subspaces[tq],
            lambda vec: apply_linear(column, vec, field.characteristic),
            f"vertical {what} does not preserve invariants in degree {q}")

    faces, degens, rots = {}, {}, {}
    for q in range(max_q + 1):
        rots[q] = restrict(cyl.vrot, q, q, "rotation")
        if q >= 1:
            for i in range(q + 1):
                faces[(q, i)] = restrict(cyl.vface, q, q - 1, f"face {i}", i)
        if q < max_q:
            for i in range(q + 1):
                degens[(q, i)] = restrict(cyl.vdeg, q, q + 1,
                                          f"degeneracy {i}", i)
    dims = [s.dim for s in subspaces]
    module = MatrixParacyclicModule(field, dims, faces, degens, rots)
    bad = check_cyclic(module, max_q - 1 if max_q >= 1 else 0)
    if bad is not None:
        raise SpectralError(f"invariant complex is not cyclic: {bad}")
    return InvariantComplex(dims=dims, subspaces=subspaces, module=module)


def _map_rows(src, dst, image, message):
    """The matrix, in dst's basis, of image() on src's basis rows;
    SpectralError(message) if an image is not in dst."""
    cols = []
    for row in src.rows:
        img = image(row)
        try:
            cols.append(dst.coords_of(img))
        except NotInSubspace:
            raise SpectralError(message)
    return SparseMatrix.from_columns(dst.field, dst.dim, cols)


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
