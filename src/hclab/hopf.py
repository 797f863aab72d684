"""Finite-dimensional Hopf algebras with full axiom verification.

The coproduct is stored as a list of sparse tensor-square vectors (one
per basis element, keyed by leg pairs), the counit as a dense list of
scalars and the antipode as column images.  Iterated coproducts are
materialized as explicit sum-of-tensors term lists; for cocommutative
inputs the leg order of those lists is irrelevant, which is what makes
the long crossed-product formulas downstream mechanical.
"""

from __future__ import annotations

import itertools

from .algebra import Violation, group_algebra
from .exactlinalg import (
    SparseMatrix, add_term, expand, mat_rank, push_images, solve_linear,
    vec_add_into,
)


class UnsupportedSemisimplicityQuery(ValueError):
    """Semisimplicity detection outside the supported cases."""


def _sorted_terms(merged):
    """A sparse vector keyed by leg tuples as a (coefficient, legs) term
    list in increasing leg order."""
    return [(c, t) for t, c in sorted(merged.items())]


class HopfAlgebra:
    """An algebra with coproduct, counit and antipode tables."""

    def __init__(self, algebra, coproduct, counit, antipode, group=None):
        self.algebra = algebra
        self.field = algebra.field
        self.dim = algebra.dim
        self.coproduct = coproduct      # list of {(i, j): scalar}
        self.counit = counit            # list of scalars
        self.antipode = antipode        # list of sparse column images
        self.group = group              # set for group algebras (Maschke)
        self._sweedler_cache = {}

    # -- linear helpers ----------------------------------------------------

    def counit_of(self, vec):
        return self.field.of(sum(c * self.counit[i] for i, c in vec.items()))

    def antipode_of(self, vec):
        return push_images(self.antipode, [vec], self.field.characteristic)[0]

    def multiply(self, x, y):
        return self.algebra.multiply(x, y)

    def product_of_basis(self, indices):
        """Product of a sequence of basis elements, as a sparse vector."""
        if not indices:
            return dict(self.algebra.unit)
        out = {indices[0]: self.field.one}
        for i in indices[1:]:
            out = self.algebra.multiply(out, {i: self.field.one})
        return out

    def sweedler(self, basis_index, legs):
        """Term list of the (legs-1)-fold iterated coproduct of a basis
        element; legs = 1 returns the element itself."""
        key = (basis_index, legs)
        cached = self._sweedler_cache.get(key)
        if cached is not None:
            return cached
        if legs == 1:
            merged = {(basis_index,): self.field.one}
        else:
            # split the first leg: legs-fold = (coproduct x 1) o (legs-1)-fold
            merged, p = {}, self.field.characteristic
            for coeff, tup in self.sweedler(basis_index, legs - 1):
                for (a, b), c in self.coproduct[tup[0]].items():
                    add_term(merged, (a, b) + tup[1:], coeff * c, p)
        result = _sorted_terms(merged)
        self._sweedler_cache[key] = result
        return result

    def sweedler_product(self, factors):
        """Iterate (coefficient, list of leg tuples) over the product of
        the iterated coproducts of several basis elements, given as
        (basis index, legs) pairs."""
        lists = [self.sweedler(i, legs) for i, legs in factors]
        for combo in itertools.product(*lists):
            coef = self.field.one
            tups = []
            for c, t in combo:
                coef = coef * c
                tups.append(t)
            yield coef, tups

    def __repr__(self):
        return f"HopfAlgebra(dim={self.dim}, field={self.field})"


def _tensor_square_product(hopf, u, v):
    """Product in H (x) H of two sparse tensor-square vectors."""
    mul = hopf.algebra.multiply_basis
    out, p = {}, hopf.field.characteristic
    for (a1, b1), c1 in u.items():
        for (a2, b2), c2 in v.items():
            vec_add_into(out, expand(c1 * c2, [mul(a1, a2), mul(b1, b2)], p),
                         None, p)
    return out


def validate_hopf(hopf):
    """None if all Hopf axioms hold on every basis vector, else the first
    Violation (named axiom and location)."""
    alg = hopf.algebra
    field, p = hopf.field, hopf.field.characteristic
    bad = alg.validate()
    if bad is not None:
        return bad

    # coassociativity per basis vector
    for i in range(hopf.dim):
        left, right = {}, {}
        for (a, b), c in hopf.coproduct[i].items():
            for (a1, a2), c2 in hopf.coproduct[a].items():
                add_term(left, (a1, a2, b), c * c2, p)
            for (b1, b2), c2 in hopf.coproduct[b].items():
                add_term(right, (a, b1, b2), c * c2, p)
        if left != right:
            return Violation("coassociativity", (i,))

    # counit laws
    for i in range(hopf.dim):
        left, right = {}, {}
        for (a, b), c in hopf.coproduct[i].items():
            add_term(left, b, c * hopf.counit[a], p)
            add_term(right, a, c * hopf.counit[b], p)
        e = {i: field.one}
        if left != e:
            return Violation("counit law (left)", (i,))
        if right != e:
            return Violation("counit law (right)", (i,))

    # coproduct and counit are algebra maps
    [cop_unit] = push_images(hopf.coproduct, [alg.unit], p)
    if cop_unit != expand(field.one, [alg.unit, alg.unit], p):
        return Violation("coproduct of the unit", ())
    if hopf.counit_of(alg.unit) != field.one:
        return Violation("counit of the unit", ())
    for i in range(hopf.dim):
        for j in range(hopf.dim):
            prod = alg.multiply_basis(i, j)
            [lhs] = push_images(hopf.coproduct, [prod], p)
            rhs = _tensor_square_product(hopf, hopf.coproduct[i], hopf.coproduct[j])
            if lhs != rhs:
                return Violation("coproduct is an algebra map", (i, j))
            if hopf.counit_of(prod) != field.of(hopf.counit[i]
                                                * hopf.counit[j]):
                return Violation("counit is an algebra map", (i, j))

    # antipode laws: m(S x 1) cop = unit . counit = m(1 x S) cop
    one = field.one
    for i in range(hopf.dim):
        left, right = {}, {}
        for (a, b), c in hopf.coproduct[i].items():
            vec_add_into(left, alg.multiply(hopf.antipode[a], {b: one}), c, p)
            vec_add_into(right, alg.multiply({a: one}, hopf.antipode[b]), c, p)
        target = {}
        vec_add_into(target, alg.unit, hopf.counit[i], p)
        if left != target:
            return Violation("antipode law (left)", (i,))
        if right != target:
            return Violation("antipode law (right)", (i,))
    return None


def is_cocommutative(hopf):
    """True iff flipping the legs fixes the coproduct of every basis vector."""
    for i in range(hopf.dim):
        flipped = {(b, a): c for (a, b), c in hopf.coproduct[i].items()}
        if flipped != hopf.coproduct[i]:
            return False
    return True


def group_hopf(field, group):
    """k[G] with group-like coproduct, counit 1 and antipode g -> g^-1."""
    alg = group_algebra(field, group)
    one = field.one
    coproduct = [{(i, i): one} for i in range(group.order)]
    counit = [one for _ in range(group.order)]
    antipode = [{group.inverse[i]: one} for i in range(group.order)]
    return HopfAlgebra(alg, coproduct, counit, antipode, group=group)


def _left_multiplication_trace(alg, vec):
    """Trace of left multiplication by a vector."""
    return alg.field.of(sum(alg.multiply(vec, {k: alg.field.one}).get(k, 0)
                            for k in range(alg.dim)))


def is_semisimple(hopf):
    """Characteristic 0: the trace-form radical must vanish (Dickson).
    Group algebras over F_p: Maschke, p must not divide |G|.  Anything
    else in positive characteristic is refused."""
    field = hopf.field
    if field.characteristic == 0:
        alg = hopf.algebra
        rows = []
        for i in range(alg.dim):
            row = {}
            for j in range(alg.dim):
                t = _left_multiplication_trace(alg, alg.multiply_basis(i, j))
                if t:
                    row[j] = t
            rows.append(row)
        gram = SparseMatrix.from_row_list(field, rows, alg.dim)
        return mat_rank(gram) == gram.cols
    if hopf.group is not None:
        return field.of(hopf.group.order) != 0   # |G| is a unit of k
    raise UnsupportedSemisimplicityQuery(
        "semisimplicity over a prime field is only decided for group algebras")


def invariance_equations(hopf, act, dim):
    """The matrix stacking h - counit(h) over the basis h of hopf, acting
    by act(h, m) on a module of dimension dim; its kernel is the
    invariants.  Block h is rows h*dim to h*dim + dim - 1, and column m
    holds act(h, m) - counit(h) m there, from one act call per pair."""
    field = hopf.field
    columns = []
    for m in range(dim):
        column = {}
        for h, eps in enumerate(hopf.counit):
            image, base = act(h, m), h * dim
            column.update((base + t, c) for t, c in image.items()
                          if c and t != m)
            if c := field.of(image.get(m, field.zero) - eps):
                column[base + m] = c
        columns.append(column)
    return SparseMatrix._of(field, len(hopf.counit) * dim, columns)


def find_normalized_integral(hopf):
    """A two-sided-invariant element with counit 1, or None.

    Existence is equivalent to semisimplicity here; for k[G] this is the
    averaged sum of group elements.  Solves h*x = counit(h)*x for every
    basis h together with counit(x) = 1.
    """
    field = hopf.field
    rows = invariance_equations(
        hopf, hopf.algebra.multiply_basis, hopf.dim).row_dicts()
    rows.append({j: c for j, c in enumerate(hopf.counit) if c})
    m = SparseMatrix.from_row_list(field, rows, hopf.dim)
    return solve_linear(m, {len(rows) - 1: field.one})
