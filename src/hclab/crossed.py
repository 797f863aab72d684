"""Weak actions, scalar 2-cocycles and crossed products.

A cocycle here is a scalar-valued bilinear functional on H (x) H with an
explicit convolution inverse; the three compatibility conditions
(normality, the cocycle property, the twisted module property) are
verified exhaustively over basis tuples, never sampled.  The crossed
product multiplies a (x) h against b (x) l by letting the first leg of h
act on b, paying a cocycle factor on the middle legs and multiplying the
remaining legs in H.  With the trivial cocycle this is the smash
product, and the twisted group algebra is the special case of ground
coefficients over a group algebra.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FinDimAlgebra, Violation, ground_algebra
from .exactlinalg import (
    SparseMatrix, add_term, exact_div, expand, solve_linear, vec_add_into)


class GroupCocycleError(ValueError):
    pass


class ActionMap:
    """A linear map H (x) A -> A given on basis pairs."""

    def __init__(self, hopf, algebra, table):
        self.hopf = hopf
        self.algebra = algebra
        self.table = table  # table[h][a] -> sparse vector in A

    def apply_basis(self, h, a):
        return self.table[h][a]

    def apply(self, hvec, avec):
        out, p = {}, self.hopf.field.characteristic
        for h, ch in hvec.items():
            row = self.table[h]
            for a, ca in avec.items():
                vec_add_into(out, row[a], ch * ca, p)
        return out

    def __repr__(self):
        return (f"ActionMap(H dim {self.hopf.dim} on A dim "
                f"{self.algebra.dim})")


def trivial_action(hopf, algebra):
    """h(a) = counit(h) a."""
    table = [[{a: hopf.counit[h]} if hopf.counit[h] else {}
              for a in range(algebra.dim)]
             for h in range(hopf.dim)]
    return ActionMap(hopf, algebra, table)


def validate_weak_action(act):
    """None iff the three weak-action axioms and the module axiom hold on
    all basis tuples; otherwise the first violation, named."""
    bad = _weak_axioms(act)
    return bad if bad is not None else verify_action_upgrade(act)


def _weak_axioms(act):
    """The first violation of the weak-action axioms 1)-3), or None."""
    hopf, alg = act.hopf, act.algebra
    field = hopf.field
    p = field.characteristic
    # 2) h(1) = counit(h) 1
    for h in range(hopf.dim):
        img = act.apply({h: field.one}, alg.unit)
        want = {}
        vec_add_into(want, alg.unit, hopf.counit[h], p)
        if img != want:
            return Violation("weak action: h(1) = counit(h) 1", (h,))
    # 3) 1(a) = a
    for a in range(alg.dim):
        img = act.apply(hopf.algebra.unit, {a: field.one})
        if img != {a: field.one}:
            return Violation("weak action: 1(a) = a", (a,))
    # 1) h(ab) = h1(a) h2(b)
    for h in range(hopf.dim):
        legs = hopf.sweedler(h, 2)
        for a in range(alg.dim):
            for b in range(alg.dim):
                lhs = act.apply({h: field.one}, alg.multiply_basis(a, b))
                rhs = {}
                for coeff, (h1, h2) in legs:
                    left = act.apply_basis(h1, a)
                    right = act.apply_basis(h2, b)
                    vec_add_into(rhs, alg.multiply(left, right), coeff, p)
                if lhs != rhs:
                    return Violation("weak action: h(ab) = h1(a) h2(b)",
                                     (h, a, b))
    return None


def verify_action_upgrade(act):
    """The first violation of the module axiom h(l(a)) = (hl)(a) on the
    basis triples, or None.  With the weak-action axioms, an invertible
    scalar cocycle over a cocommutative H then upgrades the weak action
    to a module action; `validate_weak_action` runs this check."""
    hopf, alg = act.hopf, act.algebra
    field = hopf.field
    for h in range(hopf.dim):
        for l in range(hopf.dim):
            hl = hopf.algebra.multiply_basis(h, l)
            for a in range(alg.dim):
                lhs = act.apply({h: field.one}, act.apply_basis(l, a))
                rhs = act.apply(hl, {a: field.one})
                if lhs != rhs:
                    return Violation("module axiom: h(l(a)) = (hl)(a)",
                                     (h, l, a))
    return None


class Cocycle:
    """A scalar bilinear functional on H (x) H with a convolution inverse."""

    def __init__(self, hopf, values, inverse_values):
        self.hopf = hopf
        self.values = values            # values[i][j] scalar
        self.inverse_values = inverse_values

    def of(self, u, v, inverse=False):
        """Bilinear evaluation on sparse vectors, a scalar of the field."""
        table = self.inverse_values if inverse else self.values
        total = 0
        for i, ci in u.items():
            row = table[i]
            for j, cj in v.items():
                total = total + ci * cj * row[j]
        return self.hopf.field.of(total)

    def __repr__(self):
        return f"Cocycle(on H dim {self.hopf.dim})"


def trivial_cocycle(hopf):
    values = convolution_unit(hopf)
    return Cocycle(hopf, values, [row[:] for row in values])


def convolve(hopf, f, g):
    """Convolution of two scalar tables on H (x) H."""
    d = hopf.dim
    return [[hopf.field.of(sum(ch * cl * f[h1][l1] * g[h2][l2]
                               for ch, (h1, h2) in hopf.sweedler(h, 2)
                               for cl, (l1, l2) in hopf.sweedler(l, 2)))
             for l in range(d)] for h in range(d)]


def convolution_unit(hopf):
    eps, of = hopf.counit, hopf.field.of
    return [[of(eps[i] * eps[j]) for j in range(hopf.dim)]
            for i in range(hopf.dim)]


def convolution_inverse(hopf, values):
    """The two-sided convolution inverse of a scalar table, or None.

    Solves the linear system (values * x)(h, l) = counit(h) counit(l)
    entrywise, then checks the other side.
    """
    d = hopf.dim
    field = hopf.field
    p = field.characteristic
    rows = []
    rhs = {}
    for h in range(d):
        hlegs = hopf.sweedler(h, 2)
        for l in range(d):
            llegs = hopf.sweedler(l, 2)
            row = {}
            for ch, (h1, h2) in hlegs:
                for cl, (l1, l2) in llegs:
                    add_term(row, h2 * d + l2, ch * cl * values[h1][l1], p)
            rows.append(row)
            add_term(rhs, h * d + l, hopf.counit[h] * hopf.counit[l], p)
    m = SparseMatrix.from_row_list(field, rows, d * d)
    sol = solve_linear(m, rhs)
    if sol is None:
        return None
    inv = [[sol.get(i * d + j, field.zero) for j in range(d)] for i in range(d)]
    unit = convolution_unit(hopf)
    if convolve(hopf, inv, values) != unit:
        return None
    return inv


def validate_cocycle(coc, act):
    """None iff normality, the cocycle property and the twisted module
    property all hold exactly, and the stored inverse really is a
    two-sided convolution inverse; otherwise the first violation."""
    hopf = coc.hopf
    alg = act.algebra
    field = hopf.field
    p = field.characteristic
    if act.hopf is not hopf and act.hopf.dim != hopf.dim:
        return Violation("cocycle and action share the Hopf algebra", ())
    one_h = hopf.algebra.unit
    # normality
    for h in range(hopf.dim):
        e = {h: field.one}
        if coc.of(e, one_h) != hopf.counit[h]:
            return Violation("normality: sigma(h, 1) = counit(h)", (h,))
        if coc.of(one_h, e) != hopf.counit[h]:
            return Violation("normality: sigma(1, h) = counit(h)", (h,))
    # cocycle property (scalar form; the acting leg contributes a counit)
    for h in range(hopf.dim):
        hlegs = hopf.sweedler(h, 2)
        for l in range(hopf.dim):
            llegs = hopf.sweedler(l, 2)
            for m in range(hopf.dim):
                mlegs = hopf.sweedler(m, 2)
                lhs = field.zero
                rhs = field.zero
                for cl, (l1, l2) in llegs:
                    for cm, (m1, m2) in mlegs:
                        for ch, (h1, h2) in hlegs:
                            w = cl * cm * ch
                            lhs = lhs + w * hopf.counit[h1] * \
                                coc.values[l1][m1] * \
                                coc.of({h2: field.one},
                                       hopf.algebra.multiply_basis(l2, m2))
                for ch, (h1, h2) in hlegs:
                    for cl, (l1, l2) in llegs:
                        rhs = rhs + ch * cl * coc.values[h1][l1] * \
                            coc.of(hopf.algebra.multiply_basis(h2, l2),
                                   {m: field.one})
                if field.of(lhs) != field.of(rhs):
                    return Violation("cocycle property", (h, l, m))
    # twisted module property
    for h in range(hopf.dim):
        hlegs = hopf.sweedler(h, 2)
        for l in range(hopf.dim):
            llegs = hopf.sweedler(l, 2)
            for a in range(alg.dim):
                lhs, rhs = {}, {}
                for ch, (h1, h2) in hlegs:
                    for cl, (l1, l2) in llegs:
                        w = ch * cl
                        vec_add_into(
                            lhs,
                            act.apply({h1: field.one}, act.apply_basis(l1, a)),
                            w * coc.values[h2][l2], p)
                        vec_add_into(
                            rhs,
                            act.apply(hopf.algebra.multiply_basis(l2, h2),
                                      {a: field.one}),
                            w * coc.values[h1][l1], p)
                if lhs != rhs:
                    return Violation("twisted module property", (h, l, a))
    # inverse identities
    unit = convolution_unit(hopf)
    if convolve(hopf, coc.values, coc.inverse_values) != unit:
        return Violation("convolution inverse (right)", ())
    if convolve(hopf, coc.inverse_values, coc.values) != unit:
        return Violation("convolution inverse (left)", ())
    return None


@dataclass
class CrossedProductAlgebra:
    """A (x) H with the cocycle-twisted multiplication."""

    product: FinDimAlgebra
    action: ActionMap
    cocycle: Cocycle


def build_crossed_product(act, coc):
    """The crossed product of the action's algebra by its Hopf algebra.

    The weak action and the cocycle are taken as validated, and the Hopf
    algebra as cocommutative; `product.validate()` revalidates the result
    as an associative unital algebra, independently of the cocycle
    conditions that guarantee it.
    """
    hopf, alg = act.hopf, act.algebra
    field = hopf.field
    p = field.characteristic
    dA, dH = alg.dim, hopf.dim
    dim = dA * dH
    labels = [f"{la}#{lh}" for la in alg.basis_labels
              for lh in hopf.algebra.basis_labels]
    table = [[dict() for _ in range(dim)] for _ in range(dim)]
    for h in range(dH):
        h3legs = hopf.sweedler(h, 3)
        for l in range(dH):
            l2legs = hopf.sweedler(l, 2)
            for a in range(dA):
                for b in range(dA):
                    out = {}
                    for ch, (h1, h2, h3) in h3legs:
                        hb = act.apply_basis(h1, b)
                        if not hb:
                            continue
                        a_part = alg.multiply({a: field.one}, hb)
                        if not a_part:
                            continue
                        for cl, (l1, l2) in l2legs:
                            # a product of nonzero scalars is nonzero
                            w = ch * cl * coc.values[h2][l1]
                            if not w:
                                continue
                            h_part = hopf.algebra.multiply_basis(h3, l2)
                            for (ai, hi), c in expand(
                                    w, [a_part, h_part], p).items():
                                add_term(out, ai * dH + hi, c, p)
                    table[a * dH + h][b * dH + l] = out
    unit = {}
    for a, ca in alg.unit.items():
        for h, ch in hopf.algebra.unit.items():
            add_term(unit, a * dH + h, ca * ch, p)
    product = FinDimAlgebra(field, labels, table, unit)
    return CrossedProductAlgebra(product=product, action=act, cocycle=coc)


def lift_group_cocycle(hopf, table):
    """Extend a group-indexed table of nonzero scalars to a cocycle on the
    group algebra; the convolution inverse is the pointwise reciprocal.

    Raises GroupCocycleError naming the first normalization or cocycle
    identity failure.
    """
    group = hopf.group
    if group is None:
        raise GroupCocycleError("the Hopf algebra is not a group algebra")
    n = group.order
    field = hopf.field
    e = group.identity
    for x in range(n):
        if table[x][e] != field.one:
            raise GroupCocycleError(
                f"normalization fails: c({group.labels[x]}, e) != 1")
        if table[e][x] != field.one:
            raise GroupCocycleError(
                f"normalization fails: c(e, {group.labels[x]}) != 1")
    for x in range(n):
        for y in range(n):
            if not table[x][y]:
                raise GroupCocycleError(
                    f"c({group.labels[x]},{group.labels[y]}) is zero")
            for z in range(n):
                lhs = table[x][y] * table[group.op(x, y)][z]
                rhs = table[y][z] * table[x][group.op(y, z)]
                if field.of(lhs) != field.of(rhs):
                    raise GroupCocycleError(
                        "cocycle identity fails at "
                        f"({group.labels[x]},{group.labels[y]},{group.labels[z]})")
    inverse = [[exact_div(field.one, table[i][j], field.characteristic)
                for j in range(n)]
               for i in range(n)]
    return Cocycle(hopf, [row[:] for row in table], inverse)


def twisted_scalar_algebra(coc):
    """k #_sigma H: the crossed product of the ground field, whose
    underlying space is H itself with the cocycle-twisted product."""
    hopf = coc.hopf
    ground = ground_algebra(hopf.field)
    act = trivial_action(hopf, ground)
    return build_crossed_product(act, coc).product
