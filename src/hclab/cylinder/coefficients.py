"""Row coefficients: bimodules over the twisted scalar algebra.

The q-th row of the cylinder is, after rebracketing, the Hochschild
complex of the twisted scalar algebra k #_sigma H with coefficients in
the bimodule carried by H (x) A^(q+1); the identification is verified
facewise and exactly.  Any such bimodule converts to a left module over
the Hopf algebra by the antipode-conjugation action (with two inverse
cocycle corrections), and the Mac Lane chain isomorphism carries the
Hochschild complex onto the bar-type complex computing Hopf-algebra
homology with those twisted coefficients.
"""

from __future__ import annotations

from ..cycliccore import (
    ZERO, HomologyReport, OperatorTable, ParacyclicModule, TensorSpace,
    first_violation, homology_dims, matrix_columns, merge_column,
    normal_image, slot_images)
from ..exactlinalg import (
    MathError, SparseMatrix, add_term, expand, vec_add_into)


class ModuleLawError(MathError):
    pass


class CoefficientBimodule:
    """Base: a two-sided module over the twisted scalar algebra, given on
    basis pairs; both actions extend bilinearly."""

    def left(self, h, m):
        raise NotImplementedError

    def right(self, m, h):
        raise NotImplementedError

    def left_vec(self, hvec, mvec):
        out, p = {}, self.field.characteristic
        for h, ch in hvec.items():
            for m, cm in mvec.items():
                vec_add_into(out, self.left(h, m), ch * cm, p)
        return out

    def right_vec(self, mvec, hvec):
        out, p = {}, self.field.characteristic
        for h, ch in hvec.items():
            for m, cm in mvec.items():
                vec_add_into(out, self.right(m, h), ch * cm, p)
        return out


class BimoduleMq(CoefficientBimodule):
    """H (x) A^(q+1) as a bimodule over the twisted scalar algebra.

    Acting on the left threads the Hopf element through every
    coefficient slot and multiplies into the H component against a
    cocycle factor; acting on the right only twists the H component.
    """

    def __init__(self, cyl, q):
        self.q = q
        self.hopf = cyl.hopf
        self.action = cyl.action
        self.algebra = cyl.algebra
        self.cocycle = cyl.cocycle
        self.field = cyl.field
        # the cylinder's space at (0, q): the same slots, under its cap
        self.space = cyl.space(0, q)
        self.dim = self.space.size
        self._left_cache = {}
        self._right_cache = {}

    def left(self, h, m):
        key = (h, m)
        if key in self._left_cache:
            return self._left_cache[key]
        q, p = self.q, self.field.characteristic
        tup = self.space.decode(m)
        g, avs = tup[0], tup[1:]
        out = {}
        for c0, l in self.hopf.sweedler(h, q + 3):
            for c1, (g1, g2) in self.hopf.sweedler(g, 2):
                w = c0 * c1 * self.cocycle.values[l[q + 2]][g2]
                if not w:
                    continue
                head = self.hopf.algebra.multiply_basis(l[q + 1], g1)
                acted = tuple(self.action.apply_basis(l[j], avs[j])
                              for j in range(q + 1))
                for t, ct in head.items():
                    for term, c in expand(w * ct, (t,) + acted, p).items():
                        add_term(out, self.space.encode(term), c, p)
        self._left_cache[key] = out
        return out

    def right(self, m, h):
        key = (m, h)
        if key in self._right_cache:
            return self._right_cache[key]
        tup = self.space.decode(m)
        g, avs = tup[0], tup[1:]
        out, p = {}, self.field.characteristic
        for c0, (g1, g2) in self.hopf.sweedler(g, 2):
            for c1, (h1, h2) in self.hopf.sweedler(h, 2):
                w = c0 * c1 * self.cocycle.values[g2][h2]
                if not w:
                    continue
                head = self.hopf.algebra.multiply_basis(g1, h1)
                for t, ct in head.items():
                    add_term(out, self.space.encode((t,) + avs), w * ct, p)
        self._right_cache[key] = out
        return out

    def verify(self, twisted_algebra):
        """Bimodule laws over the twisted scalar algebra, exhaustively.
        None, or a description of the first failure."""
        field = self.field
        dH = self.hopf.dim
        unit = self.hopf.algebra.unit
        for m in range(self.dim):
            mv = {m: field.one}
            if self.left_vec(unit, mv) != mv:
                return f"left unit law fails at m={m}"
            if self.right_vec(mv, unit) != mv:
                return f"right unit law fails at m={m}"
        for h in range(dH):
            for l in range(dH):
                prod = twisted_algebra.multiply_basis(h, l)
                for m in range(self.dim):
                    mv = {m: field.one}
                    lhs = self.left_vec({h: field.one},
                                        self.left_vec({l: field.one}, mv))
                    rhs = self.left_vec(prod, mv)
                    if lhs != rhs:
                        return f"left associativity fails at ({h},{l},{m})"
                    lhs = self.right_vec(self.right_vec(mv, {h: field.one}),
                                         {l: field.one})
                    rhs = self.right_vec(mv, prod)
                    if lhs != rhs:
                        return f"right associativity fails at ({h},{l},{m})"
                    lhs = self.right_vec(self.left_vec({h: field.one}, mv),
                                         {l: field.one})
                    rhs = self.left_vec({h: field.one},
                                        self.right_vec(mv, {l: field.one}))
                    if lhs != rhs:
                        return f"actions fail to commute at ({h},{l},{m})"
        return None


class HochschildComplex(ParacyclicModule):
    """C_p(R, M) = M (x) R^p with the standard faces: the zeroth face acts
    on the right, interior faces multiply in R, the last face wraps to a
    left action."""

    def __init__(self, ring, bimodule):
        self.ring = ring
        self.bimodule = bimodule
        self.field = ring.field
        self._spaces = {}

    def space(self, p):
        if p not in self._spaces:
            self._spaces[p] = TensorSpace(
                [self.bimodule.dim] + [self.ring.dim] * p)
        return self._spaces[p]

    def dim(self, p):
        return self.space(p).size

    def face(self, p, i):
        src, dst = self.space(p), self.space(p - 1)
        one, mod = self.field.one, self.field.characteristic
        column = []
        for k in range(src.size):
            tup = src.decode(k)
            m, hs = tup[0], tup[1:]
            out = {}
            if i == 0:
                img = self.bimodule.right(m, hs[0])
                for mm, c in img.items():
                    add_term(out, dst.encode((mm,) + hs[1:]), c, mod)
            elif i < p:
                prod = self.ring.multiply_basis(hs[i - 1], hs[i])
                for t, c in prod.items():
                    add_term(out, dst.encode(
                        (m,) + hs[:i - 1] + (t,) + hs[i + 1:]), c, mod)
            else:
                img = self.bimodule.left(hs[p - 1], m)
                for mm, c in img.items():
                    add_term(out, dst.encode((mm,) + hs[:p - 1]), c, mod)
            column.append(normal_image(out, one))
        return column


def check_row_identification(cyl, twisted_algebra, q, max_p):
    """The q-th cylinder row equals the Hochschild complex of the twisted
    scalar algebra with coefficients in the row bimodule, facewise, under
    the rebracketing (g_0..g_p | a_0..a_q) -> ((g_0, a_0..a_q), g_1..g_p).
    None, or the first mismatch."""
    bim = cyl.row_coefficients(q).bimodule
    hc = HochschildComplex(twisted_algebra, bim)

    def rebracket(p):
        """The basis index that each basis vector of (p, q) rebrackets
        to."""
        src, dst = cyl.space(p, q), hc.space(p)
        column = []
        for k in range(src.size):
            tup = src.decode(k)
            m = bim.space.encode((tup[0],) + tup[p + 1:])
            column.append(dst.encode((m,) + tup[1:p + 1]))
        return column

    stages = ((cyl.dim(p, q), [
        (f"face {i} disagrees at row {q}, degree {p}, basis {{k}}",
         ((cyl.hface, (p, q, i)), (rebracket, (p - 1,))),
         ((rebracket, (p,)), (hc.face, (p, i))))
        for i in range(p + 1)]) for p in range(1, max_p + 1))
    bad = first_violation(stages, cyl.field)
    return None if bad is None else bad[0].format(k=bad[1])


class TwistedLeftModule:
    """A bimodule converted to a left Hopf-algebra module: conjugation by
    the antipode on the two sides, corrected by an inverse cocycle value
    on the middle legs."""

    def __init__(self, bimodule):
        self.bimodule = bimodule
        self.hopf = bimodule.hopf
        self.cocycle = bimodule.cocycle
        self.field = bimodule.field
        self.dim = bimodule.dim
        self._cache = {}

    def act(self, h, m):
        key = (h, m)
        if key in self._cache:
            return self._cache[key]
        out = {}
        mv = {m: self.field.one}
        for c0, (l1, l2, l3, l4) in self.hopf.sweedler(h, 4):
            coef = c0 * self.cocycle.of(self.hopf.antipode[l2],
                                        {l3: self.field.one}, inverse=True)
            if not coef:
                continue
            moved = self.bimodule.right_vec(mv, self.hopf.antipode[l1])
            vec_add_into(out, self.bimodule.left_vec(
                {l4: self.field.one}, moved), coef, self.field.characteristic)
        self._cache[key] = out
        return out

    def act_vec(self, hvec, mvec):
        out, p = {}, self.field.characteristic
        for h, ch in hvec.items():
            for m, cm in mvec.items():
                vec_add_into(out, self.act(h, m), ch * cm, p)
        return out

    def verify_module_law(self):
        """1 acts as identity and the action is multiplicative; None or
        the first failing tuple."""
        field = self.field
        unit = self.hopf.algebra.unit
        for m in range(self.dim):
            mv = {m: field.one}
            if self.act_vec(unit, mv) != mv:
                return ("unit", m)
        for g in range(self.hopf.dim):
            for h in range(self.hopf.dim):
                gh = self.hopf.algebra.multiply_basis(g, h)
                for m in range(self.dim):
                    mv = {m: field.one}
                    lhs = self.act_vec({g: field.one},
                                       self.act_vec({h: field.one}, mv))
                    rhs = self.act_vec(gh, mv)
                    if lhs != rhs:
                        return (g, h, m)
        return None


def twisted_left_module(bimodule):
    mod = TwistedLeftModule(bimodule)
    bad = mod.verify_module_law()
    if bad is not None:
        raise ModuleLawError(
            f"left module law fails at {bad}; the conversion needs a "
            f"cocommutative Hopf algebra")
    return mod


class HopfComplex(ParacyclicModule):
    """The bar-type complex computing Hopf-algebra homology of a left
    module: degree p is H^p (x) M, the differential drops the first leg
    through the counit, merges adjacent legs with alternating signs and
    lets the last leg act on the module."""

    def __init__(self, hopf, act, carrier_dim):
        self.hopf = hopf
        self.carrier_dim = carrier_dim
        self.field = hopf.field
        one = self.field.one
        self._counits = [normal_image({0: c} if c else ZERO, one)
                         for c in hopf.counit]
        self._pairs = [normal_image(v, one)
                       for row in hopf.algebra.mul_table for v in row]
        # act(h_index, m_index) -> vector, read once per basis pair
        self._acts = [normal_image(act(h, m), one)
                      for h in range(hopf.dim) for m in range(carrier_dim)]

    def dim(self, p):
        return self.hopf.dim ** p * self.carrier_dim

    def face(self, p, i):
        # leg j of degree p sits at stride dH^(p-1-j) * carrier_dim
        dH, dM, dim = self.hopf.dim, self.carrier_dim, self.dim(p)
        if i == 0:
            # one block of the remaining legs per first leg, its counit
            return [image for counit in self._counits
                    for image in slot_images(counit, 0, dim // dH)]
        if i < p:
            return merge_column(dim, dH ** (p - 1 - i) * dM, dH, self._pairs)
        # the last leg merges with the module slot through the action
        return merge_column(dim, 1, dH, self._acts, dM)


class HopfComplexError(MathError):
    pass


def hopf_homology(hopf, act, carrier_dim, max_p):
    """Hopf-algebra homology dimensions through max_p; the differential
    is checked to square to zero first and a failure aborts."""
    cx = HopfComplex(hopf, act, carrier_dim)
    mats = {p: cx.boundary_matrix(p) for p in range(max_p + 2)}
    for p in range(2, max_p + 2):
        if not mats[p - 1].compose(mats[p]).is_zero():
            raise HopfComplexError(
                f"differential does not square to zero out of degree {p}")
    return HomologyReport(list(range(max_p + 1)),
                          homology_dims(cx.dim, mats.get, max_p), "hopf")


# ---------------------------------------------------------------------------
# the Mac Lane chain isomorphism


def hochschild_to_hopf(bimodule, p):
    """Matrix of the chain isomorphism from the Hochschild complex of the
    twisted scalar algebra to the Hopf complex of the twisted module: each
    Hopf slot keeps its second leg and the string of first legs drains
    into the module by right action."""
    hopf = bimodule.hopf
    field = bimodule.field
    src = TensorSpace([bimodule.dim] + [hopf.dim] * p)
    dst = TensorSpace([hopf.dim] * p + [bimodule.dim])
    cols = []
    for k in range(src.size):
        tup = src.decode(k)
        m, hs = tup[0], tup[1:]
        out = {}
        for coef, legs in hopf.sweedler_product([(h, 2) for h in hs]):
            mv = {m: field.one}
            for (l1, _l2) in legs:
                mv = bimodule.right_vec(mv, {l1: field.one})
            second = tuple(l2 for (_l1, l2) in legs)
            for mm, c in mv.items():
                add_term(out, dst.encode(second + (mm,)), coef * c,
                         field.characteristic)
        cols.append(out)
    return SparseMatrix.from_columns(field, dst.size, cols)


def hopf_to_hochschild(bimodule, p):
    """Matrix of the inverse: fourth legs return to the algebra string,
    antipodes of the first legs act on the module from the right in
    reverse order, and the middle legs pay inverse cocycle factors."""
    hopf = bimodule.hopf
    coc = bimodule.cocycle
    field = bimodule.field
    src = TensorSpace([hopf.dim] * p + [bimodule.dim])
    dst = TensorSpace([bimodule.dim] + [hopf.dim] * p)
    cols = []
    for k in range(src.size):
        tup = src.decode(k)
        hs, m = tup[:p], tup[p]
        out = {}
        for coef, legs in hopf.sweedler_product([(h, 4) for h in hs]):
            w = coef
            for (_l1, l2, l3, _l4) in legs:
                w = w * coc.of(hopf.antipode[l2], {l3: field.one},
                               inverse=True)
                if not w:
                    break
            if not w:
                continue
            mv = {m: field.one}
            for (l1, _l2, _l3, _l4) in reversed(legs):
                mv = bimodule.right_vec(mv, hopf.antipode[l1])
            fourth = tuple(l4 for (_l1, _l2, _l3, l4) in legs)
            for mm, c in mv.items():
                add_term(out, dst.encode((mm,) + fourth), w * c,
                         field.characteristic)
        cols.append(out)
    return SparseMatrix.from_columns(field, dst.size, cols)


def check_maclane(cyl, twisted_algebra, q, max_p):
    """Mutual inverses and facewise intertwining of the Mac Lane pair on
    the q-th row coefficients, through degree max_p; None or the first
    failure.  The cylinder's module for row q is read first, so a module
    law failure raises ModuleLawError before the bimodule laws run."""
    mod = cyl.row_coefficients(q)
    bim = mod.bimodule
    bad = bim.verify(twisted_algebra)
    if bad is not None:
        return f"bimodule laws fail: {bad}"
    hc = HochschildComplex(twisted_algebra, bim)
    hx = HopfComplex(cyl.hopf, mod.act, bim.dim)
    theta = matrix_columns(lambda p: hochschild_to_hopf(bim, p))
    inverse = matrix_columns(lambda p: hopf_to_hochschild(bim, p))
    hopf_face = OperatorTable(hx.face)

    def stages():
        for p in range(max_p + 1):
            yield hx.dim(p), [
                (f"theta o inverse is not the identity in degree {p}",
                 ((inverse, (p,)), (theta, (p,))), ())]
            yield hc.dim(p), [
                (f"inverse o theta is not the identity in degree {p}",
                 ((theta, (p,)), (inverse, (p,))), ())]
            for i in range(p + 1 if p >= 1 else 0):
                yield hc.dim(p), [
                    (f"face {i} intertwining fails in degree {p} "
                     "at basis {k}",
                     ((hc.face, (p, i)), (theta, (p - 1,))),
                     ((theta, (p,)), (hopf_face, (p, i))))]

    bad = first_violation(stages(), cyl.field)
    return None if bad is None else bad[0].format(k=bad[1])


def coefficient_action_matrix(cyl, q):
    """The explicit closed-form left action on the row coefficients, as
    per-generator matrices; three cocycle corrections, one action leg per
    coefficient slot, and an antipode sandwich on the H component."""
    hopf = cyl.hopf
    coc = cyl.cocycle
    field, p = cyl.field, cyl.field.characteristic
    space = cyl.space(0, q)
    mats = []
    for h in range(hopf.dim):
        cols = []
        for m in range(space.size):
            tup = space.decode(m)
            g, avs = tup[0], tup[1:]
            out = {}
            for c0, l in hopf.sweedler(h, q + 8):
                for c1, (g1, g2, g3) in hopf.sweedler(g, 3):
                    w = c0 * c1
                    w = w * coc.of(hopf.antipode[l[2]], {l[3]: field.one},
                                   inverse=True)
                    if not w:
                        continue
                    w = w * coc.values[l[q + 5]][g1]
                    if not w:
                        continue
                    prod = hopf.algebra.multiply_basis(l[q + 6], g2)
                    w = w * coc.of(prod, hopf.antipode[l[1]])
                    if not w:
                        continue
                    head = hopf.algebra.multiply(
                        hopf.algebra.multiply_basis(l[q + 7], g3),
                        hopf.antipode[l[0]])
                    acted = tuple(cyl.action.apply_basis(l[4 + j], avs[j])
                                  for j in range(q + 1))
                    for t, ct in head.items():
                        for term, c in expand(w * ct, (t,) + acted,
                                              p).items():
                            add_term(out, space.encode(term), c, p)
            cols.append(out)
        mats.append(SparseMatrix.from_columns(field, space.size, cols))
    return mats


def check_coefficient_action(cyl, q):
    """The closed form must coincide with the bimodule conversion on
    every basis pair; None or the first mismatch (h, m), one stage per
    Hopf basis vector h."""
    mod = cyl.row_coefficients(q)
    closed = matrix_columns(coefficient_action_matrix(cyl, q).__getitem__)

    def act(h):
        return [mod.act(h, m) for m in range(mod.dim)]

    stages = ((mod.dim, [(h, ((closed, (h,)),), ((act, (h,)),))])
              for h in range(cyl.hopf.dim))
    return first_violation(stages, cyl.field)
