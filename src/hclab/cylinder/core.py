"""The cylindrical module of a crossed product, and its total complex.

Chain space at bidegree (p, q): the (p+1)-fold tensor power of the Hopf
algebra against the (q+1)-fold tensor power of the coefficient algebra,
with basis tuples (g_0..g_p, a_0..a_q), each kept as its flat index.
The vertical family (faces/degeneracies/rotation in q) multiplies
coefficient slots; its rotation conjugates the incoming slot by the
antipode of the product of first legs.  The horizontal family (in p)
merges Hopf slots at the price of a cocycle scalar; its rotation pushes
the last Hopf slot around while acting on every coefficient slot.  Both
wrap-around faces are defined as face_0 composed with the rotation,
which the paracyclic relations force; the closed forms are exposed
separately so the two can be compared.

The cylindricity contract, verified exhaustively: rows and columns are
paracyclic, the families commute slotwise, and the vertical rotation to
the (q+1)-st power composed with the horizontal rotation to the
(p+1)-st power is the identity.
"""

from __future__ import annotations

import functools
import itertools

from ..cycliccore import (
    AlgebraCyclicModule,
    MixedComplex,
    MixedComplexError,
    NormalizedComplex,
    OperatorTable,
    ParacyclicModule,
    QuotientStore,
    TensorSpace,
    apply_linear,
    check_paracyclic,
    degeneracy_quotient,
    first_violation,
    insert_slot,
    matrix_columns,
    merge_slots,
    require_descent,
)
from ..exactlinalg import (
    DEFAULT_DIMENSION_CAP,
    SparseMatrix,
    add_term,
    block_matrix,
    check_dimension_cap,
    expand,
    induced_map,
    vec_add_into,
)
from .coefficients import BimoduleMq, twisted_left_module


class HopfCrossedCylinder:
    """Bigraded chain spaces with the two commuting operator families.

    Basis index k at (p, q) is G * dA^(q+1) + a, G indexing the Hopf
    string g_0..g_p and a the coefficients a_0..a_q, first slot most
    significant.  Providers compute target indices from k by strides."""

    def __init__(self, hopf, action, cocycle, cap=None):
        self.hopf = hopf
        self.action = action
        self.algebra = action.algebra
        self.cocycle = cocycle
        self.field = hopf.field
        self.cap = DEFAULT_DIMENSION_CAP if cap is None else cap
        self._spaces = {}
        self._vpairs = [v for row in self.algebra.mul_table for v in row]
        self._hpairs = _twisted_products(hopf, cocycle)
        self._vrot_terms = functools.cache(
            functools.partial(_conjugation_terms, hopf, action))
        self._hrot_terms = functools.cache(
            functools.partial(_pushed_terms, hopf, action))
        self._coefficients = {}

    # -- spaces --------------------------------------------------------------

    def space(self, p, q):
        key = (p, q)
        if key not in self._spaces:
            dim = self.hopf.dim ** (p + 1) * self.algebra.dim ** (q + 1)
            check_dimension_cap(dim, self.cap)
            self._spaces[key] = TensorSpace(
                [self.hopf.dim] * (p + 1) + [self.algebra.dim] * (q + 1))
        return self._spaces[key]

    def dim(self, p, q):
        return self.space(p, q).size

    # -- vertical family (coefficient direction, degree q) --------------------

    def vface(self, p, q, i, k):
        if q < 1:
            raise ValueError("no vertical faces in column degree 0")
        if i == q:
            # the wrap-around face is face_0 composed with the rotation
            return apply_linear(self.vface, self.vrot(p, q, k), p, q, 0)
        dA = self.algebra.dim
        return merge_slots(k, dA ** (q - 1 - i), dA, self._vpairs)

    def vface_last_direct(self, p, q, k):
        """Closed form of the vertical wrap-around face; must agree with
        face_0 composed with the rotation."""
        tup = self.space(p, q).decode(k)
        gs, avs = tup[:p + 1], tup[p + 1:]
        tgt = self.space(p, q - 1)
        out = {}
        for coef, legs in self.hopf.sweedler_product([(g, 2) for g in gs]):
            u = self.hopf.product_of_basis([t[0] for t in legs])
            su = self.hopf.antipode_of(u)
            w = self.action.apply(su, {avs[q]: self.field.one})
            wa0 = self.algebra.multiply(w, {avs[0]: self.field.one})
            g2 = tuple(t[1] for t in legs)
            for t, c in expand(coef, g2 + (wa0,) + avs[1:q]).items():
                add_term(out, tgt.encode(t), c)
        return out

    def vdeg(self, p, q, i, k):
        dA = self.algebra.dim
        return insert_slot(k, dA ** (q - i), dA, self.algebra.unit)

    def vrot(self, p, q, k):
        dA = self.algebra.dim
        low = dA ** q
        hopf_string, a = divmod(k, low * dA)
        rest, last = divmod(a, dA)
        return {m * low + rest: c
                for m, c in self._vrot_terms(p, hopf_string)[last]}

    # -- horizontal family (Hopf direction, degree p) -------------------------

    def hface(self, p, q, i, k):
        if p < 1:
            raise ValueError("no horizontal faces in row degree 0")
        if i == p:
            return apply_linear(self.hface, self.hrot(p, q, k), p, q, 0)
        dH = self.hopf.dim
        return merge_slots(k, dH ** (p - 1 - i) * self.algebra.dim ** (q + 1),
                           dH, self._hpairs)

    def hface_last_direct(self, p, q, k):
        """Closed form of the horizontal wrap-around face; must agree with
        face_0 composed with the rotation."""
        tup = self.space(p, q).decode(k)
        gs, avs = tup[:p + 1], tup[p + 1:]
        tgt = self.space(p - 1, q)
        out = {}
        for c0, m in self.hopf.sweedler(gs[p], q + 3):
            for c1, (y1, y2) in self.hopf.sweedler(gs[0], 2):
                w = c0 * c1 * self.cocycle.values[m[q + 2]][y2]
                if not w:
                    continue
                head = self.hopf.algebra.multiply_basis(m[q + 1], y1)
                acted = tuple(self.action.apply_basis(m[j], avs[j])
                              for j in range(q + 1))
                for t, ct in head.items():
                    for term, c in expand(w * ct,
                                          (t,) + gs[1:p] + acted).items():
                        add_term(out, tgt.encode(term), c)
        return out

    def hdeg(self, p, q, i, k):
        dH = self.hopf.dim
        return insert_slot(k, dH ** (p - i) * self.algebra.dim ** (q + 1),
                           dH, self.hopf.algebra.unit)

    def hrot(self, p, q, k):
        dH = self.hopf.dim
        size = self.algebra.dim ** (q + 1)
        hopf_string, a = divmod(k, size)
        head, last = divmod(hopf_string, dH)
        lead, base = dH ** p * size, head * size
        return {h * lead + base + b: c
                for (h, b), c in self._hrot_terms(q, last, a)}

    # -- adapters ------------------------------------------------------------

    def row_coefficients(self, q):
        """The twisted left module of row q's coefficients (its `bimodule`
        is M_q), built with its module law verified once per cylinder.  A
        module that fails the law raises ModuleLawError and is not kept."""
        mod = self._coefficients.get(q)
        if mod is None:
            mod = self._coefficients[q] = twisted_left_module(
                BimoduleMq(self, q))
        return mod

    def row_module(self, q):
        return _RowModule(self, q)

    def column_module(self, p):
        return _ColumnModule(self, p)

    def diagonal_module(self):
        return DiagonalModule(self)


class _RowModule(ParacyclicModule):
    """The q-th row: degree p with the horizontal family.  Its checks
    read the cylinder's operator tables `tables` (see operator_tables),
    or tables of their own."""

    def __init__(self, cyl, q, tables=None):
        self.cyl = cyl
        self.q = q
        self.field = cyl.field
        self.tables = tables

    def dim(self, n):
        return self.cyl.dim(n, self.q)

    def face(self, n, i, k):
        return self.cyl.hface(n, self.q, i, k)

    def degeneracy(self, n, i, k):
        return self.cyl.hdeg(n, self.q, i, k)

    def rotate(self, n, k):
        return self.cyl.hrot(n, self.q, k)

    def operator_steps(self, max_degree):
        tables = self.tables or operator_tables(self.cyl, max_degree, self.q)
        return _family_steps(tables, "h", lambda n: (n, self.q))


class _ColumnModule(ParacyclicModule):
    """The p-th column: degree q with the vertical family.  Its checks
    read the cylinder's operator tables `tables` (see operator_tables),
    or tables of their own."""

    def __init__(self, cyl, p, tables=None):
        self.cyl = cyl
        self.p = p
        self.field = cyl.field
        self.tables = tables

    def dim(self, n):
        return self.cyl.dim(self.p, n)

    def face(self, n, i, k):
        return self.cyl.vface(self.p, n, i, k)

    def degeneracy(self, n, i, k):
        return self.cyl.vdeg(self.p, n, i, k)

    def rotate(self, n, k):
        return self.cyl.vrot(self.p, n, k)

    def operator_steps(self, max_degree):
        tables = self.tables or operator_tables(self.cyl, self.p, max_degree)
        return _family_steps(tables, "v", lambda n: (self.p, n))


def _family_steps(tables, prefix, bidegree):
    """ParacyclicModule.operator_steps for one family of the cylinder,
    read through its operator tables; bidegree(n) places degree n."""
    face, degeneracy, rotate = (tables[prefix + name]
                                for name in ("face", "deg", "rot"))
    return (lambda n, i: (face, bidegree(n) + (i,)),
            lambda n, i: (degeneracy, bidegree(n) + (i,)),
            lambda n: (rotate, bidegree(n)))


class DiagonalModule(ParacyclicModule):
    """(p, p) spaces with composed operators; genuinely cyclic."""

    def __init__(self, cyl):
        self.cyl = cyl
        self.field = cyl.field

    def dim(self, n):
        return self.cyl.dim(n, n)

    def space(self, n):
        return self.cyl.space(n, n)

    def face(self, n, i, k):
        step = self.cyl.hface(n, n, i, k)
        return apply_linear(self.cyl.vface, step, n - 1, n, i)

    def degeneracy(self, n, i, k):
        step = self.cyl.hdeg(n, n, i, k)
        return apply_linear(self.cyl.vdeg, step, n + 1, n, i)

    def rotate(self, n, k):
        return apply_linear(self.cyl.vrot, self.cyl.hrot(n, n, k), n, n)


def _twisted_products(hopf, cocycle):
    """The merged Hopf slot of each pair x * dH + y: the sum of
    c1 c2 sigma(x2, y2) x1 y1 over the coproducts of x and y."""
    table = []
    for x in range(hopf.dim):
        for y in range(hopf.dim):
            out = {}
            for c1, (x1, x2) in hopf.sweedler(x, 2):
                for c2, (y1, y2) in hopf.sweedler(y, 2):
                    vec_add_into(out, hopf.algebra.multiply_basis(x1, y1),
                                 c1 * c2 * cocycle.values[x2][y2])
            table.append(out)
    return table


def _conjugation_terms(hopf, action, p, hopf_string):
    """vrot's terms (m, c) for the Hopf string hopf_string at degree p, per
    last coefficient slot a_q: m indexes the second legs, then a_q acted
    on by the antipode of the product of the first legs."""
    dH, dA, one = hopf.dim, action.algebra.dim, hopf.field.one
    merged = [{} for _ in range(dA)]
    gs = [hopf_string // dH ** e % dH for e in range(p, -1, -1)]
    for coef, legs in hopf.sweedler_product([(g, 2) for g in gs]):
        su = hopf.antipode_of(hopf.product_of_basis([t[0] for t in legs]))
        second = sum(t[1] * dH ** (p - j) for j, t in enumerate(legs))
        for last, terms in enumerate(merged):
            for w, cw in action.apply(su, {last: one}).items():
                add_term(terms, second * dA + w, coef * cw)
    return [tuple(terms.items()) for terms in merged]


def _pushed_terms(hopf, action, q, g, a):
    """The horizontal rotation's terms for the last Hopf slot g and the
    coefficient string with index a in degree q: ((h, b), c) with h the
    leg that moves to the front and b the index of the acted string."""
    dA = action.algebra.dim
    avs = [a // dA ** e % dA for e in range(q, -1, -1)]
    merged = {}
    for c0, m in hopf.sweedler(g, q + 2):
        terms = [(0, c0)]
        for leg, x in zip(m, avs):
            terms = [(b * dA + y, c * cy) for b, c in terms
                     for y, cy in action.apply_basis(leg, x).items()]
        for b, c in terms:
            add_term(merged, (m[q + 1], b), c)
    return tuple(merged.items())


def build_cylinder(hopf, action, cocycle, cap=None):
    """The cylinder of a validated weak action and cocycle of a
    cocommutative Hopf algebra."""
    return HopfCrossedCylinder(hopf, action, cocycle, cap=cap)


def operator_tables(cyl, max_p, max_q):
    """One OperatorTable per cylinder provider, by provider name, keeping
    every image out of a bidegree through (max_p, max_q)."""
    def dim(head):
        return cyl.dim(head[0], head[1])

    def in_range(head):
        return head[0] <= max_p and head[1] <= max_q

    return {name: OperatorTable(getattr(cyl, name), cyl.field.one, dim,
                                in_range)
            for name in ("vface", "vdeg", "vrot", "hface", "hdeg", "hrot")}


def check_cylindrical(cyl, max_p, max_q):
    """Row and column paracyclicity, slotwise commutation of the two
    families, and the joint rotation identity, all on every basis vector;
    None or the first failure, named.  Every stage reads one set of
    operator tables, so each image is computed once per check (images
    outside the range that are not a basis vector or zero excepted)."""
    tables = operator_tables(cyl, max_p, max_q)
    for q in range(max_q + 1):
        bad = check_paracyclic(_RowModule(cyl, q, tables), max_p)
        if bad is not None:
            return f"row {q}: {bad}"
    for p in range(max_p + 1):
        bad = check_paracyclic(_ColumnModule(cyl, p, tables), max_q)
        if bad is not None:
            return f"column {p}: {bad}"
    bad = first_violation(_cylindrical_stages(cyl, max_p, max_q, tables),
                          cyl.field.one)
    return None if bad is None else f"{bad[0]} basis {bad[1]}"


def _cylindrical_stages(cyl, max_p, max_q, tables):
    """At each bidegree (p, q), one stage per pair of a vertical operator
    V and a horizontal one H: V at (hp, q) after H at (p, q) equals H at
    (p, vq) after V at (p, q), where H lands in (hp, q) and V in (p, vq);
    then one stage for the joint rotation identity.

    These relations read images at (p, q) and its four neighbours many
    times over, through the check's operator tables: an image is computed
    once per check, unless it lies outside (max_p, max_q) and is neither a
    basis vector nor zero, in which case it is recomputed.
    """
    vface, vdeg, vrot, hface, hdeg, hrot = (
        tables[name]
        for name in ("vface", "vdeg", "vrot", "hface", "hdeg", "hrot"))
    for p in range(max_p + 1):
        for q in range(max_q + 1):
            dim = cyl.dim(p, q)
            horizontals = _family("h", hface, hdeg, hrot, p)
            for vname, v, vi, vq in _family("v", vface, vdeg, vrot, q):
                for hname, h, hj, hp in horizontals:
                    yield dim, [(
                        f"{vname} and {hname} fail to commute at ({p},{q})",
                        ((h, (p, q) + hj), (v, (hp, q) + vi)),
                        ((v, (p, q) + vi), (h, (p, vq) + hj)))]
            yield dim, [(f"joint rotation identity fails at ({p},{q})",
                         ((hrot, (p, q)),) * (p + 1)
                         + ((vrot, (p, q)),) * (q + 1), ())]


def _family(prefix, face, degeneracy, rotate, n):
    """(label, provider, index arguments, degree it lands in) of each
    operator of one family out of degree n."""
    ops = [(f"{prefix}face_{i}", face, (i,), n - 1)
           for i in range(n + 1) if n >= 1]
    ops += [(f"{prefix}deg_{i}", degeneracy, (i,), n + 1)
            for i in range(n + 1)]
    return ops + [(f"{prefix}rot", rotate, (), n)]


# ---------------------------------------------------------------------------
# binormalization and the total mixed complex


class BinormalizedCylinder:
    """Bidegreewise quotients by both families of degeneracy images, with
    the induced boundary and Connes operators of both directions.

    The raw operators come from the cylinder's row and column modules.
    The twist T at each bidegree is the induced (q+1)-st power of the
    vertical rotation, which reads no bidegree but its own.  Its literal
    form 1 - (bB + Bb) of the vertical pair, which reads the bidegree
    above, is kept as a certificate.
    """

    def __init__(self, cyl, top_total):
        self.cyl = cyl
        self.field = cyl.field
        self.store = QuotientStore(
            lambda pq: degeneracy_quotient([(cyl.column_module(pq[0]), pq[1]),
                                            (cyl.row_module(pq[1]), pq[0])]),
            MixedComplexError)
        for total in range(top_total + 1):
            for p in range(total + 1):
                self.store.quotient((p, total - p))

    def dim(self, p, q):
        return self.store.quotient((p, q)).dim

    def vertical_boundary(self, p, q):
        return self.store.induced(
            ("bv", p, q), (p, q), (p, q - 1),
            lambda: self.cyl.column_module(p).boundary_matrix(q),
            f"bv not well defined on the normalization at ({p},{q})")

    def horizontal_boundary(self, p, q):
        return self.store.induced(
            ("bh", p, q), (p, q), (p - 1, q),
            lambda: self.cyl.row_module(q).boundary_matrix(p),
            f"bh not well defined on the normalization at ({p},{q})")

    def vertical_connes(self, p, q):
        return self.store.induced(
            ("Bv", p, q), (p, q), (p, q + 1),
            lambda: self.cyl.column_module(p).sn_matrix(q),
            f"Bv not well defined on the normalization at ({p},{q})")

    def horizontal_connes(self, p, q):
        return self.store.induced(
            ("Bh", p, q), (p, q), (p + 1, q),
            lambda: self.cyl.row_module(q).sn_matrix(p),
            f"Bh not well defined on the normalization at ({p},{q})")

    def twist(self, p, q):
        """The literal twist 1 - (bB + Bb) of the vertical pair at (p, q);
        it reads the quotient at (p, q + 1)."""
        acc = SparseMatrix.identity(self.field, self.dim(p, q))
        bB = self.vertical_boundary(p, q + 1).compose(self.vertical_connes(p, q))
        acc = acc.add(bB, self.field.sign(1))
        if q >= 1:
            Bb = self.vertical_connes(p, q - 1).compose(
                self.vertical_boundary(p, q))
            acc = acc.add(Bb, self.field.sign(1))
        return acc

    def induced_vertical_twist(self, p, q):
        """The raw vertical rotation to the (q+1)-st power, induced."""
        def power():
            rot = self.cyl.column_module(p).rotate_matrix(q)
            acc = SparseMatrix.identity(self.field, rot.cols)
            for _ in range(q + 1):
                acc = rot.compose(acc)
            return acc
        return self.store.induced(
            ("T", p, q), (p, q), (p, q), power,
            f"vertical twist not well defined at ({p},{q})")


def _components(n):
    return [(p, n - p) for p in range(n + 1)]


def tot_mixed_complex(cyl, max_degree):
    """The total mixed complex on the binormalized cylinder.

    Degree n is the direct sum of the bidegrees with p + q = n (p
    ascending), with b built through degree max_degree + 1 and B out of
    degrees below max_degree: HC_n for n <= max_degree reads nothing
    more.  The chain differential adds the horizontal boundary with a
    sign depending on the vertical degree; the degree-raising
    differential adds the horizontal Connes operator corrected by the
    twist, taken as the induced power of the vertical rotation.

    Two certificates run, and a failure of either aborts.  First, the
    twist equals its literal form 1 - (bB + Bb) at every bidegree of
    total degree <= max_degree where the Connes operator reads it (the
    literal form there reads only quotients already built); B reads no
    twist above that degree.  Then the mixed-complex identities hold
    wherever the built b and B compose.
    """
    bn = BinormalizedCylinder(cyl, max_degree + 1)
    field = cyl.field
    for n in range(1, max_degree + 1):
        for (p, q) in _components(n)[1:]:
            if bn.twist(p, q) != bn.induced_vertical_twist(p, q):
                raise MixedComplexError(
                    f"total complex identities fail: the twist at ({p},{q}) "
                    "is not 1 - (bB + Bb) of the vertical pair")

    def sizes(n):
        """The bidegrees of total degree n and their dimensions, in order."""
        return {(p, q): bn.dim(p, q) for (p, q) in _components(n)}

    def b_blocks(n):
        for (p, q) in _components(n):
            if q >= 1:
                yield (p, q - 1), (p, q), bn.vertical_boundary(p, q), None
            if p >= 1:
                yield ((p - 1, q), (p, q), bn.horizontal_boundary(p, q),
                       field.sign(q))

    def B_blocks(n):
        for (p, q) in _components(n):
            yield (p, q + 1), (p, q), bn.vertical_connes(p, q), None
            yield ((p + 1, q), (p, q), bn.induced_vertical_twist(p + 1, q)
                   .compose(bn.horizontal_connes(p, q)), field.sign(q))

    dims = [sum(sizes(n).values()) for n in range(max_degree + 2)]
    b_mats = {n: block_matrix(field, sizes(n - 1), sizes(n), b_blocks(n))
              for n in range(1, max_degree + 2)}
    B_mats = {n: block_matrix(field, sizes(n + 1), sizes(n), B_blocks(n))
              for n in range(max_degree)}
    mx = MixedComplex(field, dims, b_mats, B_mats)
    bad = mx.verify(max_degree)
    if bad is not None:
        raise MixedComplexError(f"total complex identities fail: {bad}")
    return mx


# ---------------------------------------------------------------------------
# the chain isomorphism with the crossed product's cyclic module


def crossed_to_diagonal(cyl, cp, n):
    """Matrix of the degree-n map from the crossed product's cyclic module
    to the cylinder diagonal.

    Tensor slot i of the source, a pair (a_i, g_i), contributes its Hopf
    leg i+2 to the Hopf string; coefficient slot j receives a_j acted on
    by the antipode of the product of one leg from each of g_j .. g_n.
    """
    hopf, field = cyl.hopf, cyl.field
    dH, dA = hopf.dim, cyl.algebra.dim
    src_dim = (dA * dH) ** (n + 1)
    tgt = cyl.space(n, n)
    pair = TensorSpace([dA, dH] * (n + 1))
    cols = []
    for k in range(src_dim):
        flat = pair.decode(k)
        a_part = flat[0::2]
        g_part = flat[1::2]
        out = {}
        for coef, legs in hopf.sweedler_product(
                zip(g_part, range(2, n + 3))):
            g_string = tuple(legs[i][i + 1] for i in range(n + 1))
            avecs = []
            for j in range(n + 1):
                u = hopf.product_of_basis(
                    [legs[m][m - j] for m in range(j, n + 1)])
                su = hopf.antipode_of(u)
                avecs.append(cyl.action.apply(su, {a_part[j]: field.one}))
            for t, c in expand(coef, g_string + tuple(avecs)).items():
                add_term(out, tgt.encode(t), c)
        cols.append(out)
    return SparseMatrix.from_columns(field, tgt.size, cols)


def diagonal_to_crossed(cyl, cp, n):
    """Matrix of the inverse map, diagonal to crossed product."""
    hopf, field = cyl.hopf, cyl.field
    dH, dA = hopf.dim, cyl.algebra.dim
    src = cyl.space(n, n)
    tgt_dim = (dA * dH) ** (n + 1)
    pair = TensorSpace([dA, dH] * (n + 1))
    cols = []
    for k in range(src.size):
        gs = src.decode(k)[:n + 1]
        avs = src.decode(k)[n + 1:]
        out = {}
        for coef, legs in hopf.sweedler_product(zip(gs, range(2, n + 3))):
            slots = []   # a_i, g_i, a_(i+1), ...: the crossed product's slots
            for i in range(n + 1):
                w = hopf.product_of_basis(
                    [legs[m][i] for m in range(i, n + 1)])
                slots.append(cyl.action.apply(w, {avs[i]: field.one}))
                slots.append(legs[i][i + 1])
            for t, c in expand(coef, slots).items():
                add_term(out, pair.encode(t), c)
        cols.append(out)
    return SparseMatrix.from_columns(field, tgt_dim, cols)


def check_diagonal_isomorphism(cyl, cp, max_degree):
    """Mutual inverses plus intertwining of every cyclic operator, as
    exact identities on every basis vector; None or a description of the
    first failure."""
    natural = AlgebraCyclicModule(cp.product)
    diag = cyl.diagonal_module()
    phi = matrix_columns(lambda n: crossed_to_diagonal(cyl, cp, n))
    psi = matrix_columns(lambda n: diagonal_to_crossed(cyl, cp, n))
    face, degeneracy, rotate = (
        OperatorTable(op, cyl.field.one, lambda head: diag.dim(head[0]),
                      lambda head: True)
        for op in (diag.face, diag.degeneracy, diag.rotate))

    def stages():
        for n in range(max_degree + 1):
            dim = natural.dim(n)
            yield dim, [(f"psi o phi is not the identity in degree {n}",
                         ((phi, (n,)), (psi, (n,))), ())]
            yield diag.dim(n), [
                (f"phi o psi is not the identity in degree {n}",
                 ((psi, (n,)), (phi, (n,))), ())]
            # (name, diagonal operator, natural one, index, target degree)
            ops = [("rotation", rotate, natural.rotate, (), n)]
            ops += [(f"face {i}", face, natural.face, (i,), n - 1)
                    for i in range(n + 1) if n >= 1]
            ops += [(f"degeneracy {i}", degeneracy, natural.degeneracy, (i,),
                     n + 1) for i in range(n + 1) if n < max_degree]
            for name, op, op_natural, i, m in ops:
                yield dim, [(f"{name} intertwining fails in degree {n}",
                             ((phi, (n,)), (op, (n,) + i)),
                             ((op_natural, (n,) + i), (phi, (m,))))]

    bad = first_violation(stages(), cyl.field.one)
    return None if bad is None else bad[0]


# ---------------------------------------------------------------------------
# the shuffle map


def _shuffles(p, q):
    """(positions for the first family, complement, sign) over all
    (p, q)-shuffles of {0..p+q-1}."""
    n = p + q
    for mu in itertools.combinations(range(n), p):
        nu = tuple(sorted(set(range(n)) - set(mu)))
        inversions = sum(1 for a in mu for b in nu if a > b)
        yield mu, nu, inversions


def shuffle_map(cyl, bn, diag_norm, p, q):
    """Matrix of the shuffle map from the binormalized (p, q) component
    into the normalized diagonal in degree p + q.

    Vertical degeneracies are applied at the chosen p positions (raising
    q to p+q), horizontal ones at the complement; the sign is the
    shuffle's inversion parity with a Koszul correction (-1)^(pq) that
    matches the sign placed on the horizontal boundary in the total
    differential.  The raw map is verified to descend to the quotients.
    """
    n = p + q
    field = cyl.field
    src_q = bn.store.quotient((p, q))
    dst_q = diag_norm.store.quotient(n)
    cols = []
    for k in range(cyl.dim(p, q)):
        out = {}
        for mu, nu, inv in _shuffles(p, q):
            img = {k: field.one}
            # vertical degeneracies at mu positions, ascending; raise q to n
            cur_q = q
            for pos in mu:
                img = apply_linear(cyl.vdeg, img, p, cur_q, pos)
                cur_q += 1
            cur_p = p
            for pos in nu:
                img = apply_linear(cyl.hdeg, img, cur_p, n, pos)
                cur_p += 1
            vec_add_into(out, img, field.sign(inv + p * q))
        cols.append(out)
    raw = SparseMatrix.from_columns(field, cyl.dim(n, n), cols)
    return require_descent(
        induced_map(raw, src_q, dst_q), MixedComplexError,
        f"shuffle map does not respect normalization at ({p},{q})")


def check_shuffle_chain_map(cyl, max_degree):
    """Verify that the shuffle map intertwines the total chain
    differential with the diagonal boundary through max_degree."""
    bn = BinormalizedCylinder(cyl, max_degree)
    diag_norm = NormalizedComplex(cyl.diagonal_module(), max_degree)
    field = cyl.field
    shuffle = matrix_columns(
        lambda p, q: shuffle_map(cyl, bn, diag_norm, p, q))
    boundary = matrix_columns(diag_norm.boundary_matrix)

    def total(p, q, k):
        """The total chain differential of basis vector k at (p, q), in
        the direct sum whose basis vectors are (bidegree, index) pairs."""
        out = {}
        if q >= 1:
            for i, c in bn.vertical_boundary(p, q).columns[k].items():
                out[((p, q - 1), i)] = c
        if p >= 1:
            for i, c in bn.horizontal_boundary(p, q).columns[k].items():
                out[((p - 1, q), i)] = field.sign(q) * c
        return out

    def shuffle_sum(key):
        """The shuffle map on that direct sum."""
        (p, q), k = key
        return shuffle(p, q, k)

    stages = ((bn.dim(p, q), [
        (f"shuffle map is not a chain map at ({p},{q}) column {{k}}",
         ((shuffle, (p, q)), (boundary, (n,))),
         ((total, (p, q)), (shuffle_sum, ())))])
        for n in range(1, max_degree + 1) for (p, q) in _components(n))
    bad = first_violation(stages, field.one)
    return None if bad is None else bad[0].format(k=bad[1])
