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
which the paracyclic relations force: face_0's column read through the
rotation's.

The cylindricity contract, verified exhaustively: rows and columns are
paracyclic, the families commute slotwise, and the vertical rotation to
the (q+1)-st power composed with the horizontal rotation to the
(p+1)-st power is the identity.
"""

from __future__ import annotations

import contextlib
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
    ZERO,
    TensorSpace,
    check_paracyclic,
    compose_columns,
    degeneracy_quotient,
    first_violation,
    insert_column,
    matrix_columns,
    merge_column,
    normal_image,
    paracyclic_stages,
    require_descent,
    slot_column,
    slot_images,
)
from ..exactlinalg import (
    DEFAULT_DIMENSION_CAP,
    SparseMatrix,
    add_images_into,
    add_term,
    block_matrix,
    check_dimension_cap,
    expand,
    induced_map,
    push_images,
    vec_add_into,
)
from .coefficients import BimoduleMq, twisted_left_module


class HopfCrossedCylinder:
    """Bigraded chain spaces with the two commuting operator families.

    Basis index k at (p, q) is G * dA^(q+1) + a, G indexing the Hopf
    string g_0..g_p and a the coefficients a_0..a_q, first slot most
    significant.  Each provider returns the column of one operator out of
    one bidegree, computing target indices by strides."""

    # the operator tables of the running check_cylindrical, or None
    _shared = None

    def __init__(self, hopf, action, cocycle, cap=None):
        self.hopf = hopf
        self.action = action
        self.algebra = action.algebra
        self.cocycle = cocycle
        self.field = hopf.field
        self.cap = DEFAULT_DIMENSION_CAP if cap is None else cap
        self._spaces = {}
        one = self.field.one
        self._vpairs = [normal_image(v, one)
                        for row in self.algebra.mul_table for v in row]
        self._hpairs = [normal_image(v, one)
                        for v in _twisted_products(hopf, cocycle)]
        self._aunit = normal_image(self.algebra.unit, one)
        self._hunit = normal_image(hopf.algebra.unit, one)
        # vrot's terms by degree, the antipode's action by first-leg
        # product and the Sweedler strings of the highest degree built (the
        # empty string's one term: the unit): kept per cylinder
        self._vrot_terms = []
        self._antipode_actions = {}
        self._strings = [[(one, self._product_action(hopf.algebra.unit), 0)]]
        self._hrot_terms = functools.cache(
            functools.partial(_pushed_terms, hopf, action))
        self._coefficients = {}
        self._module_keys = set()

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

    # -- the tables of a check ----------------------------------------------

    @contextlib.contextmanager
    def shared_tables(self):
        """operator_tables(self) for the block: the row and column modules'
        checks read them, and so do the wrap-around faces."""
        self._shared = operator_tables(self)
        try:
            yield self._shared
        finally:
            self._shared = None

    def tables(self):
        """The shared tables while a block holds them, else fresh ones."""
        return self._shared or operator_tables(self)

    def _column(self, name, head):
        """The column of provider `name` at the head, kept by the shared
        tables while a block holds them."""
        if self._shared is None:
            return getattr(self, name)(*head)
        return self._shared[name].column(head)[0]

    # -- vertical family (coefficient direction, degree q) --------------------

    def vface(self, p, q, i):
        if q < 1:
            raise ValueError("no vertical faces in column degree 0")
        if i == q:
            # the wrap-around face is face_0 composed with the rotation
            return compose_columns(self._column("vface", (p, q, 0)),
                                   self._column("vrot", (p, q)), self.field)
        dA = self.algebra.dim
        return merge_column(self.dim(p, q), dA ** (q - 1 - i), dA,
                            self._vpairs)

    def vdeg(self, p, q, i):
        dA = self.algebra.dim
        return insert_column(self.dim(p, q), dA ** (q - i), dA, self._aunit)

    def vrot(self, p, q):
        # basis vector (G, rest, last) goes to the terms m of G's
        # conjugation of `last`, each followed by `rest`
        dA = self.algebra.dim
        low = dA ** q
        block = low * dA
        out = [ZERO] * self.dim(p, q)
        for hopf_string, images in enumerate(self._conjugation_terms(p)):
            base = hopf_string * block
            for last, terms in enumerate(images):
                out[base + last:base + block:dA] = slot_images(terms, 0, low)
        return out

    def _conjugation_terms(self, p):
        """vrot's images, in normal form, for every Hopf string at degree p,
        by string index, each per last coefficient slot a_q: its terms m
        index the second legs, then a_q acted on by the antipode of the
        product of the first legs.

        A string's Sweedler terms (coefficient, product of the first legs,
        index of the second legs) extend those of the string without its
        last slot by one coproduct and one product per term, so every
        degree through p is built once, from the one below, and only the
        highest degree's strings are kept."""
        hopf, field, out = self.hopf, self.field, self._vrot_terms
        dA, one, mod = self.algebra.dim, field.one, field.characteristic
        while len(out) <= p:
            self._strings = strings = [
                [(field.of(coef * c),
                  self._product_action(hopf.multiply(dict(product), {a: one})),
                  second * hopf.dim + b)
                 for coef, (product, _), second in prefix
                 for c, (a, b) in hopf.sweedler(g, 2)]
                for prefix in self._strings for g in range(hopf.dim)]
            images = []
            for string in strings:
                merged = [{} for _ in range(dA)]
                for coef, (_, acted), second in string:
                    base = second * dA
                    for terms, image in zip(merged, acted):
                        for w, cw in image.items():
                            add_term(terms, base + w, coef * cw, mod)
                images.append([normal_image(terms, one) for terms in merged])
            out.append(images)
        return out[p]

    def _product_action(self, product):
        """(a first-leg product's items as a frozenset, its antipode acting
        on each coefficient basis vector): built once per distinct
        product, and shared by every string term with that product."""
        key = frozenset(product.items())
        got = self._antipode_actions.get(key)
        if got is None:
            su, one = self.hopf.antipode_of(product), self.field.one
            got = self._antipode_actions[key] = (key, [
                self.action.apply(su, {a: one})
                for a in range(self.algebra.dim)])
        return got

    # -- horizontal family (Hopf direction, degree p) -------------------------

    def hface(self, p, q, i):
        if p < 1:
            raise ValueError("no horizontal faces in row degree 0")
        if i == p:
            return compose_columns(self._column("hface", (p, q, 0)),
                                   self._column("hrot", (p, q)), self.field)
        dH = self.hopf.dim
        return merge_column(self.dim(p, q),
                            dH ** (p - 1 - i) * self.algebra.dim ** (q + 1),
                            dH, self._hpairs)

    def hdeg(self, p, q, i):
        dH = self.hopf.dim
        return insert_column(self.dim(p, q),
                             dH ** (p - i) * self.algebra.dim ** (q + 1), dH,
                             self._hunit)

    def hrot(self, p, q):
        # basis vector (head, last, a) goes to the terms of (last, a) with
        # the moved leg at stride `lead`, shifted by head
        dH = self.hopf.dim
        size = self.algebra.dim ** (q + 1)
        lead = dH ** p * size
        one = self.field.one
        tail = [normal_image({h * lead + b: c
                              for (h, b), c in self._hrot_terms(q, last, a)},
                             one)
                for last in range(dH) for a in range(size)]
        return slot_column(range(0, lead, size), tail, 1)

    # -- adapters ------------------------------------------------------------

    def row_coefficients(self, q):
        """The twisted left module of row q's coefficients (its `bimodule`
        is M_q), built once per cylinder, with its module law verified
        unless an earlier row's module has its module_key.  A module that
        fails the law raises ModuleLawError and is not kept."""
        mod = self._coefficients.get(q)
        if mod is None:
            mod = self._coefficients[q] = twisted_left_module(
                BimoduleMq(self, q), self._module_keys)
        return mod

    def row_module(self, q):
        return _RowModule(self, q)

    def column_module(self, p):
        return _ColumnModule(self, p)

    def diagonal_module(self):
        return DiagonalModule(self)


class _RowModule(ParacyclicModule):
    """The q-th row: degree p with the horizontal family."""

    def __init__(self, cyl, q):
        self.cyl = cyl
        self.q = q
        self.field = cyl.field

    def dim(self, n):
        return self.cyl.dim(n, self.q)

    def face(self, n, i):
        return self.cyl.hface(n, self.q, i)

    def degeneracy(self, n, i):
        return self.cyl.hdeg(n, self.q, i)

    def rotate(self, n):
        return self.cyl.hrot(n, self.q)

    def operator_steps(self):
        return _family_steps(self.cyl, ("hface", "hdeg", "hrot"),
                             lambda n: (n, self.q))


class _ColumnModule(ParacyclicModule):
    """The p-th column: degree q with the vertical family."""

    def __init__(self, cyl, p):
        self.cyl = cyl
        self.p = p
        self.field = cyl.field

    def dim(self, n):
        return self.cyl.dim(self.p, n)

    def face(self, n, i):
        return self.cyl.vface(self.p, n, i)

    def degeneracy(self, n, i):
        return self.cyl.vdeg(self.p, n, i)

    def rotate(self, n):
        return self.cyl.vrot(self.p, n)

    def operator_steps(self):
        return _family_steps(self.cyl, ("vface", "vdeg", "vrot"),
                             lambda n: (self.p, n))


def _family_steps(cyl, names, place):
    """(d, s, t) as ParacyclicModule.operator_steps gives them, reading
    the cylinder's tables of the face, degeneracy and rotation providers
    `names` at the bidegree place(n)."""
    face, degeneracy, rotate = (cyl.tables()[name] for name in names)
    return (lambda n, i: (face, place(n) + (i,)),
            lambda n, i: (degeneracy, place(n) + (i,)),
            lambda n: (rotate, place(n)))


class DiagonalModule(ParacyclicModule):
    """(p, p) spaces with composed operators; genuinely cyclic."""

    def __init__(self, cyl):
        self.cyl = cyl
        self.field = cyl.field

    def dim(self, n):
        return self.cyl.dim(n, n)

    def space(self, n):
        return self.cyl.space(n, n)

    def face(self, n, i):
        return compose_columns(self.cyl.vface(n - 1, n, i),
                               self.cyl.hface(n, n, i), self.field)

    def degeneracy(self, n, i):
        return compose_columns(self.cyl.vdeg(n + 1, n, i),
                               self.cyl.hdeg(n, n, i), self.field)

    def rotate(self, n):
        return compose_columns(self.cyl.vrot(n, n), self.cyl.hrot(n, n),
                               self.field)


def _twisted_products(hopf, cocycle):
    """The merged Hopf slot of each pair x * dH + y: the sum of
    c1 c2 sigma(x2, y2) x1 y1 over the coproducts of x and y."""
    table, p = [], hopf.field.characteristic
    for x in range(hopf.dim):
        for y in range(hopf.dim):
            out = {}
            for c1, (x1, x2) in hopf.sweedler(x, 2):
                for c2, (y1, y2) in hopf.sweedler(y, 2):
                    vec_add_into(out, hopf.algebra.multiply_basis(x1, y1),
                                 c1 * c2 * cocycle.values[x2][y2], p)
            table.append(out)
    return table


def _pushed_terms(hopf, action, q, g, a):
    """The horizontal rotation's terms for the last Hopf slot g and the
    coefficient string with index a in degree q: ((h, b), c) with h the
    leg that moves to the front and b the index of the acted string."""
    dA, p = action.algebra.dim, hopf.field.characteristic
    avs = [a // dA ** e % dA for e in range(q, -1, -1)]
    merged = {}
    for c0, m in hopf.sweedler(g, q + 2):
        terms = [(0, c0)]
        for leg, x in zip(m, avs):
            terms = [(b * dA + y, c * cy) for b, c in terms
                     for y, cy in action.apply_basis(leg, x).items()]
        for b, c in terms:
            add_term(merged, (m[q + 1], b), c, p)
    return tuple(merged.items())


def build_cylinder(hopf, action, cocycle, cap=None):
    """The cylinder of a validated weak action and cocycle of a
    cocommutative Hopf algebra."""
    return HopfCrossedCylinder(hopf, action, cocycle, cap=cap)


PROVIDER_NAMES = ("vface", "vdeg", "vrot", "hface", "hdeg", "hrot")


def operator_tables(cyl):
    """One OperatorTable per cylinder provider, by provider name."""
    return {name: OperatorTable(getattr(cyl, name))
            for name in PROVIDER_NAMES}


def check_cylindrical(cyl, max_p, max_q):
    """Row and column paracyclicity, slotwise commutation of the two
    families, and the joint rotation identity, all on every basis vector;
    None or the first failure, named.

    One set of operator tables serves the whole check, and the
    wrap-around faces read face_0's and the rotation's columns from it,
    so each column is computed once.  After each row check, each column
    check and the relations at each bidegree, the tables drop every
    column that no later one of them reads."""
    with cyl.shared_tables() as tables:
        scopes = itertools.chain(
            (_paracyclic_scope(f"row {q}", _RowModule(cyl, q), max_p)
             for q in range(max_q + 1)),
            (_paracyclic_scope(f"column {p}", _ColumnModule(cyl, p), max_q)
             for p in range(max_p + 1)),
            (_commutation_scope(cyl, p, q)
             for p in range(max_p + 1) for q in range(max_q + 1)))
        # the index of the last scope that reads each step
        last, runs = {}, []
        for index, (reads, run) in enumerate(scopes):
            last.update(dict.fromkeys(reads, index))
            runs.append(run)
        for index, run in enumerate(runs):
            bad = run()
            if bad is not None:
                return bad
            for table in tables.values():
                table.retain(lambda head, table=table:
                             last.get((table, head), -1) > index)
    return None


def _reads(stages):
    """Every (operator, head) step the stages read."""
    return {step for _, relations in stages
            for _, lhs, rhs in relations for step in lhs + rhs}


def _paracyclic_scope(label, module, top):
    """(the steps check_paracyclic(module, top) reads, a function that
    runs it and names its failure)."""
    def run():
        bad = check_paracyclic(module, top)
        return None if bad is None else f"{label}: {bad}"
    steps = module.operator_steps()
    return _reads(paracyclic_stages(module, top, steps)), run


def _commutation_scope(cyl, p, q):
    """(the steps the relations at (p, q) read, a function that checks
    them and names the first failure)."""
    def run():
        bad = first_violation(_cylindrical_stages(cyl, p, q), cyl.field)
        return None if bad is None else f"{bad[0]} basis {bad[1]}"
    return _reads(_cylindrical_stages(cyl, p, q)), run


def _cylindrical_stages(cyl, p, q):
    """At the bidegree (p, q), one stage per pair of a vertical operator
    V and a horizontal one H: V at (hp, q) after H at (p, q) equals H at
    (p, vq) after V at (p, q), where H lands in (hp, q) and V in (p, vq);
    then one stage for the joint rotation identity.  They read the
    columns at (p, q) and its four neighbours through the shared tables.
    """
    vface, vdeg, vrot, hface, hdeg, hrot = (
        cyl.tables()[name] for name in PROVIDER_NAMES)
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
            rot = self.cyl.column_module(p).rotate_matrix(q).columns
            images = range(len(rot))
            for _ in range(q + 1):
                images = push_images(rot, images, self.field.characteristic)
            return SparseMatrix._of(self.field, len(rot), images)
        return self.store.induced(
            ("T", p, q), (p, q), (p, q), power,
            f"vertical twist not well defined at ({p},{q})")


def _components(n):
    return [(p, n - p) for p in range(n + 1)]


def _chain_blocks(bn, p, q):
    """The `block_matrix` placements of the total chain differential out
    of (p, q): b^v into (p, q - 1), then (-1)^q b^h into (p - 1, q)."""
    if q >= 1:
        yield (p, q - 1), (p, q), bn.vertical_boundary(p, q), None
    if p >= 1:
        yield ((p - 1, q), (p, q), bn.horizontal_boundary(p, q),
               bn.field.sign(q))


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
            yield from _chain_blocks(bn, p, q)

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
    p = field.characteristic
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
            for t, c in expand(coef, g_string + tuple(avecs), p).items():
                add_term(out, tgt.encode(t), c, p)
        cols.append(out)
    return SparseMatrix.from_columns(field, tgt.size, cols)


def diagonal_to_crossed(cyl, cp, n):
    """Matrix of the inverse map, diagonal to crossed product."""
    hopf, field = cyl.hopf, cyl.field
    p = field.characteristic
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
            for t, c in expand(coef, slots, p).items():
                add_term(out, pair.encode(t), c, p)
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
        OperatorTable(op) for op in (diag.face, diag.degeneracy, diag.rotate))

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

    bad = first_violation(stages(), cyl.field)
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
    cols = [{} for _ in range(cyl.dim(p, q))]
    for mu, nu, inv in _shuffles(p, q):
        images = range(cyl.dim(p, q))
        # vertical degeneracies at mu positions, ascending; raise q to n
        cur_q = q
        for pos in mu:
            images = compose_columns(cyl.vdeg(p, cur_q, pos), images, field)
            cur_q += 1
        cur_p = p
        for pos in nu:
            images = compose_columns(cyl.hdeg(cur_p, n, pos), images, field)
            cur_p += 1
        add_images_into(cols, images, field.sign(inv + p * q),
                        field.characteristic)
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

    def total(p, q):
        """The total chain differential's column at (p, q), in the direct
        sum of (p, q - 1), then (p - 1, q): the blocks `tot_mixed_complex`
        places."""
        blocks = list(_chain_blocks(bn, p, q))
        return block_matrix(field, {r: m.rows for r, _, m, _ in blocks},
                            {(p, q): bn.dim(p, q)}, blocks).columns

    def shuffle_sum(p, q):
        """The shuffle map on that direct sum."""
        out = []
        if q >= 1:
            out += shuffle(p, q - 1)
        if p >= 1:
            out += shuffle(p - 1, q)
        return out

    stages = ((bn.dim(p, q), [
        (f"shuffle map is not a chain map at ({p},{q}) column {{k}}",
         ((shuffle, (p, q)), (boundary, (n,))),
         ((total, (p, q)), (shuffle_sum, (p, q))))])
        for n in range(1, max_degree + 1) for (p, q) in _components(n))
    bad = first_violation(stages, field)
    return None if bad is None else bad[0].format(k=bad[1])
