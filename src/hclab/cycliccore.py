"""Paracyclic modules, mixed complexes and their homology.

A paracyclic module is presented operationally: per-degree dimensions
plus providers, one per face, degeneracy and the cyclic rotation out of
a degree, each returning a column: the list of the images of every basis
vector, indexed by basis index.  An image is kept in one normal form,
`normal_image`: an int index if it is a single basis vector with
coefficient one, the shared ZERO if it is zero, else a sparse vector.
Operators are materialized to matrices only per degree, inside rank
computations, by copying those same columns.

Identity checks never materialize: each relation is a row of two
operator words, evaluated by first_violation over a stage's whole basis
at once, and each check reads every operator through one OperatorTable
of its own, which keeps each column it reads.  The evaluator takes a
word's first column as its images, maps indices through a later step's
column with one builtin map, and compares an index with its sparse form
as one vector.

Sign conventions, pinned once and exercised by the mixed-complex
contract (b*b = 0, B*B = 0, bB + Bb = 0 on normalized cyclic modules):

    b = sum_i (-1)^i face_i
    lambda = (-1)^n rotate           (degree n)
    N = sum_{i=0..n} lambda^i
    extra degeneracy s = rotate o degeneracy_n
    B = (1 - lambda) s N,            normalized form: s N

On a merely paracyclic module the normalized operators satisfy
bB + Bb = 1 - T with T the rotation to the (n+1)-st power; T = 1 on
cyclic modules, which recovers the contract.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .exactlinalg import (
    DEFAULT_DIMENSION_CAP,
    MathError,
    NotWellDefined,
    SparseMatrix,
    Subspace,
    add_term,
    block_matrix,
    check_dimension_cap,
    induced_map,
    mat_rank,
    quotient_space,
    vec_add_into,
)


class TensorSpace:
    """Flat indexing for a tensor product of labelled factors."""

    __slots__ = ("dims", "size", "_strides")

    def __init__(self, dims):
        self.dims = tuple(dims)
        size = 1
        strides = []
        for d in reversed(self.dims):
            strides.append(size)
            size *= d
        self.size = size
        self._strides = tuple(reversed(strides))

    def encode(self, tup):
        idx = 0
        for t, s in zip(tup, self._strides):
            idx += t * s
        return idx

    def decode(self, idx):
        out = []
        for s in self._strides:
            out.append(idx // s)
            idx %= s
        return tuple(out)


# the zero image of every column; shared, so never mutated
ZERO = {}


def normal_image(image, one):
    """A sparse vector in the form columns hold it: its int index if it
    is a single basis vector with coefficient one, ZERO if it is zero,
    else itself."""
    if not image:
        return ZERO
    if len(image) == 1:
        [(j, c)] = image.items()
        if c == one:
            return j
    return image


def slot_images(image, base, stride):
    """The images of the `stride` basis vectors base + lo, lo < stride,
    when a slot of stride `stride` receives `image` (in normal form): the
    term t of image lands at base + lo + t * stride.  One basis vector
    gives a range."""
    if type(image) is int:
        start = base + image * stride
        return range(start, start + stride)
    if image is ZERO:
        return [ZERO] * stride
    return [{b + t * stride: c for t, c in image.items()}
            for b in range(base, base + stride)]


def merge_column(dim, stride, d, pairs, e=None):
    """The column, over the dim basis vectors of the source, of the
    operator merging the slots x, of size d and stride e * stride, and y,
    of size e (d if None) and stride `stride`, into the slot of y holding
    pairs[x * e + y]."""
    e = d if e is None else e
    out = []
    for base in range(0, dim // d, e * stride):
        for pair in pairs:
            out.extend(slot_images(pair, base, stride))
    return out


def insert_column(dim, stride, d, unit):
    """The column, over the dim basis vectors of the source, of the
    operator inserting a slot of size d holding `unit` at stride
    `stride`."""
    out = []
    for base in range(0, dim * d, d * stride):
        out.extend(slot_images(unit, base, stride))
    return out


def apply_linear(column, vec, p=0):
    """The image of a sparse vector, mod p, under the operator whose
    image of basis vector k is column[k]: a sparse vector or an int."""
    out = {}
    for k, c in vec.items():
        image = column[k]
        if type(image) is int:
            add_term(out, image, c, p)
        else:
            vec_add_into(out, image, c, p)
    return out


def compose_columns(outer, inner, field):
    """The column of outer after inner, in normal form."""
    p, one = field.characteristic, field.one
    return [outer[v] if type(v) is int
            else v and normal_image(apply_linear(outer, v, p), one)
            for v in inner]


def _all_indices(images):
    """Whether every image in the list is an int index."""
    return set(map(type, images)) <= {int}


class OperatorTable:
    """One operator's columns op(*head), one per head (the arguments that
    place the operator), each computed on first read and kept with
    whether all its images are int indices.

    An identity check builds its own tables, so no column outlives the
    check, and may drop columns it reads no more; readers share the
    lists and must not mutate them or the images in them."""

    def __init__(self, op):
        self.op = op
        self._columns = {}

    def column(self, head):
        """(the list of every image of a head, whether all are int
        indices)."""
        got = self._columns.get(head)
        if got is None:
            images = self.op(*head)
            got = self._columns[head] = images, _all_indices(images)
        return got

    def retain(self, keep):
        """Drop every kept column whose head fails `keep`."""
        self._columns = {head: got for head, got in self._columns.items()
                         if keep(head)}


class ParacyclicModule:
    """Base class; subclasses provide dims and the operator families,
    each as the column of one operator out of one degree.

    Every raw operator matrix is built here, from those columns, and is
    not kept: its users keep what they induce from it.  A module with
    faces only inherits b."""

    field = None

    def dim(self, n):
        raise NotImplementedError

    def face(self, n, i):
        raise NotImplementedError

    def degeneracy(self, n, i):
        raise NotImplementedError

    def rotate(self, n):
        raise NotImplementedError

    # matrix-backed modules only know finitely many degrees; provider
    # modules can answer everywhere
    def face_available(self, n):
        return n >= 1

    def degeneracy_available(self, n):
        return n >= 0

    def rotate_available(self, n):
        return n >= 0

    def operator_steps(self):
        """(d, s, t) for the relation table: d(n, i), s(n, i) and t(n) are
        the (operator, args) steps of face_i, deg_i and the rotation out
        of degree n, read through one OperatorTable per operator."""
        face, degeneracy, rotate = (
            OperatorTable(op)
            for op in (self.face, self.degeneracy, self.rotate))
        return (lambda n, i: (face, (n, i)),
                lambda n, i: (degeneracy, (n, i)),
                lambda n: (rotate, (n,)))

    # -- materialized matrices ---------------------------------------------

    def face_matrix(self, n, i):
        return SparseMatrix.from_columns(self.field, self.dim(n - 1),
                                         self.face(n, i))

    def degeneracy_matrix(self, n, i):
        return SparseMatrix.from_columns(self.field, self.dim(n + 1),
                                         self.degeneracy(n, i))

    def rotate_matrix(self, n):
        return SparseMatrix.from_columns(self.field, self.dim(n),
                                         self.rotate(n))

    def boundary_matrix(self, n):
        """b = alternating sum of the faces, each added in place into
        face_0's fresh matrix; the zero map for n = 0."""
        if n == 0:
            return SparseMatrix.zero(self.field, 0, self.dim(0))
        out, p = self.face_matrix(n, 0), self.field.characteristic
        for i in range(1, n + 1):
            sign = self.field.sign(i)
            for col, image in zip(out.columns, self.face(n, i), strict=True):
                if type(image) is int:
                    add_term(col, image, sign, p)
                elif image is not ZERO:
                    vec_add_into(col, image, sign, p)
        return out

    def signed_rotation_matrix(self, n):
        return self.rotate_matrix(n).scale(self.field.sign(n))

    def norm_matrix(self, n):
        """N = 1 + lambda + ... + lambda^n."""
        lam = self.signed_rotation_matrix(n)
        acc = SparseMatrix.identity(self.field, self.dim(n))
        total = acc
        for _ in range(n):
            acc = lam.compose(acc)
            total = total.add(acc)
        return total

    def extra_degeneracy_matrix(self, n):
        """s = rotate o last degeneracy : degree n -> degree n+1."""
        return self.rotate_matrix(n + 1).compose(self.degeneracy_matrix(n, n))

    def sn_matrix(self, n):
        """s N : degree n -> degree n+1, the Connes boundary of the
        normalized complex before it is induced there."""
        return self.extra_degeneracy_matrix(n).compose(self.norm_matrix(n))

    def connes_matrix(self, n):
        """The unnormalized Connes boundary (1 - lambda) s N."""
        sn = self.sn_matrix(n)
        lam = self.signed_rotation_matrix(n + 1)
        return sn.add(lam.compose(sn), self.field.sign(1))


@dataclass
class HomologyReport:
    degrees: list
    dims: list
    method: str


@dataclass
class RelationViolation:
    relation: str
    degree: int
    basis_index: int

    def __str__(self):
        return (f"{self.relation} fails in degree {self.degree} "
                f"at basis vector {self.basis_index}")


class AlgebraCyclicModule(ParacyclicModule):
    """The cyclic module of a unital algebra: degree n is the (n+1)-fold
    tensor power, faces multiply adjacent tensor slots (the last face
    wraps), degeneracies insert the unit, the rotation cycles slots."""

    def __init__(self, algebra, cap=None):
        self.algebra = algebra
        self.field = algebra.field
        self._spaces = {}
        self.cap = DEFAULT_DIMENSION_CAP if cap is None else cap
        one = self.field.one
        self._pairs = [normal_image(v, one)
                       for row in algebra.mul_table for v in row]
        self._unit = normal_image(algebra.unit, one)

    def space(self, n):
        if n not in self._spaces:
            check_dimension_cap(self.algebra.dim ** (n + 1), self.cap)
            self._spaces[n] = TensorSpace([self.algebra.dim] * (n + 1))
        return self._spaces[n]

    def dim(self, n):
        return self.space(n).size

    def face(self, n, i):
        if n < 1:
            raise ValueError("no faces in degree 0")
        d = self.algebra.dim
        if i == n:
            # the wrap-around face is face_0 after the rotation
            return list(map(self.face(n, 0).__getitem__,
                            _rotation_column(self.dim(n), d)))
        return merge_column(self.dim(n), d ** (n - 1 - i), d, self._pairs)

    def degeneracy(self, n, i):
        d = self.algebra.dim
        return insert_column(self.dim(n), d ** (n - i), d, self._unit)

    def rotate(self, n):
        return _rotation_column(self.dim(n), self.algebra.dim)


def _rotation_column(dim, d):
    """The column of indices of the rotation that moves the last slot, of
    size d, of a tensor power of dimension dim to the front: basis vector
    a * d + r goes to r * (dim / d) + a."""
    low = dim // d
    out = [0] * dim
    for r in range(d):
        out[r::d] = range(r * low, (r + 1) * low)
    return out


class MatrixParacyclicModule(ParacyclicModule):
    """A paracyclic module with explicitly stored operator matrices,
    defined through a maximal degree."""

    def __init__(self, field, dims, faces, degeneracies, rotations):
        self.field = field
        self.dims = dims                    # list indexed by degree
        self.faces = faces                  # {(n, i): matrix}
        self.degeneracies = degeneracies    # {(n, i): matrix}
        self.rotations = rotations          # {n: matrix}
        self.max_degree = len(dims) - 1

    def dim(self, n):
        return self.dims[n]

    def face(self, n, i):
        return self._column(self.faces, (n, i), n)

    def degeneracy(self, n, i):
        return self._column(self.degeneracies, (n, i), n)

    def rotate(self, n):
        return self._column(self.rotations, n, n)

    def _column(self, matrices, key, n):
        """The stored matrix's columns in normal form; out of a zero space
        none, where no matrix need be stored."""
        if key not in matrices and self.dims[n] == 0:
            return []
        one = self.field.one
        return [normal_image(col, one) for col in matrices[key].columns]

    def face_available(self, n):
        return (n, 0) in self.faces or (1 <= n <= self.max_degree
                                        and self.dims[n] == 0)

    def degeneracy_available(self, n):
        return (n, 0) in self.degeneracies or (0 <= n <= self.max_degree
                                               and self.dims[n] == 0)

    def rotate_available(self, n):
        return n in self.rotations


def first_violation(stages, field):
    """The first relation that fails, as (name, basis index k), or None.

    A relation is a row (name, lhs, rhs) of two words.  A word is a
    sequence of (operator, args) steps applied in turn; the empty word is
    the identity.  An operator is an OperatorTable, read at the head
    args, or a function whose op(*args) is the column the step reads:
    the list of the images of every basis vector, each an int basis index
    for a single basis vector with coefficient one or a sparse vector.  A
    stage (dim, relations) is evaluated over all k < dim at once, a list
    of images per word, so the failure is the first failing stage's least
    failing k and the earliest row failing there: what a walk of the
    rows on one basis vector after another meets first.  Images are only
    compared, so may be shared.  The scalars are those of `field`.
    """
    p, one = field.characteristic, field.one
    for dim, relations in stages:
        # the distinct steps of the stage, each column read once
        steps = {}
        rows = [(name, _compile(lhs, steps), _compile(rhs, steps))
                for name, lhs, rhs in relations]
        first = None
        for name, lhs, rhs in rows:
            k = _first_difference(_images(lhs, dim, p), _images(rhs, dim, p),
                                  dim if first is None else first[1], one)
            if k is not None:
                first = name, k
        if first is not None:
            return first
    return None


def _compile(word, steps):
    """The word's steps, each as (its column, whether all its images are
    int indices), read once per stage through `steps`."""
    out = []
    for step in word:
        column = steps.get(step)
        if column is None:
            op, args = step
            if not isinstance(op, OperatorTable):
                op = OperatorTable(op)
            column = steps[step] = op.column(args)
        out.append(column)
    return out


def _images(word, dim, p):
    """The list of a compiled word's images of basis vectors 0..dim-1:
    one builtin map through a step while every image is an index."""
    if not word:
        return list(range(dim))
    (images, indices), *rest = word
    for column, to_indices in rest:
        if indices:
            images = list(map(column.__getitem__, images))
            indices = to_indices or _all_indices(images)
        else:
            # a zero image stays the zero it is
            images = [column[v] if type(v) is int
                      else v and apply_linear(column, v, p) for v in images]
    return images


def _first_difference(u, v, end, one):
    """The least k < end where the image lists u and v differ, or None."""
    return None if u == v else next(
        (k for k in range(end) if not _same(u[k], v[k], one)), None)


def _same(u, v, one):
    """Whether two images, each an int basis index or a sparse vector,
    are the same vector."""
    if type(u) is int:
        if type(v) is int:
            return u == v
        u, v = v, u
    elif type(v) is not int:
        return u == v
    return len(u) == 1 and u.get(v) == one


def matrix_columns(build):
    """The column function whose column at the arguments `head` is the
    list of columns of build(*head); each matrix is built once, on first
    use."""
    build = functools.cache(build)

    def columns(*head):
        return build(*head).columns
    return columns


def paracyclic_stages(module, max_degree, steps):
    """Every simplicial and paracyclic relation on every basis vector,
    one stage per degree n through max_degree, each row named
    (relation, n), read through the steps module.operator_steps gave.

    Relations whose composites land in degree max_degree + 1 are checked
    whenever the module has operators there (provider-backed modules
    always do; matrix-backed ones answer through their stored range).
    """
    d, s, t = steps
    for n in range(max_degree + 1):
        can_deg = module.degeneracy_available(n)
        rows = []
        if n >= 2:
            rows += [(f"face_{i} face_{j} = face_{j-1} face_{i}",
                      (d(n, j), d(n - 1, i)), (d(n, i), d(n - 1, j - 1)))
                     for j in range(1, n + 1) for i in range(j)]
        if can_deg and module.degeneracy_available(n + 1):
            rows += [(f"deg_{i} deg_{j} = deg_{j+1} deg_{i}",
                      (s(n, j), s(n + 1, i)), (s(n, i), s(n + 1, j + 1)))
                     for j in range(n + 1) for i in range(j + 1)]
        if can_deg and module.face_available(n + 1):
            rows += [(f"face_{i} deg_{j} mismatch", (s(n, j), d(n + 1, i)),
                      () if i in (j, j + 1) else
                      (d(n, i), s(n - 1, j - 1)) if i < j else
                      (d(n, i - 1), s(n - 1, j)))
                     for j in range(n + 1) for i in range(n + 2)]
        if n >= 1:
            rows.append(("face_0 rotate = face_n", (t(n), d(n, 0)),
                         (d(n, n),)))
            rows += [(f"face_{i} rotate = rotate face_{i-1}",
                      (t(n), d(n, i)), (d(n, i - 1), t(n - 1)))
                     for i in range(1, n + 1)]
        if can_deg and module.rotate_available(n + 1):
            rows += [(f"deg_{i} rotate = rotate deg_{i-1}",
                      (t(n), s(n, i)), (s(n, i - 1), t(n + 1)))
                     for i in range(1, n + 1)]
            rows.append(("deg_0 rotate = rotate^2 deg_n", (t(n), s(n, 0)),
                         (s(n, n), t(n + 1), t(n + 1))))
        yield module.dim(n), [((name, n), lhs, rhs) for name, lhs, rhs in rows]


def check_paracyclic(module, max_degree):
    """Verify every simplicial and paracyclic relation on every basis
    vector through max_degree; None, or the first violation found."""
    steps = module.operator_steps()
    bad = first_violation(paracyclic_stages(module, max_degree, steps),
                          module.field)
    return None if bad is None else RelationViolation(*bad[0], bad[1])


def check_cyclic(module, max_degree):
    """check_paracyclic plus rotate^(n+1) = id in every degree; both
    read one table of each operator, so every rotation image through
    max_degree is evaluated once."""
    steps = module.operator_steps()
    t = steps[2]
    identities = [(module.dim(n), [(("rotate^(n+1) = id", n),
                                    (t(n),) * (n + 1), ())])
                  for n in range(max_degree + 1)]
    bad = first_violation([*paracyclic_stages(module, max_degree, steps),
                           *identities], module.field)
    return None if bad is None else RelationViolation(*bad[0], bad[1])


class NormalizationError(MathError):
    pass


def require_descent(induced, error, message):
    """The matrix `induced_map` returned, or error(message) when it found
    that the map does not descend; the message may name the offending
    denominator vector as {basis_vector}, printed with its entries in
    increasing column order."""
    if isinstance(induced, NotWellDefined):
        raise error(message.format(
            basis_vector=dict(sorted(induced.basis_vector.items()))))
    return induced


def degeneracy_quotient(pieces):
    """One space modulo every degeneracy image that lands in it.

    `pieces` lists (module, n) pairs that all have the space in degree n;
    each contributes the images of its degeneracies out of degree n - 1.
    If all are int indices, the denominator is built as the RREF `rref`
    would give: the distinct indices as pivots, with unit rows.
    """
    module, n = pieces[0]
    field, dim = module.field, module.dim(n)
    images = [image for module, n in pieces for i in range(n)
              for image in module.degeneracy(n - 1, i)]
    if _all_indices(images):
        pivots = sorted(set(images))
        denominator = Subspace(field, dim, pivots,
                               [{k: field.one} for k in pivots])
    else:
        denominator = Subspace.from_vectors(
            field, dim,
            [{v: field.one} if type(v) is int else v for v in images])
    return quotient_space(dim, denominator)


class QuotientStore:
    """The quotients of one normalization, by key, each built as
    build(key) on first read, and the operators induced between them, by
    key, each built once.  Into a zero quotient an operator is the zero
    map and its raw matrix is never built (descent holds vacuously); any
    other raw matrix must descend, or error(message) is raised."""

    def __init__(self, build, error):
        self.quotient = functools.cache(build)
        self.error = error
        self.operators = {}

    def induced(self, key, src, dst, raw, message):
        """raw(), the raw operator from quotient src to dst, induced."""
        op = self.operators.get(key)
        if op is None:
            source, target = self.quotient(src), self.quotient(dst)
            if target.dim == 0:
                op = SparseMatrix.zero(source.field, 0, source.dim)
            else:
                op = require_descent(induced_map(raw(), source, target),
                                     self.error, message)
            self.operators[key] = op
        return op


class NormalizedComplex:
    """Degreewise quotient by the span of all degeneracy images.

    Individual faces and the rotation do not descend to this quotient
    (face_i o deg_i is the identity), so the quotient carries exactly the
    operators that do: the boundary b and the Connes operator s N, both
    machine-verified to be well defined via induced_map."""

    def __init__(self, base, max_degree):
        self.base = base
        self.field = base.field
        self.store = QuotientStore(
            lambda n: degeneracy_quotient([(base, n)]), NormalizationError)
        self.dims = [self.dim(n) for n in range(max_degree + 1)]

    def dim(self, n):
        return self.store.quotient(n).dim

    def project(self, n, vec):
        return self.store.quotient(n).project(vec)

    def boundary_matrix(self, n):
        if n == 0:
            return SparseMatrix.zero(self.field, 0, self.dim(0))
        return self.store.induced(
            ("b", n), n, n - 1, lambda: self.base.boundary_matrix(n),
            f"induced operator not well defined: boundary in degree {n}; "
            "offending vector {basis_vector}")

    def connes_matrix(self, n):
        """s N induced on the quotients (consults base degree n+1)."""
        return self.store.induced(
            ("B", n), n, n + 1, lambda: self.base.sn_matrix(n),
            "induced operator not well defined: Connes boundary in degree "
            f"{n}; offending vector {{basis_vector}}")


def homology_dims(dim, boundary, max_degree):
    """dim(n) - rank boundary(n) - rank boundary(n + 1), the homology
    dimensions of a chain complex through max_degree; boundary(n) leaves
    degree n (the zero map for n = 0), and each rank is computed once."""
    ranks = [mat_rank(boundary(n)) for n in range(max_degree + 2)]
    return [dim(n) - ranks[n] - ranks[n + 1] for n in range(max_degree + 1)]


def hochschild_homology(module, max_degree):
    """Dimensions of ker b / im b on the normalized complex."""
    norm = NormalizedComplex(module, max_degree + 1)
    return HomologyReport(
        list(range(max_degree + 1)),
        homology_dims(norm.dim, norm.boundary_matrix, max_degree),
        "hochschild")


@dataclass
class MixedComplex:
    """A graded space with anticommuting differentials b (degree -1) and
    B (degree +1), stored as matrices through a top degree."""

    field: object
    dims: list
    b_mats: dict    # {n: matrix C_n -> C_{n-1}}, n >= 1
    B_mats: dict    # {n: matrix C_n -> C_{n+1}}

    @property
    def max_degree(self):
        return len(self.dims) - 1

    def verify(self, max_degree):
        """b^2 = 0, B^2 = 0, bB + Bb = 0 wherever composable; None or a
        violation description."""
        for n in range(2, min(max_degree + 2, self.max_degree + 1)):
            if not self.b_mats[n - 1].compose(self.b_mats[n]).is_zero():
                return f"b b != 0 out of degree {n}"
        for n in range(0, max_degree):
            if (n + 1) in self.B_mats:
                if not self.B_mats[n + 1].compose(self.B_mats[n]).is_zero():
                    return f"B B != 0 out of degree {n}"
        for n in range(0, max_degree + 1):
            if n in self.B_mats and (n + 1) in self.b_mats:
                acc = self.b_mats[n + 1].compose(self.B_mats[n])
                if n >= 1 and (n - 1) in self.B_mats:
                    acc = acc.add(self.B_mats[n - 1].compose(self.b_mats[n]))
                if not acc.is_zero():
                    return f"bB + Bb != 0 in degree {n}"
        return None


class MixedComplexError(MathError):
    pass


def mixed_complex_of_cyclic(module, max_degree):
    """The normalized mixed complex of a cyclic module, with the contract
    identities verified through max_degree."""
    norm = NormalizedComplex(module, max_degree + 1)
    dims = [norm.dim(n) for n in range(max_degree + 2)]
    b_mats = {n: norm.boundary_matrix(n) for n in range(1, max_degree + 2)}
    B_mats = {n: norm.connes_matrix(n) for n in range(0, max_degree + 1)}
    mx = MixedComplex(norm.field, dims, b_mats, B_mats)
    bad = mx.verify(max_degree)
    if bad is not None:
        raise MixedComplexError(bad)
    return mx


def cyclic_homology_mixed(mx, max_degree):
    """HC_n as homology of the total complex of the (b, B)-bicomplex.

    The truncation keeps all chain degrees <= max_degree + 1, which is
    exactly what HC_n for n <= max_degree reads.
    """
    if mx.max_degree < max_degree + 1:
        raise MixedComplexError(
            f"mixed complex only reaches degree {mx.max_degree}, need "
            f"{max_degree + 1}")

    def tot_components(n):
        return [n - 2 * j for j in range(n // 2 + 1) if n - 2 * j >= 0]

    def tot_dim(n):
        return sum(mx.dims[m] for m in tot_components(n))

    def differential(n):
        """Tot_n -> Tot_{n-1}; the zero map for n = 0."""
        src = {m: mx.dims[m] for m in tot_components(n)}
        dst = {m: mx.dims[m] for m in tot_components(n - 1)}
        blocks = []
        for m in src:
            if m >= 1 and (m - 1) in dst:
                blocks.append((m - 1, m, mx.b_mats[m], None))
            if (m + 1) in dst and m in mx.B_mats:
                blocks.append((m + 1, m, mx.B_mats[m], None))
        return block_matrix(mx.field, dst, src, blocks)

    return HomologyReport(list(range(max_degree + 1)),
                          homology_dims(tot_dim, differential, max_degree),
                          "cyclic-bicomplex")


def cyclic_homology_of_algebra(algebra, max_degree, cap=None):
    """HC of an algebra through max_degree, via its cyclic module."""
    module = AlgebraCyclicModule(algebra, cap=cap)
    mx = mixed_complex_of_cyclic(module, max_degree)
    return cyclic_homology_mixed(mx, max_degree)
