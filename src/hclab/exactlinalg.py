"""Exact sparse linear algebra over Q and prime fields.

Everything downstream (homology ranks, spectral pages, identity checks)
reduces to ranks, kernels and quotients computed here.  Over Q a scalar
is a Python `int` when it is integral and a `fractions.Fraction` when it
is not; over F_p it is an `int` in [0, p).  Mixed int/`Fraction`
arithmetic is exact, and `exact_div` is the one place scalars are
divided, so there is no floating point anywhere.  Vectors are plain
dicts mapping a coordinate index to a nonzero scalar; only `add_term`,
`vec_add_into`, `add_images_into` (a whole list of images into a list of
columns), `push_images` (a whole list of images through a column) and
`expand` add into one.  A matrix carries its field and is stored as
its list of columns, column j the sparse image of basis vector j;
`block_matrix` assembles one from blocks placed by key and is the one
place block offsets are computed.  A matrix product is one
`push_images` call and a matrix sum one `add_images_into` call.  A
kernel is its free-column basis, which the reduced row echelon form of
the matrix fixes, and every other subspace is the RREF of its span, so
every representative choice made downstream is deterministic and two
identical runs produce bit-identical results.

Reduction mod p is written here and nowhere else.  The kernels that add
or multiply stored scalars take the field's modulus p, its
characteristic (0 over Q, where they do plain exact arithmetic); mod p
they accept any int and reduce every value they store or test, and
`rref` divides by multiplying with pow(pivot, -1, p) once per row.  Code
elsewhere may fold scalars with + and *, but hands the result to a
kernel or to `Field.of` before it stores, compares or truth-tests it; a
product of residues in [1, p) is nonzero mod p, so only a sum must be
reduced before a truth test.

Units cost no arithmetic.  Reducing by a unit row {pivot: 1}
deletes the pivot coordinate; that deletion is a reduction inside this
module, which the no-stored-zero rule exempts.

Coordinate subspaces cost no elimination.  A span of unit basis vectors,
such as the degeneracy images of a unit that is a basis vector, is
built as its RREF directly (`cycliccore.degeneracy_quotient`: the
distinct indices as pivots, each with its unit row), and a `Subspace`
whose rows are all unit rows reduces with one pass over the vector, and
tests membership by its keys alone.  Reading coordinates costs no
elimination in any subspace: a member's coordinates are its entries at
the pivots, and its caller certifies membership.  `rref` skips a
single-entry row whose column holds a stored unit row.  `induced_map`
between coordinate denominators tests keys and projects with `project`;
every other pair goes through the target's projector column, with no
reduction per row or per column.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate


DEFAULT_DIMENSION_CAP = 200_000

# Miller-Rabin to the prime bases 2..41 is exact below the least strong
# pseudoprime to all of them (Sorenson and Webster, 2015); beyond, refuse
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_CHARACTERISTIC = 3_317_044_064_679_887_385_961_981


class ExactLinalgError(ValueError):
    pass


class DimensionMismatch(ExactLinalgError):
    pass


class DimensionCapExceeded(ExactLinalgError):
    """Raised before building a chain space larger than the configured cap."""


class MathError(RuntimeError):
    """A mathematical identity hclab verifies does not hold.

    The command line exits 1 on these, and only on these; any other
    exception is a programming error.
    """


def check_dimension_cap(dim, cap=DEFAULT_DIMENSION_CAP):
    if dim > cap:
        raise DimensionCapExceeded(
            f"chain space of dimension {dim} exceeds the cap {cap}")


def _is_prime(n):
    """Deterministic Miller-Rabin, exact for n < MAX_CHARACTERISTIC."""
    if n < 2 or any(n % a == 0 for a in PRIME_BASES):
        return n in PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1   # n - 1 = 2^s d, d odd
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1
               or any(pow(a, d << r, n) == n - 1 for r in range(s))
               for a in PRIME_BASES)


class Field:
    """Scalar arithmetic: the rationals (characteristic 0) or F_p."""

    def __init__(self, characteristic=0):
        if characteristic >= MAX_CHARACTERISTIC:
            raise ExactLinalgError(f"characteristic {characteristic} is too "
                                   f"large to test for primality exactly")
        if characteristic != 0 and not _is_prime(characteristic):
            raise ExactLinalgError(
                f"characteristic must be 0 or prime, got {characteristic}")
        self.characteristic = characteristic
        self.zero = self.of(0)
        self.one = self.of(1)
        self._minus_one = self.of(-1)   # over F_2 that is one

    def of(self, n):
        """Embed an int or a Fraction (mod p, when the denominator allows).

        Over Q an integral value comes back as an `int` and any other
        value as a `Fraction`; over F_p as an `int` in [0, p)."""
        p = self.characteristic
        if type(n) is int:
            return n % p if p else n
        n = Fraction(n)
        if not p:
            return n.numerator if n.denominator == 1 else n
        if n.denominator % p == 0:
            raise ExactLinalgError(f"{n} has no image in F_{p}")
        return n.numerator * pow(n.denominator, -1, p) % p

    def sign(self, i):
        """(-1)**i as a scalar."""
        return self.one if i % 2 == 0 else self._minus_one

    def parse(self, text):
        """Parse 'a' or 'a/b' into a scalar."""
        text = text.strip()
        if "/" in text:
            num, den = (int(part) for part in text.split("/", 1))
            if den == 0:
                raise ExactLinalgError(f"{text!r} has a zero denominator")
            value = Fraction(num, den)
        else:
            value = int(text)
        return self.of(value)

    def __eq__(self, other):
        return isinstance(other, Field) and self.characteristic == other.characteristic

    def __hash__(self):
        return hash(("Field", self.characteristic))

    def __repr__(self):
        return "Q" if self.characteristic == 0 else f"F{self.characteristic}"


QQ = Field(0)


def exact_div(a, b, p=0):
    """a / b as a scalar of the same field; the only division of scalars.

    Mod p (p > 0) it is a * b^-1 mod p.  Over Q ints divide to an `int`
    when the quotient is integral and to a `Fraction` otherwise, never to
    a float; any other pair divides with `/`, and an integral `Fraction`
    quotient comes back as an `int`.
    """
    if p:
        if not b % p:
            raise ZeroDivisionError("division by zero in F_p")
        return a * pow(b, -1, p) % p
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return q if not r else Fraction(a, b)
    q = a / b
    if isinstance(q, Fraction) and q.denominator == 1:
        return q.numerator
    return q


# ---------------------------------------------------------------------------
# sparse vectors: dict {index: nonzero scalar}
#
# A sparse vector never stores a zero.  `add_term`, `vec_add_into`,
# `add_images_into`, `push_images` and `expand` add into one, so they
# alone drop cancelled entries; `Subspace` reductions by a unit row
# delete the pivot entry they cancel.  Each takes the modulus p (0 over
# Q) positionally: a keyword is costly in a call this short.

def add_term(acc, key, c, p=0):
    """acc[key] += c, in place, dropping the entry if it cancels; mod p
    when p > 0, where c may be any int."""
    if key in acc:
        s = acc[key] + c
        if p:
            s %= p
        if s:
            acc[key] = s
        else:
            del acc[key]
    else:
        if p:
            c %= p
        if c:
            acc[key] = c


def vec_add_into(acc, vec, coeff=None, p=0):
    """acc += coeff * vec, in place, dropping cancelled entries; mod p
    when p > 0, where coeff may be any int."""
    # add_term's body, written inline: calling add_term once per entry
    # made the `reference` benchmark workload about 6% slower; the field
    # is chosen once per call, not per entry
    if p:
        coeff = 1 if coeff is None else coeff
        for k, c in vec.items():
            if k in acc:
                s = (acc[k] + coeff * c) % p
                if s:
                    acc[k] = s
                else:
                    del acc[k]
            elif c := coeff * c % p:
                acc[k] = c
        return
    for k, c in vec.items():
        if coeff is not None:
            c = coeff * c
        if k in acc:
            s = acc[k] + c
            if s:
                acc[k] = s
            else:
                del acc[k]
        elif c:
            acc[k] = c


def add_images_into(columns, images, coeff, p=0):
    """columns[j] += coeff * images[j] for every j, in place, dropping
    cancelled entries, where each image is an int index (that basis
    vector), a zero or a sparse vector; mod p when p > 0, where coeff and
    the image coefficients may be any ints."""
    # add_term's body, written inline: a call per image made b slower
    if p:
        coeff %= p
    for acc, v in zip(columns, images, strict=True):
        if type(v) is int:
            if v in acc:
                s = acc[v] + coeff
                if p:
                    s %= p
                if s:
                    acc[v] = s
                else:
                    del acc[v]
            elif coeff:
                acc[v] = coeff
        elif v:
            for k, c in v.items():
                c *= coeff
                if k in acc:
                    c += acc[k]
                if p:
                    c %= p
                if c:
                    acc[k] = c
                elif k in acc:
                    del acc[k]


def push_images(column, images, p=0):
    """The images of a list of images under the operator whose image of
    basis vector k is column[k], an int index or a sparse vector.  An int
    image reads its column entry, a zero stays the zero it is, and a
    sparse vector, whose coefficients mod p may be any ints, becomes a
    fresh one, reduced mod p when p > 0."""
    # add_term's body, written inline: a call per image or per term made
    # the identity checks slower
    out = []
    append = out.append
    for v in images:
        if type(v) is int:
            append(column[v])
        elif not v:
            append(v)
        else:
            acc = {}
            for k, c in v.items():
                image = column[k]
                if type(image) is int:
                    if image in acc:
                        if s := acc[image] + c:
                            acc[image] = s
                        else:
                            del acc[image]
                    elif c:
                        acc[image] = c
                    continue
                for j, d in image.items():
                    d *= c
                    if j in acc:
                        if s := acc[j] + d:
                            acc[j] = s
                        else:
                            del acc[j]
                    elif d:
                        acc[j] = d
            append(acc)
    if p:
        # int sums are exact: the field is chosen once per call, and each
        # fresh image is reduced once
        out = [w if type(v) is int or not v
               else {j: s for j, c in w.items() if (s := c % p)}
               for v, w in zip(images, out)]
    return out


def expand(coef, slots, p=0):
    """coef * (slot_0 (x) slot_1 (x) ...) as a sparse vector keyed by
    index tuples, where each slot is a basis index or a sparse vector;
    mod p when p > 0, where coef may be any int.

    The keys of the product are distinct and a product of nonzero
    scalars is nonzero, so nothing cancels."""
    # plain loops over a list of terms, and basis indices appended in
    # runs: a comprehension per slot made the providers measurably slower
    if p:
        coef %= p
    terms = [((), coef)] if coef else []
    run = ()
    for slot in slots:
        if isinstance(slot, int):
            run += (slot,)
            continue
        nxt = []
        for t, c in terms:
            t += run
            for b, cb in slot.items():
                nxt.append((t + (b,), c * cb))
        terms, run = nxt, ()
    if p:
        return {t + run: c % p for t, c in terms}
    return {t + run: c for t, c in terms}


class SparseMatrix:
    """A rows x cols matrix over a field, stored as its list of columns.

    Convention: `columns[j]` is the image f(e_j) of basis vector j under
    the operator f the matrix represents, a sparse vector keyed by row
    index that stores no zero; `cols` is the number of columns.  (i, j)
    entries are accepted by the constructor only, and converted there.
    """

    __slots__ = ("field", "rows", "columns")

    def __init__(self, field, rows, cols, entries=None):
        self.field = field
        self.rows = rows
        self.columns = columns = [{} for _ in range(cols)]
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for (i, j), c in items:
                if not (0 <= i < rows and 0 <= j < cols):
                    raise DimensionMismatch(f"entry ({i},{j}) out of range")
                if c:
                    if i in columns[j]:
                        raise ExactLinalgError(f"duplicate entry at ({i},{j})")
                    columns[j][i] = c

    @property
    def cols(self):
        return len(self.columns)

    @classmethod
    def _of(cls, field, rows, columns):
        """The matrix of these fresh columns, which store no zero."""
        m = cls(field, rows, 0)
        m.columns = columns
        return m

    @classmethod
    def from_columns(cls, field, rows, columns):
        """A matrix of copies of the given columns, so it never shares a
        dict with its caller.  A column may also be an int j, the basis
        vector {j: 1}."""
        one = field.one
        return cls._of(field, rows, [
            {col: one} if type(col) is int
            else dict(col) if all(col.values())
            else {i: c for i, c in col.items() if c} for col in columns])

    @classmethod
    def from_row_list(cls, field, row_dicts, cols):
        m = cls(field, len(row_dicts), cols)
        columns = m.columns
        for i, row in enumerate(row_dicts):
            for j, c in row.items():
                if c:
                    columns[j][i] = c
        return m

    @classmethod
    def identity(cls, field, n):
        one = field.one
        return cls._of(field, n, [{i: one} for i in range(n)])

    @classmethod
    def zero(cls, field, rows, cols):
        return cls(field, rows, cols)

    def row_dicts(self):
        rows = [{} for _ in range(self.rows)]
        for j, col in enumerate(self.columns):
            for i, c in col.items():
                rows[i][j] = c
        return rows

    def compose(self, other):
        """self @ other, a matrix that shares no dict with either."""
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot compose {self.rows}x{self.cols} with "
                f"{other.rows}x{other.cols}")
        # `or {}`: push_images returns a zero image as the dict it was given
        return SparseMatrix._of(self.field, self.rows, push_images(
            self.columns, [col or {} for col in other.columns],
            self.field.characteristic))

    def add(self, other, coeff=None):
        """self + coeff * other (coeff None for one), a fresh matrix."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        columns = [dict(col) for col in self.columns]
        add_images_into(columns, other.columns,
                        self.field.one if coeff is None else coeff,
                        self.field.characteristic)
        return SparseMatrix._of(self.field, self.rows, columns)

    def is_zero(self):
        return not any(self.columns)

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.rows == other.rows
                and self.columns == other.columns)

    def __repr__(self):
        nnz = sum(map(len, self.columns))
        return f"SparseMatrix({self.rows}x{self.cols}, {nnz} nz)"


def block_matrix(field, row_blocks, col_blocks, blocks):
    """The matrix assembled from blocks, the one place block offsets are
    computed.  `row_blocks` and `col_blocks` map each block key to its
    size, in block order; `blocks` yields (row key, column key, matrix,
    coefficient) placements, each added as coefficient * matrix (None
    for one) at its block's offsets, in the order given."""
    row_offset, col_offset = (
        dict(zip(sizes, accumulate(sizes.values(), initial=0)))
        for sizes in (row_blocks, col_blocks))
    out = SparseMatrix(field, sum(row_blocks.values()),
                       sum(col_blocks.values()))
    one, p = field.one, field.characteristic
    for r, c, block, coeff in blocks:
        if (block.rows, block.cols) != (row_blocks[r], col_blocks[c]):
            raise DimensionMismatch(
                f"block {block.rows}x{block.cols} does not fit at "
                f"({r!r}, {c!r})")
        r0, c0 = row_offset[r], col_offset[c]
        images = block.columns if not r0 else [
            {r0 + i: x for i, x in col.items()} for col in block.columns]
        # the slice shares out's column dicts, so the sum lands in out
        add_images_into(out.columns[c0:c0 + block.cols], images,
                        one if coeff is None else coeff, p)
    return out


def rref(row_dicts, p=0):
    """Reduced row echelon form of a list of sparse rows, over F_p when
    p > 0 and over Q when p = 0.

    Returns (pivot_columns, reduced_rows) sorted by pivot column with zero
    rows dropped.  RREF depends only on the row span, which makes every
    representative chosen downstream canonical.

    The rows are taken last-first.  The output is a function of the span
    alone, so the order cannot change a pivot or an entry, only a row's
    key order and the fill-in on the way.  Of the orders measured (as
    given, last-first, by length, by length then largest least column)
    last-first was the fastest, or within 4% of it, on every input.

    Every stored row is zero on the other pivot columns, so an incoming
    row is reduced by one pass over its own pivot entries, and a new pivot
    column is cleared from the stored rows that `holders` says hold it.
    A stored unit row {k: 1} is in no `holders` set, so it never changes,
    and an incoming single-entry row {k: c} reduces to zero against it:
    such a row is skipped without a copy or any arithmetic.
    """
    row_of = {}    # pivot column -> its reduced row
    holders = {}   # non-pivot column -> pivot columns of rows nonzero there
    for row in reversed(row_dicts):
        if len(row) == 1:
            k, = row
            if len(row_of.get(k, ())) == 1:
                continue
        row = dict(row)
        for pcol, coeff in [(k, c) for k, c in row.items() if k in row_of]:
            vec_add_into(row, row_of[pcol], -coeff, p)
        if not row:
            continue
        pcol = min(row)
        inv = row[pcol]
        # a pivot of 1 needs no division; mod p one inverse per row
        if inv != 1:
            if p:
                inv = pow(inv, -1, p)
                row = {k: c * inv % p for k, c in row.items()}
            else:
                row = {k: exact_div(c, inv, p) for k, c in row.items()}
        for qcol in holders.pop(pcol, ()):
            qrow = row_of[qcol]
            coeff = qrow[pcol]
            for k, c in row.items():
                if k in qrow:
                    s = qrow[k] - coeff * c
                    if p:
                        s %= p
                    if s:
                        qrow[k] = s
                    else:
                        del qrow[k]
                        if k != pcol:
                            holders[k].discard(qcol)
                else:
                    qrow[k] = -(coeff * c) % p if p else -(coeff * c)
                    holders.setdefault(k, set()).add(qcol)
        for k in row:
            if k != pcol:
                holders.setdefault(k, set()).add(pcol)
        row_of[pcol] = row
    pivots = sorted(row_of)
    return pivots, [row_of[p] for p in pivots]


def mat_rank(m):
    """Rank over the matrix's field; deterministic.

    rank M = rank M^T, so the stored columns are eliminated as rows, with
    no transpose.  A reduced column has at most rows - rank + 1 entries,
    a reduced row up to cols - rank + 1, and a boundary matrix has more
    columns than rows."""
    return len(rref(m.columns, m.field.characteristic)[0])


class Subspace:
    """A subspace given by a basis with one contract: `rows[t]` is 1 at
    `pivots[t]` and 0 at every other pivot.  The pivot need not be the
    row's least column; pivots increase with t.  A spanning set's RREF
    (`from_vectors`) and a kernel's free-column basis (`kernel_basis`)
    both meet it, and so a member's coordinates are its entries at the
    pivots (`coords_of`).  The rows are shared with callers: read them,
    do not modify them.
    """

    __slots__ = ("field", "ambient_dim", "pivots", "rows", "_position",
                 "_coordinate")

    def __init__(self, field, ambient_dim, pivots, rows):
        self.field = field
        self.ambient_dim = ambient_dim
        self.pivots = pivots
        self.rows = rows
        self._position = {p: t for t, p in enumerate(pivots)}
        self._coordinate = all(len(row) == 1 for row in rows)

    @classmethod
    def from_vectors(cls, field, ambient_dim, vectors):
        pivots, rows = rref(vectors, field.characteristic)
        return cls(field, ambient_dim, pivots, rows)

    @property
    def dim(self):
        return len(self.rows)

    @property
    def is_coordinate(self):
        """True when every basis row is a unit row {pivot: 1}: the span of
        those standard basis vectors, reduced by deleting coordinates."""
        return self._coordinate

    def reduce(self, vec):
        """Subtract the projection onto this subspace along its pivots.  A
        row is 0 on the other pivots, so each coefficient is read off vec,
        and a unit row {pivot: 1} only deletes its pivot coordinate, with
        no arithmetic."""
        position = self._position
        if self._coordinate:
            return {k: c for k, c in vec.items() if k not in position}
        residual = dict(vec)
        rows, pivots, p = self.rows, self.pivots, self.field.characteristic
        for t, coeff in sorted((position[k], c) for k, c in vec.items()
                               if k in position):
            row = rows[t]
            if len(row) == 1:
                del residual[pivots[t]]
            else:
                vec_add_into(residual, row, -coeff, p)
        return residual

    def contains(self, vec):
        if self._coordinate:
            return vec.keys() <= self._position.keys()
        return not self.reduce(vec)

    def coords_of(self, vec):
        """Coordinates of a member vector in the basis: its entries at the
        pivots, keyed by position in increasing order, since row t is 1 at
        pivots[t] and 0 at every other pivot.  Membership is not tested
        here; the caller certifies it (`spectral._map_rows`)."""
        position = self._position
        return dict(sorted((position[k], c) for k, c in vec.items()
                           if k in position))


def kernel_basis(m):
    """The right kernel's free-column basis, from one `rref` of m: free
    column f of the RREF gives e_f - sum row[f] e_pivot, with pivot f;
    dim = cols - rank."""
    p = m.field.characteristic
    pivots, rows = rref(m.row_dicts(), p)
    pivot_set = set(pivots)
    free_cols = [j for j in range(m.cols) if j not in pivot_set]
    vectors = {f: {f: m.field.one} for f in free_cols}
    for pivot, row in zip(pivots, rows):
        for f, c in row.items():
            if f != pivot:
                vectors[f][pivot] = -c % p if p else -c
    return Subspace(m.field, m.cols, free_cols, list(vectors.values()))


def solve_linear(m, rhs):
    """Any solution of m x = rhs, free variables set to zero; None if none.

    Inconsistency is a value, not an error.
    """
    if any(not 0 <= k < m.rows for k in rhs):
        raise DimensionMismatch("rhs length does not match row count")
    aug_col = m.cols
    rows = m.row_dicts()
    for i, c in rhs.items():
        if c:
            rows[i][aug_col] = c
    pivots, red = rref(rows, m.field.characteristic)
    sol = {}
    for pivot, row in zip(pivots, red):
        if pivot == aug_col:
            return None  # pivot in the augmented column: inconsistent
        if aug_col in row:
            sol[pivot] = row[aug_col]
    return sol


@dataclass
class QuotientSpace:
    """ambient / denominator, with canonical representatives.

    The representatives are the standard basis vectors at the non-pivot
    coordinates of the denominator: projection reduces along the
    denominator and reads off those coordinates.
    """

    ambient_dim: int
    denominator: Subspace
    free_columns: list

    def __post_init__(self):
        self._position = {f: t for t, f in enumerate(self.free_columns)}

    @property
    def dim(self):
        return len(self.free_columns)

    @property
    def field(self):
        return self.denominator.field

    def project(self, vec):
        """Coordinates of vec's class, in increasing position."""
        reduced = self.denominator.reduce(vec)
        position = self._position
        try:
            coords = sorted((position[f], c) for f, c in reduced.items())
        except KeyError:
            raise ExactLinalgError("reduction left unexpected coordinates")
        return dict(coords)

    def projector(self):
        """The column of the projection, built anew: free column j maps to
        its position, and pivot c to the class of e_c, which is
        -sum row_c[j] e_position(j) over the free columns j of row c."""
        position, p = self._position, self.field.characteristic
        column = [position.get(j) for j in range(self.ambient_dim)]
        for c, row in zip(self.denominator.pivots, self.denominator.rows):
            column[c] = {position[j]: -x % p if p else -x
                         for j, x in row.items() if j != c}
        return column


def quotient_space(ambient_dim, denom):
    """Quotient with projection data; dim = ambient - dim(denominator)."""
    if denom.ambient_dim != ambient_dim:
        raise DimensionMismatch(
            f"denominator lives in dimension {denom.ambient_dim}, not {ambient_dim}")
    pivot_set = set(denom.pivots)
    free_cols = [j for j in range(ambient_dim) if j not in pivot_set]
    return QuotientSpace(ambient_dim, denom, free_cols)


@dataclass
class NotWellDefined:
    """Marker: a map does not descend to the quotients.

    `basis_vector` is a denominator basis vector whose image fails to lie
    in the target denominator; `image` is the offending image.
    """

    basis_vector: dict
    image: dict


def induced_map(f, src, dst):
    """The map induced by f on quotients, or a NotWellDefined marker
    naming the first denominator basis row f does not send into the
    target denominator.  Unless both denominators are coordinate, the
    free columns go through the target's projector column in one push,
    and each row's class is summed from its pivot column's push and the
    free images (a row is 1 at its pivot, else on free columns)."""
    if f.cols != src.ambient_dim or f.rows != dst.ambient_dim:
        raise DimensionMismatch(
            f"map is {f.rows}x{f.cols}, quotients have ambient "
            f"{src.ambient_dim} -> {dst.ambient_dim}")
    columns, den = f.columns, src.denominator
    if den.is_coordinate and dst.denominator.is_coordinate:
        for row in den.rows:
            # a unit row {k: 1} maps to column k, read in place
            img = columns[min(row)]
            if not dst.denominator.contains(img):
                return NotWellDefined(basis_vector=dict(row), image=dict(img))
        return SparseMatrix._of(f.field, dst.dim, [   # fresh, with no zero
            dst.project(columns[fcol]) for fcol in src.free_columns])
    p, position = f.field.characteristic, src._position
    projector = dst.projector()
    # `or {}`: a zero column is pushed as a fresh dict, never as f's own
    images = push_images(
        projector, [columns[fcol] or {} for fcol in src.free_columns], p)
    for pivot, row in zip(den.pivots, den.rows):
        image, = push_images(projector, [columns[pivot] or {}], p)
        for k, c in row.items():
            if k != pivot:
                vec_add_into(image, images[position[k]], c, p)
        if image:
            return NotWellDefined(basis_vector=dict(row),
                                  image=push_images(columns, [row], p)[0])
    return SparseMatrix._of(f.field, dst.dim, images)
