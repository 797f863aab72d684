"""Finite-dimensional unital associative algebras via structure constants.

An algebra is a basis with a multiplication table sending a pair of basis
indices to a sparse vector, plus a unit vector.  Elements are sparse
coordinate dicts.  Constructors cover the coefficient algebras used in
the reference scenarios: group algebras, function algebras on a finite
group, matrix algebras, dual numbers and the ground field itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .exactlinalg import DimensionCapExceeded, DimensionMismatch, vec_add_into


class GroupTableError(ValueError):
    pass


class FiniteGroup:
    """A finite group as an explicit multiplication table of indices."""

    def __init__(self, labels, mult_table):
        self.order = len(labels)
        self.labels = list(labels)
        self.mult = [list(row) for row in mult_table]
        self._validate()
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()

    def _validate(self):
        n = self.order
        if len(self.mult) != n or any(len(row) != n for row in self.mult):
            raise GroupTableError("multiplication table is not square")
        for row in self.mult:
            for v in row:
                if not 0 <= v < n:
                    raise GroupTableError("table entry out of range")
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if self.mult[self.mult[a][b]][c] != self.mult[a][self.mult[b][c]]:
                        raise GroupTableError(
                            f"associativity fails at ({a},{b},{c})")

    def _find_identity(self):
        for e in range(self.order):
            if all(self.mult[e][x] == x and self.mult[x][e] == x
                   for x in range(self.order)):
                return e
        raise GroupTableError("no identity element")

    def _find_inverses(self):
        inv = [None] * self.order
        for x in range(self.order):
            for y in range(self.order):
                if self.mult[x][y] == self.identity and self.mult[y][x] == self.identity:
                    inv[x] = y
                    break
            if inv[x] is None:
                raise GroupTableError(f"element {x} has no inverse")
        return inv

    def op(self, a, b):
        return self.mult[a][b]

    @classmethod
    def cyclic(cls, n):
        labels = ["e"] + [f"g{'^' + str(k) if k > 1 else ''}" for k in range(1, n)]
        table = [[(a + b) % n for b in range(n)] for a in range(n)]
        return cls(labels, table)

    @classmethod
    def product(cls, g, h):
        labels = []
        for a in range(g.order):
            for b in range(h.order):
                la, lb = g.labels[a], h.labels[b]
                labels.append(f"({la},{lb})")
        n = g.order * h.order
        table = [[0] * n for _ in range(n)]
        for a1 in range(g.order):
            for b1 in range(h.order):
                for a2 in range(g.order):
                    for b2 in range(h.order):
                        i = a1 * h.order + b1
                        j = a2 * h.order + b2
                        table[i][j] = g.op(a1, a2) * h.order + h.op(b1, b2)
        return cls(labels, table)

    @classmethod
    def symmetric3(cls):
        # permutations of {0,1,2} in one-line notation
        perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (2, 1, 0)]
        labels = ["e", "r", "r^2", "s01", "s12", "s02"]
        index = {p: i for i, p in enumerate(perms)}
        table = [[index[tuple(p[q[k]] for k in range(3))] for q in perms]
                 for p in perms]
        return cls(labels, table)

    @classmethod
    def named(cls, name, cap=None):
        """C{n}, C{n}xC{m} (iterated), or S3.  Under a cap, a group whose
        multiplication table has more entries than the cap is refused
        before any table is built."""
        name = name.strip()
        parts = [] if name == "S3" else [p.strip() for p in name.split("x")]
        if not all(p[:1] == "C" and p[1:].isdecimal() and int(p[1:]) >= 1
                   for p in parts):
            raise GroupTableError(f"unknown group name {name!r}")
        orders = [int(p[1:]) for p in parts]
        entries = (6 if name == "S3" else math.prod(orders)) ** 2
        if cap is not None and entries > cap:
            raise DimensionCapExceeded(
                f"group {name}: {entries} table entries exceed the cap {cap}")
        if name == "S3":
            return cls.symmetric3()
        return functools.reduce(cls.product, map(cls.cyclic, orders))


@dataclass
class Violation:
    """First failing instance of an axiom check, with its location."""

    axiom: str
    location: tuple
    detail: str = ""

    def __str__(self):
        loc = ",".join(str(x) for x in self.location)
        msg = f"{self.axiom} fails at ({loc})"
        return msg + (f": {self.detail}" if self.detail else "")


class FinDimAlgebra:
    """A unital associative algebra given by sparse structure constants."""

    def __init__(self, field, basis_labels, mul_table, unit):
        self.field = field
        self.dim = len(basis_labels)
        self.basis_labels = list(basis_labels)
        self.mul_table = mul_table  # mul_table[i][j] -> sparse vector
        self.unit = {k: c for k, c in unit.items() if c}

    def multiply_basis(self, i, j):
        return self.mul_table[i][j]

    def multiply(self, x, y):
        """Bilinear extension of the structure constants."""
        for v in (x, y):
            if any(not 0 <= k < self.dim for k in v):
                raise DimensionMismatch("element coordinates out of range")
        out, p = {}, self.field.characteristic
        for i, ci in x.items():
            for j, cj in y.items():
                vec_add_into(out, self.mul_table[i][j], ci * cj, p)
        return out

    def element(self, label_or_index):
        if isinstance(label_or_index, str):
            idx = self.basis_labels.index(label_or_index)
        else:
            idx = label_or_index
        return {idx: self.field.one}

    def validate(self):
        """None if associative and unital on all basis tuples, else the
        first Violation found."""
        for i in range(self.dim):
            e = {i: self.field.one}
            if self.multiply(self.unit, e) != e:
                return Violation("unit law (left)", (i,))
            if self.multiply(e, self.unit) != e:
                return Violation("unit law (right)", (i,))
        # (e_i e_j) e_k and e_i (e_j e_k) are summed straight from the
        # table rows, so every product's coordinates are checked once here
        table, p = self.mul_table, self.field.characteristic
        for row in table:
            for v in row:
                if any(not 0 <= k < self.dim for k in v):
                    raise DimensionMismatch("element coordinates out of range")
        for i in range(self.dim):
            left = table[i]
            for j in range(self.dim):
                ij, right = left[j], table[j]
                for k in range(self.dim):
                    lhs = {}
                    for m, c in ij.items():
                        vec_add_into(lhs, table[m][k], c, p)
                    rhs = {}
                    for m, c in right[k].items():
                        vec_add_into(rhs, left[m], c, p)
                    if lhs != rhs:
                        return Violation("associativity", (i, j, k))
        return None

    def __repr__(self):
        return f"FinDimAlgebra(dim={self.dim}, field={self.field})"


def validate_algebra(a):
    """ok (None) iff associativity and the unit laws hold on every basis
    tuple; otherwise the first violating instance."""
    return a.validate()


def ground_algebra(field):
    """The ground field as a one-dimensional algebra."""
    one = field.one
    return FinDimAlgebra(field, ["1"], [[{0: one}]], {0: one})


def group_algebra(field, group):
    """k[G]: basis labelled by group elements, product the group law."""
    one = field.one
    table = [[{group.op(i, j): one} for j in range(group.order)]
             for i in range(group.order)]
    return FinDimAlgebra(field, list(group.labels), table,
                         {group.identity: one})


def matrix_algebra(field, n, cap=None):
    """M_n(k) on the matrix-unit basis e_ij, e_ij e_kl = delta_jk e_il.
    Under a cap, an algebra whose validation visits more basis triples,
    (n^2)^3, than the cap is refused before any table is built."""
    if n < 1:
        raise ValueError("matrix size must be at least 1")
    if cap is not None and n ** 6 > cap:
        raise DimensionCapExceeded(
            f"matrix algebra M{n}: {n ** 6} basis triples exceed the cap {cap}")
    labels = [f"e{i}{j}" for i in range(n) for j in range(n)]
    one = field.one

    def idx(i, j):
        return i * n + j

    table = [[dict() for _ in range(n * n)] for _ in range(n * n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        table[idx(i, j)][idx(k, l)] = {idx(i, l): one}
    unit = {idx(i, i): one for i in range(n)}
    return FinDimAlgebra(field, labels, table, unit)


def function_algebra(field, group):
    """k^G: indicator functions with pointwise product; unit is the sum
    of all indicators."""
    one = field.one
    n = group.order
    labels = [f"d_{lab}" for lab in group.labels]
    table = [[{i: one} if i == j else {} for j in range(n)] for i in range(n)]
    unit = {i: one for i in range(n)}
    return FinDimAlgebra(field, labels, table, unit)


def dual_numbers(field):
    """k[x]/(x^2)."""
    one = field.one
    table = [[{0: one}, {1: one}], [{1: one}, {}]]
    return FinDimAlgebra(field, ["1", "x"], table, {0: one})
