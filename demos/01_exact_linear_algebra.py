"""Exact sparse linear algebra: the substrate everything else stands on.

Every homology number in this package is a rank computed over Q or a
prime field, with no floating point anywhere.  This script walks through
ranks, kernels, quotient spaces and induced maps.
"""

from fractions import Fraction

from hclab.exactlinalg import (
    Field, QQ, SparseMatrix, Subspace, induced_map, kernel_basis, mat_rank,
    quotient_space, solve_linear,
)

# A rank over the rationals is exact: no epsilon, no tolerance.  A
# matrix is given by its (i, j) entries, each a scalar of the field.
dense = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
m = SparseMatrix(QQ, 3, 3, {(i, j): QQ.of(c) for i, row in enumerate(dense)
                            for j, c in enumerate(row)})
print("rank of a 3x3 with a repeated direction:", mat_rank(m))

# A kernel comes back in the free-column basis its one elimination fixes:
# each basis vector is 1 at its free column and 0 at the others, so
# repeated runs and downstream constructions are reproducible bit for bit.
k = kernel_basis(m)
print("kernel dimension:", k.dim)
print("kernel basis rows:", [sorted(r.items()) for r in k.rows])

# Solving is exact too; inconsistency is a value, not an exception.
print("solve [[2]] x = 1:", solve_linear(SparseMatrix(QQ, 1, 1, {(0, 0): 2}),
                                          {0: Fraction(1)}))
print("solve 0 x = 1:", solve_linear(SparseMatrix.zero(QQ, 1, 1),
                                     {0: Fraction(1)}))

# Prime fields use the same interfaces.
F2 = Field(2)
m2 = SparseMatrix(F2, 1, 2, {(0, 0): F2.one, (0, 1): F2.one})
print("kernel over F2 of [1 1]:",
      [sorted(r.items()) for r in kernel_basis(m2).rows])

# Quotient spaces carry projection data; induced maps are only accepted
# when they are honestly well defined on the quotient.
denom = Subspace.from_vectors(QQ, 3, [{0: Fraction(1), 1: Fraction(1)}])
q = quotient_space(3, denom)
print("quotient of dim 3 by a line has dim", q.dim)
f = SparseMatrix.identity(QQ, 3)
print("identity induces", induced_map(f, q, q))
