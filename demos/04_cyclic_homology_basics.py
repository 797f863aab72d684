"""Hochschild and cyclic homology of small algebras, exactly.

The cyclic module of an algebra, its normalization, the two
differentials of the mixed complex, and the dimensions they compute.
All the classical sanity checks run with exact ranks: the ground field
has cyclic homology 1, 0, 1, ...; a semisimple commutative algebra is
flat above degree zero; 2x2 matrices look exactly like the scalars.
"""

from hclab.exactlinalg import QQ
from hclab.algebra import (
    FiniteGroup, dual_numbers, function_algebra, ground_algebra,
    group_algebra, matrix_algebra,
)
from hclab.cycliccore import (
    AlgebraCyclicModule, NormalizedComplex, check_cyclic,
    cyclic_homology_of_algebra, hochschild_homology, mixed_complex_of_cyclic,
)

qc2 = group_algebra(QQ, FiniteGroup.cyclic(2))
module = AlgebraCyclicModule(qc2)
print("cyclic-module relations through degree 3:",
      check_cyclic(module, 3) is None)

norm = NormalizedComplex(module, 4)
print("normalized dimensions of Q[C2]:", norm.dims)

mx = mixed_complex_of_cyclic(module, 3)
print("mixed-complex contract (b^2, B^2, bB+Bb):", mx.verify(3) is None)

for label, algebra in [("Q", ground_algebra(QQ)),
                       ("Q[C2]", qc2),
                       ("M_2(Q)", matrix_algebra(QQ, 2)),
                       ("Q[x]/(x^2)", dual_numbers(QQ))]:
    hh = hochschild_homology(AlgebraCyclicModule(algebra), 2)
    hc = cyclic_homology_of_algebra(algebra, 2)
    print(f"{label:12s} HH = {hh.dims}   HC = {hc.dims}")

# Isomorphism invariance, concretely: Q[C2] and the functions on C2,
# which are Q x Q, have the same homology because they are the same
# algebra in different clothes.
qq = function_algebra(QQ, FiniteGroup.cyclic(2))
print("HC(Q x Q) =", cyclic_homology_of_algebra(qq, 2).dims,
      " = HC(Q[C2])")
