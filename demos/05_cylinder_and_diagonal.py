"""The cylindrical module of a crossed product and its diagonal.

The crossed product's cyclic module factors through a bigraded object:
Hopf tensor powers in one direction, coefficient tensor powers in the
other, with two commuting families of operators.  Neither family is
cyclic on its own - each carries a twist - but the twists are mutually
inverse, the diagonal is honestly cyclic, and the total complex becomes
a mixed complex once the degree-raising operator is corrected by the
twist.  The chain-level isomorphism with the crossed product's own
cyclic module is verified matrix by matrix.
"""

from hclab.exactlinalg import QQ
from hclab.algebra import FiniteGroup, ground_algebra
from hclab.hopf import group_hopf
from hclab.crossed import (
    build_crossed_product, lift_group_cocycle, trivial_action,
)
from hclab.cycliccore import check_cyclic, check_paracyclic
from hclab.cylinder import (
    build_cylinder, check_cylindrical, check_diagonal_isomorphism,
    check_shuffle_chain_map, tot_mixed_complex,
)

# the sign cocycle (x, y) -> (-1)^(x2 y1) on C2 x C2, as in scenarios/s2.scn
sign = [[1, 1, 1, 1], [1, 1, 1, 1], [1, -1, 1, -1], [1, -1, 1, -1]]
h = group_hopf(QQ, FiniteGroup.named("C2xC2"))
coc = lift_group_cocycle(h, sign)
act = trivial_action(h, ground_algebra(QQ))
cyl = build_cylinder(h, act, coc)

print("chain space dims (p, q) -> 4^(p+1):",
      [(p, q, cyl.dim(p, q)) for p in range(2) for q in range(2)])

# rows and columns are paracyclic, not cyclic: the rotations twist
row = cyl.row_module(0)
print("row 0 paracyclic through degree 2:", check_paracyclic(row, 2) is None)
print("full cylindricity through (2,2):", check_cylindrical(cyl, 2, 2) is None)

# the diagonal is a genuine cyclic module
print("diagonal cyclic through degree 2:",
      check_cyclic(cyl.diagonal_module(), 2) is None)

# the twist-corrected total complex satisfies the mixed identities
mx = tot_mixed_complex(cyl, 2)
print("total mixed complex dims:", mx.dims)

# the two presentations of the crossed product's cyclic homology agree
cp = build_crossed_product(act, coc)
print("diagonal isomorphism through degree 3:",
      check_diagonal_isomorphism(cyl, cp, 3) is None)

# and the shuffle map realizes the comparison at chain level
print("shuffle map is a chain map through degree 2:",
      check_shuffle_chain_map(cyl, 2) is None)
