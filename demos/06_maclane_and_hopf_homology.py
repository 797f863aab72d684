"""Rows as Hochschild complexes, and the Mac Lane isomorphism.

Fixing the coefficient degree, a cylinder row is the Hochschild complex
of the twisted scalar algebra with coefficients in a bimodule carried by
the Hopf algebra tensored against coefficient slots.  Converting that
bimodule to a left module by antipode conjugation (with inverse-cocycle
corrections) turns the row into the bar-type complex computing
Hopf-algebra homology - an exact chain isomorphism, checked facewise.
"""

from hclab.exactlinalg import Field, QQ
from hclab.algebra import FiniteGroup, ground_algebra
from hclab.hopf import group_hopf
from hclab.crossed import (
    lift_group_cocycle, trivial_action, trivial_cocycle,
    twisted_scalar_algebra,
)
from hclab.cylinder import (
    BimoduleMq, build_cylinder, check_coefficient_action, check_maclane,
    check_row_identification, hopf_homology, twisted_left_module,
)

# the sign cocycle (x, y) -> (-1)^(x2 y1) on C2 x C2, as in scenarios/s2.scn
sign = [[1, 1, 1, 1], [1, 1, 1, 1], [1, -1, 1, -1], [1, -1, 1, -1]]
h = group_hopf(QQ, FiniteGroup.named("C2xC2"))
coc = lift_group_cocycle(h, sign)
cyl = build_cylinder(h, trivial_action(h, ground_algebra(QQ)), coc)
ts = twisted_scalar_algebra(coc)

print("row 0 is the Hochschild complex of the twisted algebra:",
      check_row_identification(cyl, ts, 0, 2) is None)

bim = BimoduleMq(cyl, 0)
print("bimodule laws hold exhaustively:", bim.verify(ts) is None)

mod = twisted_left_module(bim)   # verifies the left-module law
print("twisted conjugation action is a module action: True")

print("Mac Lane pair inverts and intertwines through degree 2:",
      check_maclane(cyl, ts, 0, 2) is None)
print("closed-form action equals the bimodule conversion:",
      check_coefficient_action(cyl, 0) is None)

rep = hopf_homology(cyl.hopf, mod.act, bim.dim, 2)
print("Hopf homology of the twisted coefficients (semisimple, so it",
      "vanishes above degree 0):", rep.dims)

# in characteristic 2 the group algebra of C2 is not semisimple and the
# bar complex has homology everywhere
F2 = Field(2)
h2 = group_hopf(F2, FiniteGroup.cyclic(2))
trivial_act = lambda hh, m: {m: h2.counit[hh]} if h2.counit[hh] else {}
print("char-2 bar complex of C2, trivial coefficients:",
      hopf_homology(h2, trivial_act, 1, 3).dims)
