"""The spectral pages, collapse, and a non-semisimple run.

The first page is row homology, computed twice (directly, and as Hopf
homology through the Mac Lane isomorphism) and compared.  Each column of
the first page is a genuine cyclic module on homology classes, so the
second page is its cyclic homology.  For a semisimple Hopf algebra
everything collapses onto the zeroth column - realized concretely as the
invariants of the row coefficients - and the collapse comparison
recovers the crossed product's cyclic homology on the nose.
"""

from hclab.exactlinalg import Field, QQ
from hclab.algebra import FiniteGroup, function_algebra, ground_algebra
from hclab.hopf import group_hopf
from hclab.crossed import (
    ActionMap, build_crossed_product, lift_group_cocycle, trivial_action,
    trivial_cocycle,
)
from hclab.cycliccore import cyclic_homology_of_algebra
from hclab.cylinder import build_cylinder
from hclab.spectral import (
    collapse_check, compute_E1, compute_E2, invariant_complex_N0,
)


def collapse(cyl, max_degree):
    """The collapse comparison against the crossed product's own HC."""
    cp = build_crossed_product(cyl.action, cyl.cocycle)
    direct = cyclic_homology_of_algebra(cp.product, max_degree)
    return collapse_check(cyl, direct)


def show_page(tag, page):
    cells = ["%s[%d,%d]=%d" % (tag, p, q, page.entries[(p, q)])
             for (p, q) in sorted(page.entries)]
    print("   ", "  ".join(cells))


# the sign-cocycle scenario: crossed product isomorphic to 2x2 matrices;
# the cocycle (x, y) -> (-1)^(x2 y1) is scenarios/s2.scn's table
h = group_hopf(QQ, FiniteGroup.named("C2xC2"))
sign = [[1, 1, 1, 1], [1, 1, 1, 1], [1, -1, 1, -1], [1, -1, 1, -1]]
coc = lift_group_cocycle(h, sign)
cyl = build_cylinder(h, trivial_action(h, ground_algebra(QQ)), coc)

page1, _ = compute_E1(cyl, 2, 2)
print("first page (vanishes off column zero - semisimple):")
show_page("E1", page1)

inv = invariant_complex_N0(cyl, 2)
print("invariant subcomplex dims (the symplectic pairing of the sign",
      "cocycle fixes only the identity line):", inv.dims)

rep = collapse(cyl, 2)
print("collapse:", rep.direct, "=", rep.via_invariants, "->",
      "PASS" if rep.passed else "FAIL")

# functions on C2 with the translation action: same collapse target
g = FiniteGroup.cyclic(2)
h2 = group_hopf(QQ, g)
a = function_algebra(QQ, g)
table = [[{j: QQ.one} for j in range(2)],
         [{g.op(1, j): QQ.one} for j in range(2)]]
cyl3 = build_cylinder(h2, ActionMap(h2, a, table), trivial_cocycle(h2))
rep3 = collapse(cyl3, 2)
print("translation action collapse:", rep3.direct, "=", rep3.via_invariants)

# characteristic 2: not semisimple, the full pipeline still runs
F2 = Field(2)
h4 = group_hopf(F2, FiniteGroup.cyclic(2))
cyl4 = build_cylinder(h4, trivial_action(h4, ground_algebra(F2)),
                      trivial_cocycle(h4))
page1_4, rows4 = compute_E1(cyl4, 2, 2)
page2_4 = compute_E2(page1_4, rows4)
print("char-2 first page (nothing vanishes):")
show_page("E1", page1_4)
print("char-2 second page:")
show_page("E2", page2_4)
