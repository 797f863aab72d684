"""Scalar 2-cocycles and crossed products.

The sign cocycle on C2 x C2 twists the group algebra into something
genuinely new: a 4-dimensional algebra with two anticommuting square
roots of one, isomorphic to the 2x2 matrices.  A convolution-invertible
scalar cocycle also upgrades any weak action into an honest module
action, checked here instance by instance.
"""

from hclab.exactlinalg import QQ
from hclab.algebra import FiniteGroup, dual_numbers, ground_algebra
from hclab.hopf import group_hopf
from hclab.crossed import (
    ActionMap, build_crossed_product, convolution_inverse,
    lift_group_cocycle, trivial_action, trivial_cocycle, validate_cocycle,
    verify_action_upgrade,
)

# The sign cocycle (x, y) -> (-1)^(x2 y1) on the basis e, (1,0), (0,1),
# (1,1) of C2 x C2, as in scenarios/s2.scn.
h = group_hopf(QQ, FiniteGroup.named("C2xC2"))
table = [[1, 1, 1, 1], [1, 1, 1, 1], [1, -1, 1, -1], [1, -1, 1, -1]]
coc = lift_group_cocycle(h, table)
act = trivial_action(h, ground_algebra(QQ))
print("sign cocycle satisfies all three conditions:",
      validate_cocycle(coc, act) is None)
print("it is its own convolution inverse:",
      convolution_inverse(h, coc.values) == coc.values)

# the crossed product's basis is labelled a#h; here a = 1 spans Q
cp = build_crossed_product(act, coc)
u = cp.product.element("1#(e,g)")
v = cp.product.element("1#(g,e)")
uv = cp.product.multiply(u, v)
vu = cp.product.multiply(v, u)
print("u v =", uv)
print("v u =", vu, " (anticommuting: the twisted group algebra is M_2)")

# A nontrivial action: the generator of C2 negates x on Q[x]/(x^2).
h2 = group_hopf(QQ, FiniteGroup.cyclic(2))
dual = dual_numbers(QQ)
negate = ActionMap(h2, dual, [[{0: QQ.one}, {1: QQ.one}],
                              [{0: QQ.one}, {1: QQ.of(-1)}]])
print("weak action upgrades to a module action:",
      verify_action_upgrade(negate) is None)
smash = build_crossed_product(negate, trivial_cocycle(h2))
g = smash.product.element("1#g")
x = smash.product.element("x#e")
print("g x g =", smash.product.multiply(smash.product.multiply(g, x), g),
      "  (conjugation by g negates x)")
