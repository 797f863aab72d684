"""Structure-constant algebras and Hopf algebras with verified axioms.

Group algebras, function algebras, matrix algebras and dual numbers are
the coefficient algebras of the reference scenarios; group algebras also
carry the Hopf structure (group-like coproduct, inversion antipode).
Every axiom is checked exhaustively on basis tuples at construction.
"""

from hclab.exactlinalg import Field, QQ
from hclab.algebra import (
    FiniteGroup, dual_numbers, function_algebra, matrix_algebra,
    group_algebra, validate_algebra,
)
from hclab.hopf import (
    group_hopf, is_cocommutative, is_semisimple, validate_hopf,
)

c2 = FiniteGroup.cyclic(2)
qc2 = group_algebra(QQ, c2)
print("Q[C2] validates:", validate_algebra(qc2) is None)

m2 = matrix_algebra(QQ, 2)
e12, e21 = m2.element("e01"), m2.element("e10")
print("matrix units: e01 * e10 =", m2.multiply(e12, e21))

funcs = function_algebra(QQ, c2)
print("indicator functions are orthogonal idempotents:",
      funcs.multiply(funcs.element(0), funcs.element(1)) == {})

dual = dual_numbers(QQ)
print("x * x in Q[x]/(x^2):", dual.multiply(dual.element("x"),
                                            dual.element("x")))

# Hopf structure on a group algebra: validated in full.
h = group_hopf(QQ, FiniteGroup.named("S3"))
print("Q[S3] Hopf axioms:", validate_hopf(h) is None)
print("Q[S3] cocommutative (even though noncommutative):",
      is_cocommutative(h))

# Iterated coproducts of basis elements are explicit (coefficient, legs)
# term lists; a group-like element just repeats itself across the legs.
h2 = group_hopf(QQ, c2)
print("four-leg coproduct of the generator:", h2.sweedler(1, 4))

# Semisimplicity: the trace-form radical in characteristic zero, the
# divisibility criterion for group algebras over prime fields.
print("Q[C2] semisimple:", is_semisimple(h2))
print("F2[C2] semisimple:", is_semisimple(group_hopf(Field(2), c2)))
