"""The raw b against the signed sum of its face matrices.

`ParacyclicModule.boundary_matrix` takes face_0's fresh matrix as b's
storage and adds every other face's column into it in place.  The oracle
kept here assembles b the long way: the signed `block_matrix` of every
`face_matrix(n, i)`.  Both must be equal, column dicts included, on every
module whose b `hc` and `report` build or check (the cyclic modules of A
and of A #_sigma H, the cylinder's rows and columns, the Hochschild
complexes of the rows, the Hopf complexes of the row coefficients and the
invariant columns) on s1-s5, on s4 (F_2) through degree 7 and on s2 over
F_3.  No column of b may store a zero: over F_2 faces cancel pairwise.
"""

import pytest

from hclab.crossed import twisted_scalar_algebra
from hclab.cycliccore import AlgebraCyclicModule
from hclab.cylinder.coefficients import HochschildComplex, HopfComplex
from hclab.exactlinalg import block_matrix
from hclab.hopf import is_semisimple
from hclab.spectral import invariant_complex_N0
from test_provider_oracle import built

# (scenario, field line, the top degree of every module's b)
CASES = [("s1", "Q", 3), ("s2", "Q", 3), ("s3", "Q", 3), ("s4", "Fp 2", 7),
         ("s5", "Q", 3), ("s2", "Fp 3", 3)]


def oracle_boundary(module, n):
    """b as the signed block sum of every materialized face."""
    field = module.field
    return block_matrix(
        field, {0: module.dim(n - 1)}, {0: module.dim(n)},
        ((0, 0, module.face_matrix(n, i), field.sign(i))
         for i in range(n + 1)))


def modules(b, top):
    """(label, module, top degree of b) for every module whose b hc and
    report reach; the cylinder's rows and columns go through total degree
    top + 1, as the total complex of hc at degree top does."""
    cyl = b.cylinder
    yield "algebra", AlgebraCyclicModule(b.action.algebra), top
    yield "crossed product", AlgebraCyclicModule(b.crossed_product.product), top
    twisted = twisted_scalar_algebra(b.cocycle)
    for k in range(top + 2):
        yield f"row {k}", cyl.row_module(k), top + 1 - k
        yield f"column {k}", cyl.column_module(k), top + 1 - k
    for q in range(3):
        mod = cyl.row_coefficients(q)
        yield (f"Hochschild row {q}",
               HochschildComplex(twisted, mod.bimodule), 3)
        yield f"Hopf row {q}", HopfComplex(cyl.hopf, mod.act, mod.dim), 3
    if is_semisimple(cyl.hopf):
        yield "invariant column", invariant_complex_N0(cyl, 3).module, 3


@pytest.mark.parametrize("name,field,top", CASES)
def test_boundary_is_the_signed_sum_of_its_faces(name, field, top):
    b = built(name, field)
    nonzero = 0
    for label, module, last in modules(b, top):
        for n in range(last + 1):
            got = module.boundary_matrix(n)
            if n == 0:
                assert got.is_zero() and got.rows == 0, (label, n)
                continue
            want = oracle_boundary(module, n)
            assert (got.rows, got.cols) == (want.rows, want.cols), (label, n)
            assert got.columns == want.columns, (label, n)
            assert all(all(col.values()) for col in got.columns), (label, n)
            nonzero += not got.is_zero()
    assert nonzero > 0

