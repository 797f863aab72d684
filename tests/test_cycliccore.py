from collections import Counter

from hclab.exactlinalg import Field, QQ, SparseMatrix, mat_rank, push_images
from hclab.algebra import (
    FiniteGroup, dual_numbers, function_algebra, ground_algebra,
    group_algebra, matrix_algebra,
)
from hclab.cycliccore import (
    AlgebraCyclicModule,
    NormalizedComplex,
    TensorSpace,
    check_cyclic,
    check_paracyclic,
    cyclic_homology_of_algebra,
    hochschild_homology,
    mixed_complex_of_cyclic,
)

F2 = Field(2)


def test_tensor_space_roundtrip():
    ts = TensorSpace([2, 3, 2])
    assert ts.size == 12
    for k in range(12):
        assert ts.encode(ts.decode(k)) == k


def test_ground_field_module():
    m = AlgebraCyclicModule(ground_algebra(QQ))
    assert m.dim(3) == 1
    assert m.rotate(2) == [0]
    assert check_cyclic(m, 3) is None


def test_cyclic_check_evaluates_each_in_range_rotation_once():
    """check_cyclic of Q[C2] through degree 3: the paracyclic relations
    and rotate^(n+1) = id read one table of the rotation, so each column
    of the rotation out of degrees 0-3, 30 images, is evaluated once.  So
    is the column out of degree 4, 32 images, that the relations one
    degree up read."""
    calls = Counter()

    class Counted(AlgebraCyclicModule):
        def rotate(self, n):
            calls[n] += 1
            return super().rotate(n)

    module = Counted(group_algebra(QQ, FiniteGroup.cyclic(2)))
    assert check_cyclic(module, 3) is None
    assert calls == {n: 1 for n in range(5)}
    assert sum(module.dim(n) for n in range(4)) == 30


def test_qc2_wraparound_face():
    a = group_algebra(QQ, FiniteGroup.cyclic(2))
    m = AlgebraCyclicModule(a)
    gg = m.space(1).encode((1, 1))
    # the wrap-around face multiplies g*g = e
    assert m.face(1, 1)[gg] == 0


def test_qc2_cyclic_through_degree_3():
    a = group_algebra(QQ, FiniteGroup.cyclic(2))
    m = AlgebraCyclicModule(a)
    assert check_cyclic(m, 3) is None


def test_rotation_order_degree_2():
    a = group_algebra(QQ, FiniteGroup.cyclic(2))
    m = AlgebraCyclicModule(a)
    for k in range(m.dim(2)):
        v = {k: QQ.one}
        for _ in range(3):
            [v] = push_images(m.rotate(2), [v])
        assert v == {k: QQ.one}


def test_scaled_rotation_breaks_paracyclic():
    a = group_algebra(QQ, FiniteGroup.cyclic(2))

    class Scaled(AlgebraCyclicModule):
        def rotate(self, n):
            return [{k: QQ.of(2)} for k in super().rotate(n)]

    bad = check_paracyclic(Scaled(a), 2)
    assert bad is not None
    assert "rotate" in bad.relation


def test_normalized_dims_dual_numbers():
    m = AlgebraCyclicModule(dual_numbers(QQ))
    norm = NormalizedComplex(m, 4)
    assert [norm.dim(n) for n in range(5)] == [2, 2, 2, 2, 2]


def test_normalized_dims_ground():
    norm = NormalizedComplex(AlgebraCyclicModule(ground_algebra(QQ)), 4)
    assert [norm.dim(n) for n in range(5)] == [1, 0, 0, 0, 0]


def test_normalized_dims_qc2():
    a = group_algebra(QQ, FiniteGroup.cyclic(2))
    norm = NormalizedComplex(AlgebraCyclicModule(a), 4)
    assert [norm.dim(n) for n in range(5)] == [2, 2, 2, 2, 2]


def test_connes_boundary_ground_field_vanishes():
    norm = NormalizedComplex(AlgebraCyclicModule(ground_algebra(QQ)), 4)
    for n in range(3):
        assert norm.connes_matrix(n).is_zero()


def test_connes_boundary_degree0_qc2():
    a = group_algebra(QQ, FiniteGroup.cyclic(2))
    m = AlgebraCyclicModule(a)
    raw = m.connes_matrix(0)
    ts1 = m.space(1)
    one_g = ts1.encode((0, 1))
    g_one = ts1.encode((1, 0))
    # (1 - lambda) s N (g) = 1(x)g + g(x)1; modulo degeneracies this is
    # the class of 1(x)g
    assert raw.columns[1] == {one_g: QQ.one, g_one: QQ.one}
    norm = NormalizedComplex(m, 2)
    cls, = push_images(norm.connes_matrix(0).columns,
                       [norm.store.quotient(0).project({1: QQ.one})], 0)
    assert cls == norm.store.quotient(1).project({one_g: QQ.one})


def test_mixed_complex_contract_qc2():
    a = group_algebra(QQ, FiniteGroup.cyclic(2))
    mx = mixed_complex_of_cyclic(AlgebraCyclicModule(a), 3)
    assert mx.verify(3) is None


def test_mixed_complex_contract_m2():
    mx = mixed_complex_of_cyclic(AlgebraCyclicModule(matrix_algebra(QQ, 2)), 2)
    assert mx.verify(2) is None


def test_hochschild_ground_field():
    rep = hochschild_homology(AlgebraCyclicModule(ground_algebra(QQ)), 3)
    assert rep.dims == [1, 0, 0, 0]


def test_hochschild_qc2():
    # HH_0 of a commutative algebra is the algebra itself; Q[C2] = Q x Q
    # is semisimple, so nothing above degree 0
    rep = hochschild_homology(
        AlgebraCyclicModule(group_algebra(QQ, FiniteGroup.cyclic(2))), 2)
    assert rep.dims == [2, 0, 0]


def test_hochschild_m2():
    # HH_0 = A/[A, A]; the commutator subspace of M_2 is the trace-zero
    # part, computed here independently by ranks
    a = matrix_algebra(QQ, 2)
    comms = []
    for i in range(a.dim):
        for j in range(a.dim):
            x = a.multiply(a.element(i), a.element(j))
            y = a.multiply(a.element(j), a.element(i))
            comms.append({k: x.get(k, QQ.zero) - y.get(k, QQ.zero)
                          for k in set(x) | set(y)})
    comms = [{k: c for k, c in v.items() if c} for v in comms]
    m = SparseMatrix.from_row_list(QQ, comms, a.dim)
    assert a.dim - mat_rank(m) == 1
    rep = hochschild_homology(AlgebraCyclicModule(a), 2)
    assert rep.dims == [1, 0, 0]


def test_hochschild_dual_numbers_char0():
    # k[x]/(x^2): classical dims 2, 1, 1, ... in characteristic 0
    rep = hochschild_homology(AlgebraCyclicModule(dual_numbers(QQ)), 3)
    assert rep.dims == [2, 1, 1, 1]


def test_cyclic_homology_ground_field():
    rep = cyclic_homology_of_algebra(ground_algebra(QQ), 3)
    assert rep.dims == [1, 0, 1, 0]


def test_cyclic_homology_qc2():
    rep = cyclic_homology_of_algebra(
        group_algebra(QQ, FiniteGroup.cyclic(2)), 2)
    assert rep.dims == [2, 0, 2]


def test_cyclic_homology_qc2_wedderburn_cross_check():
    # Q[C2] is isomorphic to Q x Q, the functions on C2 (basis
    # (e+g)/2, (e-g)/2); cyclic homology only sees the isomorphism class
    qq = function_algebra(QQ, FiniteGroup.cyclic(2))
    direct = cyclic_homology_of_algebra(qq, 2)
    via_group = cyclic_homology_of_algebra(
        group_algebra(QQ, FiniteGroup.cyclic(2)), 2)
    assert direct.dims == via_group.dims == [2, 0, 2]


def test_cyclic_homology_m2_morita():
    rep = cyclic_homology_of_algebra(matrix_algebra(QQ, 2), 2)
    assert rep.dims == [1, 0, 1]
    assert rep.dims == cyclic_homology_of_algebra(ground_algebra(QQ), 2).dims


def test_cyclic_homology_f2c2():
    # char-2 group algebra of C2 = dual numbers over F_2; not semisimple
    rep = cyclic_homology_of_algebra(group_algebra(F2, FiniteGroup.cyclic(2)), 2)
    assert rep.dims[0] == 2
    assert all(d >= 0 for d in rep.dims)


def test_b_squared_zero_on_modules():
    for alg in (group_algebra(QQ, FiniteGroup.cyclic(2)),
                dual_numbers(QQ), matrix_algebra(QQ, 2)):
        m = AlgebraCyclicModule(alg)
        for n in range(2, 4):
            assert m.boundary_matrix(n - 1).compose(
                m.boundary_matrix(n)).is_zero()


def test_homology_report_shape():
    rep = hochschild_homology(AlgebraCyclicModule(ground_algebra(QQ)), 2)
    assert rep.degrees == [0, 1, 2]
    assert rep.dims == [1, 0, 0]
