import pytest

from hclab.exactlinalg import Field, QQ, SparseMatrix, Subspace, kernel_basis
from hclab.algebra import (
    FiniteGroup, dual_numbers, function_algebra, ground_algebra,
)
from hclab.hopf import (
    group_hopf, invariance_equations, is_cocommutative,
)
from hclab.crossed import (
    ActionMap, build_crossed_product, lift_group_cocycle, trivial_action,
    trivial_cocycle, validate_cocycle, validate_weak_action,
)
from hclab.cycliccore import ZERO, cyclic_homology_of_algebra
from hclab.cylinder import build_cylinder
from hclab.cylinder.coefficients import hopf_homology
from hclab.spectral import (
    RowComplexes,
    SpectralError,
    collapse_check,
    compute_E1,
    compute_E2,
    induced_column_cyclic,
    invariant_complex_N0,
)
from test_crossed import SIGN_COCYCLE

F2 = Field(2)


def coinvariant_dims(cyl, max_q):
    """Dimensions of the zeroth Hopf homology of each row coefficient
    module (the degree-zero column entries, for any Hopf algebra)."""
    dims = []
    for q in range(max_q + 1):
        mod = cyl.row_coefficients(q)
        rep = hopf_homology(cyl.hopf, mod.act, mod.dim, 0)
        dims.append(rep.dims[0])
    return dims


def cylinder_s1():
    h = group_hopf(QQ, FiniteGroup.cyclic(2))
    return build_cylinder(h, trivial_action(h, ground_algebra(QQ)),
                          trivial_cocycle(h))


def cylinder_s2():
    h = group_hopf(QQ, FiniteGroup.named("C2xC2"))
    coc = lift_group_cocycle(h, SIGN_COCYCLE)
    return build_cylinder(h, trivial_action(h, ground_algebra(QQ)), coc)


def cylinder_s3():
    h = group_hopf(QQ, FiniteGroup.cyclic(2))
    g = FiniteGroup.cyclic(2)
    a = function_algebra(QQ, g)
    table = [[{j: QQ.one} for j in range(2)],
             [{g.op(1, j): QQ.one} for j in range(2)]]
    return build_cylinder(h, ActionMap(h, a, table), trivial_cocycle(h))


def cylinder_s4():
    h = group_hopf(F2, FiniteGroup.cyclic(2))
    return build_cylinder(h, trivial_action(h, ground_algebra(F2)),
                          trivial_cocycle(h))


def cylinder_s5():
    h = group_hopf(QQ, FiniteGroup.cyclic(2))
    a = dual_numbers(QQ)
    act = ActionMap(h, a, [[{0: QQ.one}, {1: QQ.one}],
                           [{0: QQ.one}, {1: QQ.of(-1)}]])
    return build_cylinder(h, act, trivial_cocycle(h))


@pytest.mark.parametrize("factory", [cylinder_s1, cylinder_s2, cylinder_s3,
                                     cylinder_s4, cylinder_s5])
def test_factory_inputs_meet_the_standing_hypotheses(factory):
    """build_cylinder takes a valid weak action and cocycle of a
    cocommutative Hopf algebra for granted; the fixtures supply them."""
    cyl = factory()
    assert validate_weak_action(cyl.action) is None
    assert validate_cocycle(cyl.cocycle, cyl.action) is None
    assert is_cocommutative(cyl.hopf)


def stacked_rows(hopf, act, dim):
    """The rows of h - counit(h), one (h, target, m) entry and one act
    call at a time, as the invariants and the integral built them."""
    field = hopf.field
    rows = []
    for h in range(hopf.dim):
        for target in range(dim):
            row = {}
            for m in range(dim):
                c = act(h, m).get(target, field.zero)
                if m == target:
                    c = field.of(c - hopf.counit[h])
                if c:
                    row[m] = c
            rows.append(row)
    return rows


@pytest.mark.parametrize("factory", [cylinder_s1, cylinder_s2, cylinder_s3,
                                     cylinder_s4, cylinder_s5])
def test_invariance_equations_are_the_stacked_rows(factory):
    """The regular module and the row coefficients through q = 2: the
    same rows as the entry-by-entry build, from one act call per pair."""
    cyl = factory()
    hopf = cyl.hopf
    modules = [(hopf.algebra.multiply_basis, hopf.dim)] + [
        (mod.act, mod.dim) for mod in map(cyl.row_coefficients, range(3))]
    for act, dim in modules:
        calls = []

        def counted(h, m):
            calls.append((h, m))
            return act(h, m)

        stacked = invariance_equations(hopf, counted, dim)
        assert sorted(calls) == [(h, m) for h in range(hopf.dim)
                                 for m in range(dim)]
        assert (stacked.rows, stacked.cols) == (hopf.dim * dim, dim)
        assert all(all(col.values()) for col in stacked.columns)
        assert stacked.row_dicts() == stacked_rows(hopf, act, dim)


def collapse(cyl):
    """The collapse comparison through degree 2, against the crossed
    product's own HC."""
    cp = build_crossed_product(cyl.action, cyl.cocycle)
    return collapse_check(cyl, cyclic_homology_of_algebra(cp.product, 2))


@pytest.mark.parametrize("factory", [cylinder_s1, cylinder_s2, cylinder_s3])
def test_e1_semisimple_vanishing(factory):
    page, _ = compute_E1(factory(), 2, 2)
    for p in range(1, 3):
        for q in range(3):
            assert page.entry(p, q) == 0


def test_e1_trivial_hopf_full_rows():
    h = group_hopf(QQ, FiniteGroup.cyclic(1))
    a = dual_numbers(QQ)
    cyl = build_cylinder(h, trivial_action(h, a), trivial_cocycle(h))
    page, _ = compute_E1(cyl, 2, 2)
    for q in range(3):
        assert page.entry(0, q) == a.dim ** (q + 1)
        assert page.entry(1, q) == 0


def test_e1_s4_char2_values():
    # coefficients are two-dimensional trivial modules, so each entry is
    # twice the one-dimensional bar-complex answer (cross-checked against
    # an independently built group bar complex in the acceptance suite)
    page, _ = compute_E1(cylinder_s4(), 2, 2)
    for p in range(3):
        for q in range(3):
            assert page.entry(p, q) == 2


def test_e1_s5():
    page, _ = compute_E1(cylinder_s5(), 2, 2)
    for p in range(1, 3):
        for q in range(3):
            assert page.entry(p, q) == 0


def test_induced_column_trivial_hopf_is_algebra_module():
    # with a trivial Hopf algebra the zeroth column is the cyclic module
    # of the coefficient algebra itself
    h = group_hopf(QQ, FiniteGroup.cyclic(1))
    a = dual_numbers(QQ)
    cyl = build_cylinder(h, trivial_action(h, a), trivial_cocycle(h))
    col = induced_column_cyclic(RowComplexes(cyl), 0, 3)
    assert [col.dim(q) for q in range(4)] == [a.dim ** (q + 1)
                                              for q in range(4)]


def test_induced_column_cyclicity_s2():
    col = induced_column_cyclic(RowComplexes(cylinder_s2()), 0, 3)
    for q in range(3):
        m = col.rotate_matrix(q)
        acc = m
        for _ in range(q):
            acc = m.compose(acc)
        from hclab.exactlinalg import SparseMatrix
        assert acc == SparseMatrix.identity(QQ, col.dim(q))


def test_induced_column_s4_well_defined():
    for p in range(3):
        induced_column_cyclic(RowComplexes(cylinder_s4()), p, 3)


def test_e2_trivial_hopf_is_algebra_hc():
    h = group_hopf(QQ, FiniteGroup.cyclic(1))
    a = dual_numbers(QQ)
    cyl = build_cylinder(h, trivial_action(h, a), trivial_cocycle(h))
    page = compute_E2(*compute_E1(cyl, 1, 2))
    hc = cyclic_homology_of_algebra(a, 2)
    for q in range(3):
        assert page.entry(0, q) == hc.dims[q]
        assert page.entry(1, q) == 0


@pytest.mark.parametrize("factory", [cylinder_s1, cylinder_s2])
def test_e2_semisimple_vanishes_off_column_zero(factory):
    page = compute_E2(*compute_E1(factory(), 2, 2))
    for p in range(1, 3):
        for q in range(3):
            assert page.entry(p, q) == 0


def test_e2_s4_regression_baseline():
    # frozen output of the full pipeline over F2; guarded by the
    # well-definedness checks inside
    page = compute_E2(*compute_E1(cylinder_s4(), 2, 2))
    assert {k: v for k, v in sorted(page.entries.items())} == {
        (0, 0): 2, (0, 1): 0, (0, 2): 2,
        (1, 0): 2, (1, 1): 0, (1, 2): 2,
        (2, 0): 2, (2, 1): 0, (2, 2): 2,
    }


def test_e2_never_exceeds_e1():
    for factory in (cylinder_s1, cylinder_s2, cylinder_s4):
        cyl = factory()
        e1, rows = compute_E1(cyl, 2, 2)
        e2 = compute_E2(e1, rows)
        for key in e2.entries:
            assert e2.entries[key] <= e1.entries[key]


def test_invariants_s2_dimension():
    # the twisted conjugation pairs generators against each other by the
    # sign pairing, so only the identity line is fixed
    inv = invariant_complex_N0(cylinder_s2(), 2)
    assert inv.dims == [1, 1, 1]


def test_invariants_s1_dimension():
    inv = invariant_complex_N0(cylinder_s1(), 2)
    assert inv.dims == [2, 2, 2]


def test_invariants_s3_fixed_point_system():
    inv = invariant_complex_N0(cylinder_s3(), 2)
    assert inv.dims == [2, 4, 8]


def test_invariants_match_coinvariants_semisimple():
    for factory in (cylinder_s1, cylinder_s2, cylinder_s3):
        cyl = factory()
        inv = invariant_complex_N0(cyl, 2)
        assert inv.dims == coinvariant_dims(cyl, 2)


def test_invariants_refused_non_semisimple():
    with pytest.raises(SpectralError, match="semisimple"):
        invariant_complex_N0(cylinder_s4(), 2)


def test_collapse_s1():
    rep = collapse(cylinder_s1())
    assert rep.passed and rep.direct == [2, 0, 2]


def test_collapse_s2_morita():
    rep = collapse(cylinder_s2())
    assert rep.passed and rep.direct == [1, 0, 1]
    # independent cross-check: the crossed product is a 4-dim algebra
    # with the cyclic homology of 2x2 matrices
    from hclab.algebra import matrix_algebra
    assert rep.direct == cyclic_homology_of_algebra(
        matrix_algebra(QQ, 2), 2).dims


def test_collapse_s3_morita():
    rep = collapse(cylinder_s3())
    assert rep.passed and rep.direct == [1, 0, 1]


def test_convergence_sanity_semisimple():
    for factory in (cylinder_s1, cylinder_s2):
        cyl = factory()
        page = compute_E2(*compute_E1(cyl, 2, 2))
        cp = build_crossed_product(cyl.action, cyl.cocycle)
        hc = cyclic_homology_of_algebra(cp.product, 2)
        for n in range(3):
            total = sum(page.entries[(p, n - p)] for p in range(n + 1))
            assert total == hc.dims[n]


def test_row_homology_equals_hochschild_of_twisted_algebra():
    # row homology at q=0 for the sign-cocycle scenario is the Hochschild
    # homology of the twisted group algebra, which is Morita-trivial
    cyl = cylinder_s2()
    rows = RowComplexes(cyl)
    assert [rows.homology_dim(p, 0) for p in range(3)] == [1, 0, 0]


def test_invariants_trivial_hopf_is_everything():
    h = group_hopf(QQ, FiniteGroup.cyclic(1))
    a = dual_numbers(QQ)
    cyl = build_cylinder(h, trivial_action(h, a), trivial_cocycle(h))
    inv = invariant_complex_N0(cyl, 2)
    assert inv.dims == [cyl.dim(0, q) for q in range(3)]


def _type_error(*args, **kwargs):
    raise TypeError("unsupported operand")


def test_programming_error_on_row_cycles_is_not_a_spectral_error(
        monkeypatch):
    rows = RowComplexes(cylinder_s5())
    rows.homology(1, 0)
    monkeypatch.setattr(Subspace, "coords_of", _type_error)
    with pytest.raises(TypeError, match="unsupported operand"):
        rows.induced_on_homology("vrot", 1, 0, 0)


def test_operator_leaving_row_cycles_is_a_spectral_error():
    rows = RowComplexes(cylinder_s5())
    ker, _ = rows.homology(1, 0)
    dim = rows.quotient(1, 0).dim
    outside = next(j for j in range(dim) if not ker.contains({j: QQ.one}))
    # the first kernel row has entry 1 at its pivot and is sent outside
    rows.store.operators[("vrot", 1, 0)] = SparseMatrix(
        QQ, dim, dim, {(outside, ker.pivots[0]): QQ.one})
    with pytest.raises(SpectralError,
                       match=r"vrot does not preserve row cycles at \(1,0\)"):
        rows.induced_on_homology("vrot", 1, 0, 0)


def test_boundary_leaving_row_cycles_is_a_spectral_error():
    rows = RowComplexes(cylinder_s5())
    ker = kernel_basis(rows.induced("row_boundary", 1, 0))
    dim = rows.quotient(1, 0).dim
    outside = next(j for j in range(dim) if not ker.contains({j: QQ.one}))
    # a row boundary out of (2,0) whose first column leaves the cycles
    rows.store.operators[("row_boundary", 2, 0)] = SparseMatrix(
        QQ, dim, rows.quotient(2, 0).dim, {(outside, 0): QQ.one})
    with pytest.raises(SpectralError, match=r"row boundary at \(2,0\) does "
                       r"not land in the row cycles at \(1,0\)"):
        rows.homology(1, 0)


def test_operator_leaving_invariants_is_a_spectral_error(monkeypatch):
    cyl = cylinder_s3()
    invariants = invariant_complex_N0(cyl, 1).subspaces[0]
    assert not invariants.contains({0: QQ.one})
    pivot = invariants.pivots[0]
    monkeypatch.setattr(cyl, "vrot", lambda p, q: [
        0 if k == pivot else ZERO for k in range(cyl.dim(p, q))])
    with pytest.raises(SpectralError, match="vertical rotation does not "
                       "preserve invariants in degree 0"):
        invariant_complex_N0(cyl, 1)


@pytest.mark.parametrize("op, degree, message", [
    ("vface", 1, "vertical face 1"), ("vdeg", 1, "vertical degeneracy 1")])
def test_an_indexed_operator_leaving_invariants_is_named_by_its_index(
        monkeypatch, op, degree, message):
    cyl = cylinder_s3()
    subspaces = invariant_complex_N0(cyl, 2).subspaces
    target = subspaces[degree - 1 if op == "vface" else degree + 1]
    outside = next(j for j in range(target.ambient_dim)
                   if not target.contains({j: QQ.one}))
    pivot = subspaces[degree].pivots[0]
    original = getattr(cyl, op)

    def broken(p, q, i):
        """Index 1 out of `degree` sends the first invariant outside."""
        if (q, i) != (degree, 1):
            return original(p, q, i)
        return [outside if k == pivot else ZERO for k in range(cyl.dim(p, q))]

    monkeypatch.setattr(cyl, op, broken)
    with pytest.raises(SpectralError, match=f"{message} does not preserve "
                       f"invariants in degree {degree}"):
        invariant_complex_N0(cyl, 2)


def test_a_rotation_that_is_not_cyclic_is_named(monkeypatch):
    """A zero rotation preserves every subspace, but t^(n+1) = 1 fails."""
    cyl = cylinder_s1()
    monkeypatch.setattr(cyl, "vrot", lambda p, q: [ZERO] * cyl.dim(p, q))
    with pytest.raises(SpectralError, match="invariant complex is not cyclic"):
        invariant_complex_N0(cyl, 1)
    rows = RowComplexes(cylinder_s1())
    for q in range(2):
        dim = rows.quotient(0, q).dim
        rows.store.operators[("vrot", 0, q)] = SparseMatrix(QQ, dim, dim)
    with pytest.raises(SpectralError, match="induced column 0 is not cyclic"):
        induced_column_cyclic(rows, 0, 1)
