import pytest

from hclab.exactlinalg import (
    Field, QQ, SparseMatrix, add_term, exact_div, expand, push_images,
)
from hclab.algebra import (
    FiniteGroup, dual_numbers, function_algebra, ground_algebra,
)
from hclab.hopf import group_hopf, is_cocommutative
from hclab.crossed import (
    ActionMap, Cocycle, build_crossed_product, lift_group_cocycle,
    trivial_action, trivial_cocycle, twisted_scalar_algebra,
    validate_cocycle, validate_weak_action,
)
from hclab.cycliccore import check_cyclic, cyclic_homology_mixed
from hclab.cylinder import (
    BimoduleMq,
    build_cylinder,
    check_coefficient_action,
    check_cylindrical,
    check_diagonal_isomorphism,
    check_maclane,
    check_row_identification,
    check_shuffle_chain_map,
    crossed_to_diagonal,
    hopf_homology,
    tot_mixed_complex,
)
from hclab.cylinder.core import BinormalizedCylinder
from hclab.cylinder.coefficients import twisted_left_module
from test_crossed import SIGN_COCYCLE

F2 = Field(2)


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


ALL_SCENARIOS = [
    ("s1", cylinder_s1), ("s2", cylinder_s2), ("s3", cylinder_s3),
    ("s4", cylinder_s4), ("s5", cylinder_s5),
]


@pytest.mark.parametrize("name,factory", ALL_SCENARIOS)
def test_factory_inputs_meet_the_standing_hypotheses(name, factory):
    """build_cylinder takes a valid weak action and cocycle of a
    cocommutative Hopf algebra for granted; the fixtures supply them."""
    cyl = factory()
    assert validate_weak_action(cyl.action) is None
    assert validate_cocycle(cyl.cocycle, cyl.action) is None
    assert is_cocommutative(cyl.hopf)


def test_chain_space_dims_s2():
    cyl = cylinder_s2()
    for p in range(3):
        for q in range(3):
            assert cyl.dim(p, q) == 4 ** (p + 1)


def as_vector(image, one=QQ.one):
    """A column's image as a sparse vector."""
    return {image: one} if type(image) is int else image


def test_s1_degree00_rotations_cancel():
    # antipode cancellation: the two rotations invert each other at (0,0)
    cyl = cylinder_s1()
    hrot, vrot = cyl.hrot(0, 0), cyl.vrot(0, 0)
    pushed = push_images(vrot, [as_vector(image) for image in hrot])
    assert pushed == [{k: QQ.one} for k in range(cyl.dim(0, 0))]


def test_s2_horizontal_face_sign():
    # the wrap-around face merges the last generator onto the first and
    # pays sigma(last, first); with u = (1,0) at index 1 and v = (0,1) at
    # index 2, sigma(v, u) = -1 while sigma(u, v) = +1
    cyl = cylinder_s2()
    ts = cyl.space(1, 0)
    tgt = cyl.space(0, 0)
    face = cyl.hface(1, 0, 1)
    img = face[ts.encode((1, 2, 0))]   # (u, v | 1)
    assert img == {tgt.encode((3, 0)): QQ.of(-1)}
    img = face[ts.encode((2, 1, 0))]   # (v, u | 1)
    assert img == tgt.encode((3, 0))


@pytest.mark.parametrize("name,factory", ALL_SCENARIOS)
def test_cylindrical_all_scenarios(name, factory):
    assert check_cylindrical(factory(), 2, 2) is None


def vface_last_direct(cyl, p, q, k):
    """Closed form of the vertical wrap-around face of basis vector k;
    must agree with face_0 composed with the rotation."""
    tup = cyl.space(p, q).decode(k)
    gs, avs = tup[:p + 1], tup[p + 1:]
    tgt = cyl.space(p, q - 1)
    out = {}
    for coef, legs in cyl.hopf.sweedler_product([(g, 2) for g in gs]):
        u = cyl.hopf.product_of_basis([t[0] for t in legs])
        su = cyl.hopf.antipode_of(u)
        w = cyl.action.apply(su, {avs[q]: cyl.field.one})
        wa0 = cyl.algebra.multiply(w, {avs[0]: cyl.field.one})
        g2 = tuple(t[1] for t in legs)
        for t, c in expand(coef, g2 + (wa0,) + avs[1:q]).items():
            add_term(out, tgt.encode(t), c)
    return out


def hface_last_direct(cyl, p, q, k):
    """Closed form of the horizontal wrap-around face of basis vector k;
    must agree with face_0 composed with the rotation."""
    tup = cyl.space(p, q).decode(k)
    gs, avs = tup[:p + 1], tup[p + 1:]
    tgt = cyl.space(p - 1, q)
    out = {}
    for c0, m in cyl.hopf.sweedler(gs[p], q + 3):
        for c1, (y1, y2) in cyl.hopf.sweedler(gs[0], 2):
            w = c0 * c1 * cyl.cocycle.values[m[q + 2]][y2]
            if not w:
                continue
            head = cyl.hopf.algebra.multiply_basis(m[q + 1], y1)
            acted = tuple(cyl.action.apply_basis(m[j], avs[j])
                          for j in range(q + 1))
            for t, ct in head.items():
                for term, c in expand(w * ct,
                                      (t,) + gs[1:p] + acted).items():
                    add_term(out, tgt.encode(term), c)
    return out


@pytest.mark.parametrize("name,factory", ALL_SCENARIOS)
def test_displayed_wraparound_faces_agree(name, factory):
    cyl = factory()
    for (p, q) in [(1, 1), (2, 1), (1, 2), (2, 2)]:
        vface, hface = cyl.vface(p, q, q), cyl.hface(p, q, p)
        one = cyl.field.one
        for k in range(cyl.dim(p, q)):
            assert (as_vector(vface[k], one)
                    == vface_last_direct(cyl, p, q, k))
            assert (as_vector(hface[k], one)
                    == hface_last_direct(cyl, p, q, k))


def test_mutated_cocycle_breaks_cylinder_identities():
    # the commuting-face identity depends on the cocycle identity; a
    # single flipped sign must break it somewhere
    h = group_hopf(QQ, FiniteGroup.named("C2xC2"))
    table = [row[:] for row in SIGN_COCYCLE]
    table[1][1] = -table[1][1]
    inv = [[exact_div(QQ.one, table[i][j]) for j in range(4)]
           for i in range(4)]
    coc = Cocycle(h, table, inv)
    cyl = build_cylinder(h, trivial_action(h, ground_algebra(QQ)), coc)
    assert check_cylindrical(cyl, 2, 2) is not None


@pytest.mark.parametrize("name,factory", ALL_SCENARIOS)
def test_diagonal_is_cyclic(name, factory):
    assert check_cyclic(factory().diagonal_module(), 2) is None


@pytest.mark.parametrize("name,factory", ALL_SCENARIOS)
def test_tot_mixed_identities(name, factory):
    mx = tot_mixed_complex(factory(), 2)
    assert mx.verify(2) is None


def test_tot_twist_equals_rotation_power():
    cyl = cylinder_s5()
    bn = BinormalizedCylinder(cyl, 3)
    for (p, q) in [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]:
        assert bn.twist(p, q) == bn.induced_vertical_twist(p, q)


def test_tot_unnormalized_dim_arithmetic_s2():
    cyl = cylinder_s2()
    assert sum(cyl.dim(p, 2 - p) for p in range(3)) == 84


@pytest.mark.parametrize("name,factory", ALL_SCENARIOS)
def test_diagonal_isomorphism(name, factory):
    cyl = factory()
    act, coc = cyl.action, cyl.cocycle
    cp = build_crossed_product(act, coc)
    assert check_diagonal_isomorphism(cyl, cp, 3) is None


def test_trivial_hopf_diagonal_map_is_identity():
    field = QQ
    h = group_hopf(field, FiniteGroup.cyclic(1))
    a = dual_numbers(field)
    act = trivial_action(h, a)
    cyl = build_cylinder(h, act, trivial_cocycle(h))
    cp = build_crossed_product(act, trivial_cocycle(h))
    for n in range(3):
        phi = crossed_to_diagonal(cyl, cp, n)
        assert phi == SparseMatrix.identity(field, phi.cols)


@pytest.mark.parametrize("name,factory", ALL_SCENARIOS)
def test_row_identification(name, factory):
    cyl = factory()
    ts = twisted_scalar_algebra(cyl.cocycle)
    for q in range(3):
        assert check_row_identification(cyl, ts, q, 2) is None


@pytest.mark.parametrize("name,factory", ALL_SCENARIOS)
def test_bimodule_laws(name, factory):
    cyl = factory()
    ts = twisted_scalar_algebra(cyl.cocycle)
    for q in range(2):
        assert BimoduleMq(cyl, q).verify(ts) is None


def test_twisted_module_is_conjugation_for_trivial_cocycle():
    cyl = cylinder_s3()
    bim = BimoduleMq(cyl, 0)
    mod = twisted_left_module(bim)
    h = cyl.hopf
    g_idx = 1  # the generator, its own inverse
    for m in range(bim.dim):
        lhs = mod.act(g_idx, m)
        mv = {m: QQ.one}
        rhs = bim.left_vec({g_idx: QQ.one},
                           bim.right_vec(mv, {h.group.inverse[g_idx]: QQ.one}))
        assert lhs == rhs


def test_twisted_module_unit():
    cyl = cylinder_s2()
    bim = BimoduleMq(cyl, 0)
    mod = twisted_left_module(bim)
    for m in range(bim.dim):
        assert mod.act_vec(cyl.hopf.algebra.unit, {m: QQ.one}) == {m: QQ.one}


def test_s2_module_law_exhaustive():
    cyl = cylinder_s2()
    mod = twisted_left_module(BimoduleMq(cyl, 0))
    assert mod.verify_module_law() is None


@pytest.mark.parametrize("name,factory", ALL_SCENARIOS[:4])
def test_maclane(name, factory):
    cyl = factory()
    ts = twisted_scalar_algebra(cyl.cocycle)
    for q in range(3):
        assert check_maclane(cyl, ts, q, 2) is None


@pytest.mark.parametrize("name,factory", ALL_SCENARIOS)
def test_coefficient_action_matches_display(name, factory):
    cyl = factory()
    for q in range(2):
        assert check_coefficient_action(cyl, q) is None


def test_hopf_homology_coinvariants_dim():
    cyl = cylinder_s2()
    bim = BimoduleMq(cyl, 0)
    mod = twisted_left_module(bim)
    rep = hopf_homology(cyl.hopf, mod.act, bim.dim, 2)
    # H_0 is the coinvariant space: carrier dim minus the rank of the
    # degree-1 differential
    from hclab.cylinder.coefficients import HopfComplex
    from hclab.exactlinalg import mat_rank
    cx = HopfComplex(cyl.hopf, mod.act, bim.dim)
    assert rep.dims[0] == bim.dim - mat_rank(cx.boundary_matrix(1))


def test_hopf_homology_semisimple_vanishing():
    for factory in (cylinder_s1, cylinder_s2, cylinder_s3):
        cyl = factory()
        for q in range(3):
            bim = BimoduleMq(cyl, q)
            mod = twisted_left_module(bim)
            rep = hopf_homology(cyl.hopf, mod.act, bim.dim, 2)
            assert rep.dims[1] == 0 and rep.dims[2] == 0


def test_hopf_homology_char2_bar_complex():
    # the trivial one-dimensional module over F2[C2]
    h = group_hopf(F2, FiniteGroup.cyclic(2))
    act = lambda hh, m: {m: h.counit[hh]} if h.counit[hh] else {}
    rep = hopf_homology(h, act, 1, 3)
    assert rep.dims == [1, 1, 1, 1]


def test_hopf_homology_s4_row0_coefficients():
    # coefficients H (x) A have dimension 2 and trivial action, so every
    # homology is 2-dimensional (cross-checked against the hand-built
    # group bar complex in the acceptance suite)
    cyl = cylinder_s4()
    bim = BimoduleMq(cyl, 0)
    mod = twisted_left_module(bim)
    rep = hopf_homology(cyl.hopf, mod.act, bim.dim, 2)
    assert rep.dims == [2, 2, 2]


@pytest.mark.parametrize("name,factory", [("s1", cylinder_s1),
                                          ("s2", cylinder_s2),
                                          ("s5", cylinder_s5)])
def test_shuffle_chain_map(name, factory):
    assert check_shuffle_chain_map(factory(), 2) is None


def test_shuffle_degree_zero_is_identity():
    from hclab.cylinder.core import shuffle_map
    from hclab.cycliccore import NormalizedComplex
    cyl = cylinder_s5()
    bn = BinormalizedCylinder(cyl, 2)
    dn = NormalizedComplex(cyl.diagonal_module(), 2)
    m = shuffle_map(cyl, bn, dn, 0, 0)
    assert m == SparseMatrix.identity(QQ, m.cols)


def test_tot_homology_matches_diagonal_hc_s1():
    from hclab.cycliccore import mixed_complex_of_cyclic
    cyl = cylinder_s1()
    tot = tot_mixed_complex(cyl, 3)
    hc_tot = cyclic_homology_mixed(tot, 2)
    diag_mx = mixed_complex_of_cyclic(cyl.diagonal_module(), 3)
    hc_diag = cyclic_homology_mixed(diag_mx, 2)
    assert hc_tot.dims == hc_diag.dims == [2, 0, 2]


def test_maclane_degree_zero_is_identity():
    cyl = cylinder_s2()
    from hclab.cylinder import hochschild_to_hopf
    bim = BimoduleMq(cyl, 0)
    m = hochschild_to_hopf(bim, 0)
    assert m == SparseMatrix.identity(QQ, bim.dim)


def test_rows_and_columns_paracyclic_but_not_cyclic():
    # with nontrivial coefficients the single-family rotations carry a
    # twist; only the joint identity is trivial
    cyl = cylinder_s5()
    col = cyl.column_module(0)
    k = cyl.space(0, 1).encode((1, 1, 0))  # (g | x, 1)
    v = {k: QQ.one}
    for _ in range(2):
        [v] = push_images(col.rotate(1), [v])
    assert v != {k: QQ.one}
    cyl3 = cylinder_s3()
    row = cyl3.row_module(0)
    k = cyl3.space(1, 0).encode((0, 1, 0))  # (e, g | d_e)
    v = {k: QQ.one}
    for _ in range(2):
        [v] = push_images(row.rotate(1), [v])
    assert v != {k: QQ.one}
