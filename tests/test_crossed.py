import pytest

from hclab.exactlinalg import Field, QQ, add_term, expand
from hclab.algebra import (
    FiniteGroup, dual_numbers, function_algebra, ground_algebra,
    validate_algebra,
)
from hclab.hopf import group_hopf, is_cocommutative
from hclab.crossed import (
    ActionMap,
    Cocycle,
    GroupCocycleError,
    build_crossed_product,
    convolution_inverse,
    lift_group_cocycle,
    trivial_action,
    trivial_cocycle,
    twisted_scalar_algebra,
    validate_cocycle,
    validate_weak_action,
    verify_action_upgrade,
)


# the sign cocycle (x, y) -> (-1)^(x2 y1) on C2 x C2, on the basis order
# e, (1,0), (0,1), (1,1): the `values` line of scenario s2
SIGN_COCYCLE = [[1, 1, 1, 1], [1, 1, 1, 1], [1, -1, 1, -1], [1, -1, 1, -1]]


def smash_product_table_entry(act, a, h, b, l):
    """The sigma-free multiplication (a#h)(b#l) = a h1(b) # h2 l."""
    hopf, alg = act.hopf, act.algebra
    field = hopf.field
    dH = hopf.dim
    out = {}
    for ch, (h1, h2) in hopf.sweedler(h, 2):
        hb = act.apply_basis(h1, b)
        a_part = alg.multiply({a: field.one}, hb)
        h_part = hopf.algebra.multiply_basis(h2, l)
        for (ai, hi), c in expand(ch, [a_part, h_part]).items():
            add_term(out, ai * dH + hi, c)
    return out


def c2_hopf(field=QQ):
    return group_hopf(field, FiniteGroup.cyclic(2))


def c2c2_hopf():
    return group_hopf(QQ, FiniteGroup.named("C2xC2"))


def s2_cocycle():
    h = c2c2_hopf()
    return h, lift_group_cocycle(h, SIGN_COCYCLE)


def dual_number_action():
    """The generator of C2 sends x -> -x on Q[x]/(x^2)."""
    h = c2_hopf()
    a = dual_numbers(QQ)
    table = [
        [{0: QQ.one}, {1: QQ.one}],      # identity acts trivially
        [{0: QQ.one}, {1: QQ.of(-1)}],   # g: 1 -> 1, x -> -x
    ]
    return ActionMap(h, a, table)


def translation_action():
    """C2 acting on functions on C2 by translating the argument."""
    h = c2_hopf()
    g = FiniteGroup.cyclic(2)
    a = function_algebra(QQ, g)
    table = [[{a_idx: QQ.one} for a_idx in range(2)],
             [{g.op(1, a_idx): QQ.one} for a_idx in range(2)]]
    return ActionMap(h, a, table)


def crossed_product(act, coc):
    """A #_sigma H, after the checks build_crossed_product takes for
    granted, and revalidated as an associative unital algebra."""
    assert validate_weak_action(act) is None
    assert validate_cocycle(coc, act) is None
    assert is_cocommutative(act.hopf)
    cp = build_crossed_product(act, coc)
    assert cp.product.validate() is None
    return cp


def test_trivial_action_valid():
    h = c2_hopf()
    act = trivial_action(h, ground_algebra(QQ))
    assert validate_weak_action(act) is None


def test_dual_number_action_valid():
    assert validate_weak_action(dual_number_action()) is None


def test_translation_action_valid():
    assert validate_weak_action(translation_action()) is None


def test_broken_action_detected():
    h = c2_hopf()
    a = ground_algebra(QQ)
    table = [[{0: QQ.one}], [{}]]  # g(1) = 0
    v = validate_weak_action(ActionMap(h, a, table))
    assert v is not None and "h(1)" in v.axiom


def test_trivial_cocycle_validates():
    h = c2_hopf()
    act = trivial_action(h, ground_algebra(QQ))
    assert validate_cocycle(trivial_cocycle(h), act) is None


def test_s2_cocycle_validates():
    h, coc = s2_cocycle()
    act = trivial_action(h, ground_algebra(QQ))
    assert validate_cocycle(coc, act) is None


def test_s2_cocycle_sign_values():
    h, coc = s2_cocycle()
    # generators u = (1,0) at index 1, v = (0,1) at index 2
    assert coc.values[1][2] == QQ.one
    assert coc.values[2][1] == QQ.of(-1)


def test_perturbed_s2_cocycle_rejected():
    h = c2c2_hopf()
    table = [row[:] for row in SIGN_COCYCLE]
    table[1][2] = -table[1][2]
    with pytest.raises(GroupCocycleError, match="cocycle identity"):
        lift_group_cocycle(h, table)
    # bypassing the lift: validate_cocycle must also catch it
    inv = [[QQ.one / table[i][j] for j in range(4)] for i in range(4)]
    coc = Cocycle(h, table, inv)
    act = trivial_action(h, ground_algebra(QQ))
    v = validate_cocycle(coc, act)
    assert v is not None and v.axiom == "cocycle property"


def test_group_cocycle_normalization_error():
    h = c2c2_hopf()
    table = [row[:] for row in SIGN_COCYCLE]
    table[0][1] = QQ.of(2)
    with pytest.raises(GroupCocycleError, match="normalization"):
        lift_group_cocycle(h, table)


def test_all_ones_table_gives_trivial_cocycle():
    h = c2c2_hopf()
    table = [[QQ.one] * 4 for _ in range(4)]
    coc = lift_group_cocycle(h, table)
    assert coc.values == trivial_cocycle(h).values


def test_convolution_inverse_trivial():
    h = c2_hopf()
    coc = trivial_cocycle(h)
    inv = convolution_inverse(h, coc.values)
    assert inv == coc.values


def test_convolution_inverse_s2_self_inverse():
    h, coc = s2_cocycle()
    assert convolution_inverse(h, coc.values) == coc.values


def test_convolution_inverse_involutive():
    h, coc = s2_cocycle()
    inv = convolution_inverse(h, coc.values)
    assert convolution_inverse(h, inv) == coc.values


def test_not_invertible_zero_on_group_likes():
    h = c2_hopf()
    zero = QQ.zero
    values = [[zero, zero], [zero, zero]]
    assert convolution_inverse(h, values) is None


def test_crossed_product_s1_is_group_algebra():
    h = c2_hopf()
    act = trivial_action(h, ground_algebra(QQ))
    cp = crossed_product(act, trivial_cocycle(h))
    assert cp.product.dim == 2
    assert validate_algebra(cp.product) is None
    g = cp.product.element("1#g")
    assert cp.product.multiply(g, g) == cp.product.element("1#e")


def test_crossed_product_s2_anticommuting_units():
    h, coc = s2_cocycle()
    act = trivial_action(h, ground_algebra(QQ))
    cp = crossed_product(act, coc)
    assert cp.product.dim == 4
    u = cp.product.element("1#(e,g)")
    v = cp.product.element("1#(g,e)")
    e = cp.product.element("1#(e,e)")
    assert cp.product.multiply(u, u) == e
    assert cp.product.multiply(v, v) == e
    uv = cp.product.multiply(u, v)
    vu = cp.product.multiply(v, u)
    assert vu == {k: -c for k, c in uv.items()}


def test_crossed_product_s3_orthogonal_idempotents():
    act = translation_action()
    cp = crossed_product(act, trivial_cocycle(act.hopf))
    assert cp.product.dim == 4
    # (delta_e # g)(delta_e # e) = delta_e . g(delta_e) # g = 0
    de_g = cp.product.element("d_e#g")
    de_e = cp.product.element("d_e#e")
    assert cp.product.multiply(de_g, de_e) == {}


def test_crossed_product_s5():
    act = dual_number_action()
    cp = crossed_product(act, trivial_cocycle(act.hopf))
    assert validate_algebra(cp.product) is None
    # g x g^{-1} = g(x) g g = -x (x # e means coefficient side)
    g = cp.product.element("1#g")
    x = cp.product.element("x#e")
    gxg = cp.product.multiply(cp.product.multiply(g, x), g)
    assert gxg == {k: -c for k, c in x.items()}


def test_trivial_sigma_matches_smash_product():
    act = dual_number_action()
    cp = crossed_product(act, trivial_cocycle(act.hopf))
    dA, dH = 2, 2
    for a in range(dA):
        for h in range(dH):
            for b in range(dA):
                for l in range(dH):
                    assert cp.product.multiply_basis(a * dH + h, b * dH + l) \
                        == smash_product_table_entry(act, a, h, b, l)


def test_twisted_scalar_algebra_dim():
    h, coc = s2_cocycle()
    hs = twisted_scalar_algebra(coc)
    assert hs.dim == 4
    assert validate_algebra(hs) is None


def test_action_upgrade_s2():
    h, coc = s2_cocycle()
    act = trivial_action(h, ground_algebra(QQ))
    assert verify_action_upgrade(act) is None


def test_action_upgrade_s5():
    act = dual_number_action()
    assert verify_action_upgrade(act) is None


def test_action_upgrade_counterexample():
    # g(x) = 1 - x squares to the identity, so the module axiom holds,
    # but it breaks h(ab) = h1(a) h2(b): no weak action
    h = c2_hopf()
    a = dual_numbers(QQ)
    table = [
        [{0: QQ.one}, {1: QQ.one}],
        [{0: QQ.one}, {0: QQ.one, 1: QQ.of(-1)}],  # g(x) = 1 - x: breaks h(ab)
    ]
    act = ActionMap(h, a, table)
    assert verify_action_upgrade(act) is None
    v = validate_weak_action(act)
    assert v is not None and v.axiom == "weak action: h(ab) = h1(a) h2(b)"


def test_module_axiom_counterexample():
    # g(d_e) = 1, g(d_g) = 0 on the functions on C2 is an algebra map
    # fixing 1, a weak action, but g(g(d_e)) = 1 != d_e = (gg)(d_e)
    h = c2_hopf()
    a = function_algebra(QQ, FiniteGroup.cyclic(2))
    act = ActionMap(h, a, [[{0: QQ.one}, {1: QQ.one}],
                           [{0: QQ.one, 1: QQ.one}, {}]])
    v = verify_action_upgrade(act)
    assert v.axiom == "module axiom: h(l(a)) = (hl)(a)"
    assert v.location == (1, 1, 0)
    assert validate_weak_action(act) == v


def test_f2_crossed_product():
    h = c2_hopf(Field(2))
    act = trivial_action(h, ground_algebra(Field(2)))
    cp = crossed_product(act, trivial_cocycle(h))
    assert validate_algebra(cp.product) is None
