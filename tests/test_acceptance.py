"""Acceptance suite: one test per criterion, each printing a pass/fail
line.  Every tolerance is zero: all arithmetic is exact.

Criterion 8 note: its first clause states the degree-(p,0) entries of the
first page for the characteristic-2 scenario (F_2, C_2 acting trivially,
trivial cocycle).  Row 0 carries the coefficients M_0 = H (x) A, of
dimension 2 * 1 = 2, on which C_2 acts trivially, so
E1(p,0) = dim M_0 * dim H_p(C_2; F_2) = 2 * 1 = 2 at every p.  This agrees
with Burghelea's splitting of HH_p(F_2[C_2]) into one summand
H_p(C_2; F_2) per conjugacy class, of which C_2 has two.  The value 1
stated before belongs to the one-dimensional trivial module, which the
trivial-module bar complex built in this file still checks.
"""

import os
import subprocess
import sys
from pathlib import Path

from hclab.exactlinalg import (
    Field, QQ, SparseMatrix, mat_rank,
)
from hclab.algebra import (
    FiniteGroup, dual_numbers, function_algebra, ground_algebra,
    group_algebra, matrix_algebra,
)
from hclab.hopf import group_hopf, is_cocommutative
from hclab.crossed import (
    ActionMap, Cocycle, build_crossed_product, lift_group_cocycle,
    trivial_action, trivial_cocycle, twisted_scalar_algebra,
    validate_cocycle, validate_weak_action,
)
from hclab.cycliccore import (
    AlgebraCyclicModule, TensorSpace, cyclic_homology_mixed,
    cyclic_homology_of_algebra, mixed_complex_of_cyclic,
)
from hclab.cylinder import (
    build_cylinder, check_cylindrical, check_diagonal_isomorphism,
    check_maclane, check_shuffle_chain_map, tot_mixed_complex,
)
from hclab.cylinder.coefficients import BimoduleMq, twisted_left_module, \
    hopf_homology
from hclab.spectral import (
    RowComplexes, collapse_check, compute_E1, compute_E2,
    induced_column_cyclic,
)
from hclab.cli import parse_scenario, run_command
from test_crossed import SIGN_COCYCLE

F2 = Field(2)
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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


ALL = [("s1", cylinder_s1), ("s2", cylinder_s2), ("s3", cylinder_s3),
       ("s4", cylinder_s4), ("s5", cylinder_s5)]


def _report(line):
    print(line)


def test_criterion_01_axiom_and_identity_suite():
    """verify passes exactly on every reference scenario, and the inputs
    of this file's cylinders meet the hypotheses build_cylinder takes for
    granted."""
    for name in ("s1", "s2", "s3", "s4", "s5"):
        scenario = parse_scenario((SCENARIOS / f"{name}.scn").read_text())
        report = run_command("verify", scenario)
        failed = [n for n, ok, _ in report.checks if not ok]
        assert not failed, f"{name}: failing checks {failed}"
    for name, factory in ALL:
        cyl = factory()
        assert validate_weak_action(cyl.action) is None, name
        assert validate_cocycle(cyl.cocycle, cyl.action) is None, name
        assert is_cocommutative(cyl.hopf), name
    _report("criterion 1 (axiom and identity suite, S1-S5, exact): PASS")


def test_criterion_02_mutation_sensitivity():
    """Any single sign flip in the sign-cocycle table is caught."""
    h = group_hopf(QQ, FiniteGroup.named("C2xC2"))
    base = SIGN_COCYCLE
    act = trivial_action(h, ground_algebra(QQ))
    e = h.group.identity
    for i in range(4):
        for j in range(4):
            table = [row[:] for row in base]
            table[i][j] = -table[i][j]
            inverse = [[QQ.one / table[a][b] for b in range(4)]
                       for a in range(4)]
            coc = Cocycle(h, table, inverse)
            bad = validate_cocycle(coc, act)
            assert bad is not None, f"flip at ({i},{j}) went unnoticed"
            if i == e or j == e:
                assert "normality" in bad.axiom
            else:
                assert bad.axiom == "cocycle property"
                # the commuting-horizontal-face identity of the cylinder
                # depends on the cocycle property; it must break too
                cyl = build_cylinder(h, act, coc)
                violation = check_cylindrical(cyl, 2, 2)
                assert violation is not None, \
                    f"flip at ({i},{j}) left the cylinder identities intact"
    _report("criterion 2 (mutation sensitivity, all 16 sign flips): PASS")


def test_criterion_03_diagonal_isomorphism_through_degree_3():
    for name, factory in ALL:
        cyl = factory()
        cp = build_crossed_product(cyl.action, cyl.cocycle)
        bad = check_diagonal_isomorphism(cyl, cp, 3)
        assert bad is None, f"{name}: {bad}"
    _report("criterion 3 (mutually inverse cyclic isomorphisms, "
            "degree <= 3, S1-S5): PASS")


def test_criterion_04_maclane_and_row_homology():
    for name, factory in ALL[:4]:
        cyl = factory()
        ts = twisted_scalar_algebra(cyl.cocycle)
        for q in range(3):
            bad = check_maclane(cyl, ts, q, 2)
            assert bad is None, f"{name} q={q}: {bad}"
        rows = RowComplexes(cyl)
        for q in range(3):
            bim = BimoduleMq(cyl, q)
            mod = twisted_left_module(bim)
            via_hopf = hopf_homology(cyl.hopf, mod.act, bim.dim, 2)
            for p in range(3):
                assert rows.homology_dim(p, q) == via_hopf.dims[p], \
                    f"{name}: row/Hopf mismatch at ({p},{q})"
    _report("criterion 4 (Mac Lane isomorphism and row homology = Hopf "
            "homology, p,q <= 2, S1-S4): PASS")


def test_criterion_05_cyclic_homology_baselines():
    assert cyclic_homology_of_algebra(ground_algebra(QQ), 2).dims == [1, 0, 1]
    qc2 = cyclic_homology_of_algebra(
        group_algebra(QQ, FiniteGroup.cyclic(2)), 2)
    assert qc2.dims == [2, 0, 2]
    # Wedderburn cross-check: Q[C2] and Q x Q, the functions on C2, agree
    qq = function_algebra(QQ, FiniteGroup.cyclic(2))
    assert cyclic_homology_of_algebra(qq, 2).dims == qc2.dims
    m2 = cyclic_homology_of_algebra(matrix_algebra(QQ, 2), 2)
    assert m2.dims == [1, 0, 1]
    cyl = cylinder_s2()
    cp = build_crossed_product(cyl.action, cyl.cocycle)
    s2_hc = cyclic_homology_of_algebra(cp.product, 2)
    assert s2_hc.dims == m2.dims
    _report("criterion 5 (cyclic homology baselines with Wedderburn and "
            "Morita cross-checks): PASS")


def test_criterion_06_semisimple_vanishing_and_collapse():
    for name, factory in [("s1", cylinder_s1), ("s2", cylinder_s2),
                          ("s3", cylinder_s3)]:
        cyl = factory()
        page, _ = compute_E1(cyl, 2, 2)
        for p in range(1, 3):
            for q in range(3):
                assert page.entry(p, q) == 0, \
                    f"{name}: first page not zero at ({p},{q})"
        cp = build_crossed_product(cyl.action, cyl.cocycle)
        rep = collapse_check(cyl, cyclic_homology_of_algebra(cp.product, 2))
        assert rep.passed, (f"{name}: collapse mismatch "
                            f"{rep.direct} vs {rep.via_invariants}")
    _report("criterion 6 (semisimple vanishing and collapse, S1-S3): PASS")


def test_criterion_07_total_complex_consequence():
    for name, factory in [("s1", cylinder_s1), ("s2", cylinder_s2)]:
        cyl = factory()
        tot = tot_mixed_complex(cyl, 3)
        hc_tot = cyclic_homology_mixed(tot, 2)
        diag = mixed_complex_of_cyclic(cyl.diagonal_module(), 3)
        hc_diag = cyclic_homology_mixed(diag, 2)
        assert hc_tot.dims == hc_diag.dims, \
            f"{name}: {hc_tot.dims} vs {hc_diag.dims}"
        assert check_shuffle_chain_map(cyl, 2) is None, name
    _report("criterion 7 (total-complex homology = diagonal cyclic "
            "homology, shuffle chain map, S1-S2): PASS")


def _char2_bar_oracle(group, dim_m, max_p):
    """Group homology over F2 with trivial coefficients of the given
    dimension, from a hand-built inhomogeneous bar complex."""
    def boundary(p):
        src = TensorSpace([group.order] * p + [dim_m])
        dst = TensorSpace([group.order] * (p - 1) + [dim_m])
        cols = []
        one = F2.one
        for k in range(src.size):
            t = src.decode(k)
            gs, m = t[:p], t[p]
            acc = {}

            def add(key, c):
                s = F2.of(acc.get(key, F2.zero) + c)
                if s:
                    acc[key] = s
                elif key in acc:
                    del acc[key]

            add(dst.encode(gs[1:] + (m,)), one)
            for i in range(1, p):
                add(dst.encode(gs[:i - 1] + (group.op(gs[i - 1], gs[i]),) +
                               gs[i + 1:] + (m,)), F2.sign(i))
            add(dst.encode(gs[:p - 1] + (m,)), F2.sign(p))
            cols.append(acc)
        return SparseMatrix.from_columns(F2, dst.size, cols)

    mats = {p: boundary(p) for p in range(1, max_p + 2)}
    dims = []
    for p in range(max_p + 1):
        total = TensorSpace([group.order] * p + [dim_m]).size
        rk_out = mat_rank(mats[p]) if p >= 1 else 0
        dims.append(total - rk_out - mat_rank(mats[p + 1]))
    return dims


def test_criterion_08_non_semisimple_pipeline():
    cyl = cylinder_s4()

    # the second page computes without well-definedness failures, and its
    # values are frozen as a regression baseline
    rows = RowComplexes(cyl)
    for p in range(3):
        induced_column_cyclic(rows, p, 3)
    page2 = compute_E2(*compute_E1(cyl, 2, 2))
    assert {k: v for k, v in sorted(page2.entries.items())} == {
        (0, 0): 2, (0, 1): 0, (0, 2): 2,
        (1, 0): 2, (1, 1): 0, (1, 2): 2,
        (2, 0): 2, (2, 1): 0, (2, 2): 2,
    }
    _report("criterion 8b (second page through (2,2) without "
            "well-definedness failures, baseline frozen): PASS")

    # independent oracle: the row-0 coefficients form the 2-dimensional
    # trivial module carried by the group algebra itself
    bim = BimoduleMq(cyl, 0)
    oracle = _char2_bar_oracle(cyl.hopf.group, bim.dim, 2)
    page1, _ = compute_E1(cyl, 2, 0)
    computed = [page1.entry(p, 0) for p in range(3)]
    assert computed == oracle == [2, 2, 2], \
        "pipeline disagrees with the independent bar-complex oracle"

    # criterion 8a: the stated value comes from the coefficient module and
    # the closed form H_p(C2; F2) = F2, not from the pipeline; the
    # one-dimensional trivial module gives 1 at every p, and M_0 is a
    # direct sum of bim.dim copies of it
    trivial = _char2_bar_oracle(cyl.hopf.group, 1, 2)
    assert trivial == [1, 1, 1], \
        f"trivial-module bar complex gives {trivial}, not H_p(C2; F2) = F2"
    stated = [bim.dim * t for t in trivial]
    assert computed == stated, (
        "first page disagrees with its coefficient module: computed "
        f"{computed}, stated {stated} (= dim M_0 {bim.dim} x trivial "
        f"{trivial}), oracle {oracle}")
    _report("criterion 8a (entries (p,0) of the first page equal "
            "dim M_0 * dim H_p(C2; F2) = 2, p <= 2): PASS")


def test_criterion_09_mixed_complex_contract():
    for name, factory in ALL:
        cyl = factory()
        cp = build_crossed_product(cyl.action, cyl.cocycle)
        mx = mixed_complex_of_cyclic(AlgebraCyclicModule(cp.product), 3)
        assert mx.verify(3) is None, name
        tot = tot_mixed_complex(cyl, 2)
        assert tot.verify(2) is None, name
        diag = mixed_complex_of_cyclic(cyl.diagonal_module(), 2)
        assert diag.verify(2) is None, name
    _report("criterion 9 (mixed-complex contract on every constructed "
            "mixed complex, including the twisted total complex): PASS")


def test_criterion_10_determinism():
    # the child finds hclab in the checkout's src, installed or not
    paths = [str(SCENARIOS.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    for name in ("s1", "s5"):
        path = SCENARIOS / f"{name}.scn"
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "hclab.cli", "report", str(path),
                 "--machine"],
                capture_output=True, cwd=str(SCENARIOS.parent), env=env)
            assert proc.returncode == 0, proc.stderr.decode()
            outs.append(proc.stdout)
        assert outs[0] == outs[1], f"{name}: reports differ between runs"
    _report("criterion 10 (byte-identical consecutive reports): PASS")
