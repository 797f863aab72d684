"""The identity checks against checks that walk one basis vector at a time.

`check_paracyclic`, `check_cyclic` and `check_cylindrical` evaluate
whole columns of operator images through operator tables and the one
relation evaluator.  The oracles below are the checks as they were
before: every relation reads the images it needs one basis vector at a
time, each read from the provider's column at its head (computed once
per oracle), and the commutation check recovers operator kinds from its
labels.  Both walk the same relations on the same basis vectors in the
same order, so they must return exactly the same value -- None, or the
same first violation -- on the shipped scenarios and under injected
faults, while the checks evaluate far fewer images than the oracle
reads.
"""

from collections import Counter
from pathlib import Path

import pytest

from hclab.algebra import FiniteGroup, ground_algebra, group_algebra
from hclab.cli import build_objects, parse_scenario
from hclab.crossed import Cocycle, trivial_action
from hclab.cycliccore import (
    AlgebraCyclicModule,
    MatrixParacyclicModule,
    RelationViolation,
    check_cyclic,
    check_paracyclic,
)
from hclab.cylinder import HopfCrossedCylinder, build_cylinder
from hclab.cylinder.core import check_cylindrical
from hclab.exactlinalg import QQ, SparseMatrix, exact_div, vec_add_into
from hclab.hopf import group_hopf
from test_check_failures import corrupt_provider
from test_crossed import SIGN_COCYCLE

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
PROVIDERS = ("vface", "vdeg", "vrot", "hface", "hdeg", "hrot")

# the images the oracles have read, by provider name
READS = Counter()


def scenario_cylinder(name, cls=HopfCrossedCylinder):
    built = build_objects(parse_scenario((SCENARIOS / f"{name}.scn")
                                         .read_text()))
    return cls(built.hopf, built.action, built.cocycle)


# -- the oracles --------------------------------------------------------------


def reader(owner):
    """read(name, *head, k): the image of basis vector k under the
    provider `name` of `owner` at the head, as a sparse vector, taken
    from the provider's column there, which is computed once."""
    columns = {}
    one = owner.field.one

    def read(name, *args):
        *head, k = args
        key = (name, tuple(head))
        if key not in columns:
            columns[key] = getattr(owner, name)(*head)
        READS[name] += 1
        image = columns[key][k]
        return {image: one} if type(image) is int else image
    return read


def _image(fn, vec):
    out = {}
    for k, c in vec.items():
        vec_add_into(out, fn(k), c)
    return out


def oracle_check_paracyclic(module, max_degree):
    read = reader(module)

    def face_vec(n, i, vec):
        return _image(lambda k: read("face", n, i, k), vec)

    def degeneracy_vec(n, i, vec):
        return _image(lambda k: read("degeneracy", n, i, k), vec)

    def rotate_vec(n, vec):
        return _image(lambda k: read("rotate", n, k), vec)

    for n in range(max_degree + 1):
        can_deg_n = module.degeneracy_available(n)
        can_deg_up = module.degeneracy_available(n + 1)
        can_face_up = module.face_available(n + 1)
        can_rot_up = module.rotate_available(n + 1)
        for k in range(module.dim(n)):
            e = {k: module.field.one}
            if n >= 2:
                for j in range(1, n + 1):
                    fj = read("face", n, j, k)
                    for i in range(j):
                        lhs = face_vec(n - 1, i, fj)
                        rhs = face_vec(n - 1, j - 1, read("face", n, i, k))
                        if lhs != rhs:
                            return RelationViolation(
                                f"face_{i} face_{j} = face_{j-1} face_{i}",
                                n, k)
            if can_deg_n and can_deg_up:
                for j in range(n + 1):
                    sj = read("degeneracy", n, j, k)
                    for i in range(j + 1):
                        lhs = degeneracy_vec(n + 1, i, sj)
                        rhs = degeneracy_vec(
                            n + 1, j + 1, read("degeneracy", n, i, k))
                        if lhs != rhs:
                            return RelationViolation(
                                f"deg_{i} deg_{j} = deg_{j+1} deg_{i}", n, k)
            if can_deg_n and can_face_up:
                for j in range(n + 1):
                    sj = read("degeneracy", n, j, k)
                    for i in range(n + 2):
                        img = face_vec(n + 1, i, sj)
                        if i == j or i == j + 1:
                            want = e
                        elif i < j:
                            want = degeneracy_vec(
                                n - 1, j - 1, read("face", n, i, k))
                        else:
                            want = degeneracy_vec(
                                n - 1, j, read("face", n, i - 1, k))
                        if img != want:
                            return RelationViolation(
                                f"face_{i} deg_{j} mismatch", n, k)
            t = read("rotate", n, k)
            if n >= 1:
                if face_vec(n, 0, t) != read("face", n, n, k):
                    return RelationViolation("face_0 rotate = face_n", n, k)
                for i in range(1, n + 1):
                    lhs = face_vec(n, i, t)
                    rhs = rotate_vec(n - 1, read("face", n, i - 1, k))
                    if lhs != rhs:
                        return RelationViolation(
                            f"face_{i} rotate = rotate face_{i-1}", n, k)
            if can_deg_n and can_rot_up:
                for i in range(1, n + 1):
                    lhs = degeneracy_vec(n, i, t)
                    rhs = rotate_vec(n + 1, read("degeneracy", n, i - 1, k))
                    if lhs != rhs:
                        return RelationViolation(
                            f"deg_{i} rotate = rotate deg_{i-1}", n, k)
                lhs = degeneracy_vec(n, 0, t)
                rhs = rotate_vec(
                    n + 1, rotate_vec(n + 1, read("degeneracy", n, n, k)))
                if lhs != rhs:
                    return RelationViolation(
                        "deg_0 rotate = rotate^2 deg_n", n, k)
    return None


def oracle_check_cyclic(module, max_degree):
    bad = oracle_check_paracyclic(module, max_degree)
    if bad is not None:
        return bad
    read = reader(module)
    for n in range(max_degree + 1):
        for k in range(module.dim(n)):
            v = {k: module.field.one}
            for _ in range(n + 1):
                v = _image(lambda kk: read("rotate", n, kk), v)
            if v != {k: module.field.one}:
                return RelationViolation("rotate^(n+1) = id", n, k)
    return None


def oracle_check_cylindrical(cyl, max_p, max_q):
    for q in range(max_q + 1):
        bad = oracle_check_paracyclic(cyl.row_module(q), max_p)
        if bad is not None:
            return f"row {q}: {bad}"
    for p in range(max_p + 1):
        bad = oracle_check_paracyclic(cyl.column_module(p), max_q)
        if bad is not None:
            return f"column {p}: {bad}"
    read = reader(cyl)
    for p in range(max_p + 1):
        for q in range(max_q + 1):
            bad = oracle_check_commutation(read, cyl, p, q)
            if bad is not None:
                return bad
            for k in range(cyl.dim(p, q)):
                v = {k: cyl.field.one}
                for _ in range(p + 1):
                    v = _image(lambda kk: read("hrot", p, q, kk), v)
                for _ in range(q + 1):
                    v = _image(lambda kk: read("vrot", p, q, kk), v)
                if v != {k: cyl.field.one}:
                    return ("joint rotation identity fails at "
                            f"({p},{q}) basis {k}")
    return None


def oracle_check_commutation(read, cyl, p, q):
    verticals = []
    if q >= 1:
        verticals += [(f"vface_{i}", lambda k, i=i: read("vface", p, q, i, k),
                       lambda k, i=i: read("vface", p - 1, q, i, k),
                       lambda k, i=i: read("vface", p + 1, q, i, k))
                      for i in range(q + 1)]
    verticals += [(f"vdeg_{i}", lambda k, i=i: read("vdeg", p, q, i, k),
                   lambda k, i=i: read("vdeg", p - 1, q, i, k),
                   lambda k, i=i: read("vdeg", p + 1, q, i, k))
                  for i in range(q + 1)]
    verticals += [("vrot", lambda k: read("vrot", p, q, k),
                   lambda k: read("vrot", p - 1, q, k),
                   lambda k: read("vrot", p + 1, q, k))]
    horizontals = []
    if p >= 1:
        horizontals += [(f"hface_{j}",
                         lambda k, j=j: read("hface", p, q, j, k), "down")
                        for j in range(p + 1)]
    horizontals += [(f"hdeg_{j}", lambda k, j=j: read("hdeg", p, q, j, k),
                     "up") for j in range(p + 1)]
    horizontals += [("hrot", lambda k: read("hrot", p, q, k), "same")]

    for vname, v_here, v_down, v_up in verticals:
        for hname, h_here, direction in horizontals:
            v_there = {"down": v_down, "up": v_up, "same": v_here}[direction]
            vq = q - 1 if vname.startswith("vface") else (
                q + 1 if vname.startswith("vdeg") else q)
            if hname.startswith("hface"):
                j = int(hname.split("_")[1])
                h_there = lambda k, j=j, vq=vq: read("hface", p, vq, j, k)
            elif hname.startswith("hdeg"):
                j = int(hname.split("_")[1])
                h_there = lambda k, j=j, vq=vq: read("hdeg", p, vq, j, k)
            else:
                h_there = lambda k, vq=vq: read("hrot", p, vq, k)
            for k in range(cyl.dim(p, q)):
                one = {k: cyl.field.one}
                lhs = _image(v_there, _image(h_here, one))
                rhs = _image(h_there, _image(v_here, one))
                if lhs != rhs:
                    return (f"{vname} and {hname} fail to commute at "
                            f"({p},{q}) basis {k}")
    return None


# -- agreement on the shipped scenarios ----------------------------------------


@pytest.mark.parametrize("name", ["s1", "s2", "s3", "s4", "s5"])
def test_cylindrical_matches_oracle(name):
    cyl = scenario_cylinder(name)
    got = check_cylindrical(cyl, 2, 2)
    assert got is None
    assert got == oracle_check_cylindrical(cyl, 2, 2)


@pytest.mark.parametrize("name", ["s2", "s5"])
def test_cyclic_diagonal_matches_oracle(name):
    diagonal = scenario_cylinder(name).diagonal_module()
    got = check_cyclic(diagonal, 2)
    assert got is None
    assert got == oracle_check_cyclic(diagonal, 2)


def test_deep_check_matches_oracle_with_fewer_evaluations(monkeypatch):
    """s5 and s3 at (3,3): the same verdict from under 15% and 17% of the
    oracle's image evaluations (48,896 images against 367,438 and
    410,324 reads).  The oracle evaluates one image per read, as the
    checks did when they called a provider per basis vector; the check
    evaluates the images of the columns its providers compute, counted on
    the class as a tracer would.  One set of operator tables serves the
    whole check, wrap-around faces included, so no column is computed
    twice."""
    images = Counter()
    columns = Counter()
    for name in PROVIDERS:
        def counted(self, *args, _provider=getattr(HopfCrossedCylinder,
                                                    name), _name=name):
            column = _provider(self, *args)
            images[_name] += len(column)
            columns[_name, args] += 1
            return column
        monkeypatch.setattr(HopfCrossedCylinder, name, counted)

    for scenario, share in (("s5", 0.15), ("s3", 0.17)):
        cyl = scenario_cylinder(scenario)
        READS.clear()
        want = oracle_check_cylindrical(cyl, 3, 3)
        oracle_reads = sum(READS.values())
        images.clear()
        columns.clear()
        got = check_cylindrical(cyl, 3, 3)
        table_images = sum(images.values())
        assert got is None and want is None, scenario
        assert table_images < share * oracle_reads, (
            scenario, table_images, oracle_reads)
        assert set(columns.values()) == {1}, scenario


# -- agreement under injected faults --------------------------------------------


def test_scaled_rotation_matches_oracle():
    class Scaled(AlgebraCyclicModule):
        def rotate(self, n):
            return [{k: QQ.of(2)} for k in super().rotate(n)]

    module = Scaled(group_algebra(QQ, FiniteGroup.cyclic(2)))
    got = check_paracyclic(module, 2)
    assert got is not None and "rotate" in got.relation
    assert got == oracle_check_paracyclic(module, 2)
    assert check_cyclic(module, 2) == oracle_check_cyclic(module, 2)


def test_flipped_cocycle_sign_matches_oracle():
    h = group_hopf(QQ, FiniteGroup.named("C2xC2"))
    table = [row[:] for row in SIGN_COCYCLE]
    table[1][1] = -table[1][1]
    inv = [[exact_div(QQ.one, table[i][j]) for j in range(4)]
           for i in range(4)]
    cyl = build_cylinder(h, trivial_action(h, ground_algebra(QQ)),
                         Cocycle(h, table, inv))
    got = check_cylindrical(cyl, 2, 2)
    assert got is not None
    assert got == oracle_check_cylindrical(cyl, 2, 2)


def corrupted(provider, at):
    """A cylinder class whose `provider` column at the head has one more
    unit in the least coordinate of entry k (coordinate 0 when the image
    is zero), where `at` is the head and then k."""
    _, name, wrong = corrupt_provider(HopfCrossedCylinder, provider, at)
    return type("Corrupted", (HopfCrossedCylinder,), {name: wrong})


# (p, q, i, k) inside (2, 2), and in the bidegree one step outside, on a
# degenerate basis vector, where the row and column checks reach it
# through a face-of-degeneracy or rotation-of-degeneracy relation.  No row
# or column check reads vertical faces in column 3, so that fault is left
# to the commutation check.
FAULTS = {
    "hface in range": ("hface", lambda cyl: (2, 1, 1, 5)),
    "hface overhang": ("hface", lambda cyl: (
        3, 1, 1, least(cyl.hdeg(2, 1, 0)[5]))),
    "vrot in range": ("vrot", lambda cyl: (1, 2, 7)),
    "vrot overhang": ("vrot", lambda cyl: (
        1, 3, least(cyl.vdeg(1, 2, 0)[7]))),
    "vface in column 3": ("vface", lambda cyl: (
        3, 1, 0, least(cyl.hdeg(2, 1, 0)[5]))),
}


def least(image):
    """The least basis index in a column's image."""
    return image if type(image) is int else min(image)


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_corrupted_image_matches_oracle(fault):
    provider, where = FAULTS[fault]
    at = where(scenario_cylinder("s5"))
    cyl = scenario_cylinder("s5", corrupted(provider, at))
    got = check_cylindrical(cyl, 2, 2)
    assert got is not None, f"{fault} at {at} went unnoticed"
    assert got == oracle_check_cylindrical(cyl, 2, 2)


class RescaledColumn(HopfCrossedCylinder):
    """Column 1's vertical faces doubled and its degeneracies halved.

    Every column stays paracyclic (the wrap-around face picks up the
    factor through face_0), so only the commutation check can see it.
    """

    def vface(self, p, q, i):
        column = super().vface(p, q, i)
        if p != 1 or i == q:
            return column
        return scaled(column, lambda c: self.field.of(2) * c)

    def vdeg(self, p, q, i):
        column = super().vdeg(p, q, i)
        if p != 1:
            return column
        return scaled(column, lambda c: exact_div(c, self.field.of(2)))


def scaled(column, scale):
    """The column with every coefficient c replaced by scale(c); a basis
    index j stands for coefficient 1 at j."""
    out = []
    for image in column:
        if type(image) is int:
            image = {image: QQ.one}
        out.append({j: scale(c) for j, c in image.items()})
    return out


def test_commutation_fault_matches_oracle():
    cyl = scenario_cylinder("s5", RescaledColumn)
    got = check_cylindrical(cyl, 2, 2)
    assert got is not None and "fail to commute" in got
    assert got == oracle_check_cylindrical(cyl, 2, 2)


def _argument_tuples(cyl, provider, top):
    """Every argument tuple of `provider` at bidegrees through (top, top)
    and one step outside, where the checks read images."""
    for p in range(top + 2):
        for q in range(top + 2):
            if p > top and q > top:
                continue
            degree = q if provider.startswith("v") else p
            if provider.endswith("rot"):
                indices = [()]
            elif provider.endswith("face") and degree == 0:
                indices = []
            else:
                indices = [(i,) for i in range(degree + 1)]
            for index in indices:
                for k in range(cyl.dim(p, q)):
                    yield (p, q) + index + (k,)


@pytest.mark.parametrize("provider", PROVIDERS)
def test_every_single_corruption_matches_oracle(provider):
    """One corrupted image at a time, at every argument tuple the checks
    read on s1 through (1, 1): whichever relation sees it first, both
    checks must name the same one.  A relation the memoized checks
    skipped would show up here as a corruption only the oracle reports.
    """
    base = scenario_cylinder("s1")
    caught = 0
    for at in _argument_tuples(base, provider, 1):
        cyl = scenario_cylinder("s1", corrupted(provider, at))
        want = oracle_check_cylindrical(cyl, 1, 1)
        assert check_cylindrical(cyl, 1, 1) == want, at
        caught += want is not None
    assert caught


def matrix_module(top, corrupt):
    """The cyclic module of Q[C2] stored as matrices through degree
    `top` (faces and rotations through `top`, degeneracies below it, as
    the induced column modules store them), with one unit added at entry
    (0, 0) of the stored matrix named by `corrupt` (or none)."""
    base = AlgebraCyclicModule(group_algebra(QQ, FiniteGroup.cyclic(2)))
    faces = {(n, i): base.face_matrix(n, i)
             for n in range(1, top + 1) for i in range(n + 1)}
    degeneracies = {(n, i): base.degeneracy_matrix(n, i)
                    for n in range(top) for i in range(n + 1)}
    rotations = {n: base.rotate_matrix(n) for n in range(top + 1)}
    stored = {"face": faces, "degeneracy": degeneracies,
              "rotation": rotations}
    if corrupt is not None:
        kind, key = corrupt
        m = stored[kind][key]
        stored[kind][key] = m.add(SparseMatrix(QQ, m.rows, m.cols,
                                               {(0, 0): QQ.one}))
    return MatrixParacyclicModule(QQ, [base.dim(n) for n in range(top + 1)],
                                  faces, degeneracies, rotations)


# the top degree is only reached through the relations that read one
# degree above the checked range, which the availability gates admit
MATRIX_FAULTS = {
    "none": None,
    "top face": ("face", (3, 1)),
    "top rotation": ("rotation", 3),
}


@pytest.mark.parametrize("fault", sorted(MATRIX_FAULTS))
def test_matrix_module_matches_oracle(fault):
    module = matrix_module(3, MATRIX_FAULTS[fault])
    got = check_paracyclic(module, 2)
    assert (got is None) == (fault == "none")
    assert got == oracle_check_paracyclic(module, 2)
    assert check_cyclic(module, 2) == oracle_check_cyclic(module, 2)
