"""The operator providers against tuple-decoding reference implementations.

The providers of `AlgebraCyclicModule` and `HopfCrossedCylinder` return
the column of one operator out of one degree, computing target indices
by stride arithmetic.  The references below take one basis index at a
time, decode it into its tuple of slots, apply the operator's formula to
the slots and encode each image term back, which is how the providers
were first written; the wrap-around faces of the cylinder are read from
their closed forms in `test_cylinder`.  Every column must hold its
reference's image, in normal form, on every basis vector: each cylinder
bidegree through (4,4) on s1-s5, and degrees through 4 of the cyclic
modules of A and A #_sigma H.  The vertical rotation, whose Sweedler
terms each degree extends from those of the degree below, is also
checked over prime fields (s2 over F_3, s5 over F_5) and on s4 (F_2) at
every bidegree that `hc` at degree 7 reads, p through 7.
"""

from pathlib import Path

import pytest

from hclab.cli import build_objects, parse_scenario
from hclab.cycliccore import ZERO, AlgebraCyclicModule, TensorSpace
from hclab.cylinder import HopfCrossedCylinder
from hclab.exactlinalg import add_term, expand
from test_cylinder import hface_last_direct, vface_last_direct

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ["s1", "s2", "s3", "s4", "s5"]
TOP = 4


def built(name, field="Q"):
    text = (ROOT / "scenarios" / f"{name}.scn").read_text()
    return build_objects(parse_scenario(
        text.replace("field = Q", f"field = {field}")))


class AlgebraReference:
    """The cyclic module of an algebra on decoded slot tuples."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.field = algebra.field

    def space(self, n):
        return TensorSpace([self.algebra.dim] * (n + 1))

    def face(self, n, i, k):
        src, dst = self.space(n), self.space(n - 1)
        tup = src.decode(k)
        out = {}
        if i < n:
            for t, c in self.algebra.multiply_basis(tup[i], tup[i + 1]).items():
                out[dst.encode(tup[:i] + (t,) + tup[i + 2:])] = c
            return out
        for t, c in self.algebra.multiply_basis(tup[n], tup[0]).items():
            out[dst.encode((t,) + tup[1:n])] = c
        return out

    def degeneracy(self, n, i, k):
        tup = self.space(n).decode(k)
        dst = self.space(n + 1)
        return {dst.encode(tup[:i + 1] + (u,) + tup[i + 1:]): c
                for u, c in self.algebra.unit.items()}

    def rotate(self, n, k):
        src = self.space(n)
        tup = src.decode(k)
        return {src.encode((tup[n],) + tup[:n]): self.field.one}


class CylinderReference:
    """The cylinder's operator families on decoded (Hopf string,
    coefficient string) pairs."""

    def __init__(self, cyl):
        self.cyl = cyl
        self.hopf, self.action = cyl.hopf, cyl.action
        self.algebra, self.cocycle = cyl.algebra, cyl.cocycle
        self.field = cyl.field

    def space(self, p, q):
        return TensorSpace([self.hopf.dim] * (p + 1)
                           + [self.algebra.dim] * (q + 1))

    def split(self, p, q, k):
        tup = self.space(p, q).decode(k)
        return tup[:p + 1], tup[p + 1:]

    def vface(self, p, q, i, k):
        if i == q:
            return vface_last_direct(self.cyl, p, q, k)
        gs, avs = self.split(p, q, k)
        tgt = self.space(p, q - 1)
        out = {}
        for t, c in self.algebra.multiply_basis(avs[i], avs[i + 1]).items():
            add_term(out, tgt.encode(gs + avs[:i] + (t,) + avs[i + 2:]), c)
        return out

    def vdeg(self, p, q, i, k):
        gs, avs = self.split(p, q, k)
        tgt = self.space(p, q + 1)
        out = {}
        for u, cu in self.algebra.unit.items():
            add_term(out, tgt.encode(gs + avs[:i + 1] + (u,) + avs[i + 1:]),
                     cu)
        return out

    def vrot(self, p, q, k):
        gs, avs = self.split(p, q, k)
        tgt = self.space(p, q)
        out = {}
        for coef, legs in self.hopf.sweedler_product([(g, 2) for g in gs]):
            u = self.hopf.product_of_basis([t[0] for t in legs])
            su = self.hopf.antipode_of(u)
            w = self.action.apply(su, {avs[q]: self.field.one})
            g2 = tuple(t[1] for t in legs)
            for t, c in expand(coef, g2 + (w,) + avs[:q]).items():
                add_term(out, tgt.encode(t), c)
        return out

    def hface(self, p, q, i, k):
        if i == p:
            return hface_last_direct(self.cyl, p, q, k)
        gs, avs = self.split(p, q, k)
        tgt = self.space(p - 1, q)
        out = {}
        for c1, (x1, x2) in self.hopf.sweedler(gs[i], 2):
            for c2, (y1, y2) in self.hopf.sweedler(gs[i + 1], 2):
                w = c1 * c2 * self.cocycle.values[x2][y2]
                if not w:
                    continue
                prod = self.hopf.algebra.multiply_basis(x1, y1)
                for t, ct in prod.items():
                    add_term(out, tgt.encode(gs[:i] + (t,) + gs[i + 2:] + avs),
                             w * ct)
        return out

    def hdeg(self, p, q, i, k):
        gs, avs = self.split(p, q, k)
        tgt = self.space(p + 1, q)
        out = {}
        for u, cu in self.hopf.algebra.unit.items():
            add_term(out, tgt.encode(gs[:i + 1] + (u,) + gs[i + 1:] + avs),
                     cu)
        return out

    def hrot(self, p, q, k):
        gs, avs = self.split(p, q, k)
        tgt = self.space(p, q)
        out = {}
        for c0, m in self.hopf.sweedler(gs[p], q + 2):
            acted = tuple(self.action.apply_basis(m[j], avs[j])
                          for j in range(q + 1))
            for t, c in expand(c0, (m[q + 1],) + gs[:p] + acted).items():
                add_term(out, tgt.encode(t), c)
        return out


def same_image(got, raw, one):
    """Whether a column's image is the reference image `raw` in normal
    form: the index of a basis vector, ZERO for zero, else an equal dict."""
    if not raw:
        return got is ZERO
    if len(raw) == 1 and next(iter(raw.values())) == one:
        return type(got) is int and raw == {got: one}
    return type(got) is dict and got == raw


def mismatches(provider, reference, heads, dim, one):
    """The first few (head, k, image, reference image) that disagree,
    over every basis vector k < dim(head) of every head."""
    bad = []
    for head in heads:
        column = provider(*head)
        assert len(column) == dim(head), head
        for k, got in enumerate(column):
            want = reference(*head, k)
            if not same_image(got, want, one):
                bad.append((head, k, got, want))
                if len(bad) == 3:
                    return bad
    return bad


def cylinder_heads(name):
    """Every head of one cylinder provider through (TOP, TOP)."""
    for p in range(TOP + 1):
        for q in range(TOP + 1):
            if name in ("vface", "vdeg") and (name == "vdeg" or q >= 1):
                yield from ((p, q, i) for i in range(q + 1))
            elif name in ("hface", "hdeg") and (name == "hdeg" or p >= 1):
                yield from ((p, q, i) for i in range(p + 1))
            elif name in ("vrot", "hrot"):
                yield p, q


@pytest.mark.parametrize("name", SCENARIOS)
def test_cylinder_providers_match_the_reference(name):
    b = built(name)
    cyl = HopfCrossedCylinder(b.hopf, b.action, b.cocycle)
    ref = CylinderReference(cyl)
    for op in ("vface", "vdeg", "vrot", "hface", "hdeg", "hrot"):
        bad = mismatches(getattr(cyl, op), getattr(ref, op),
                         cylinder_heads(op), lambda head: cyl.dim(*head[:2]),
                         cyl.field.one)
        assert bad == [], (op, bad)


# (scenario, field, the vrot heads read): prime fields through (TOP, TOP),
# and s4 at every (p, q) with p <= 7 and p + q <= 8, as hc at degree 7
VROT_CASES = [
    ("s2", "Fp 3", [(p, q) for p in range(TOP + 1) for q in range(TOP + 1)]),
    ("s5", "Fp 5", [(p, q) for p in range(TOP + 1) for q in range(TOP + 1)]),
    ("s4", "Fp 2", [(p, q) for p in range(8) for q in range(9 - p)]),
]


@pytest.mark.parametrize("name,field,heads", VROT_CASES)
def test_vrot_matches_the_reference_over_prime_fields_and_deep(
        name, field, heads):
    b = built(name, field)
    cyl = HopfCrossedCylinder(b.hopf, b.action, b.cocycle)
    assert cyl.field.characteristic == int(field.split()[1])
    bad = mismatches(cyl.vrot, CylinderReference(cyl).vrot, heads,
                     lambda head: cyl.dim(*head), cyl.field.one)
    assert bad == [], bad


@pytest.mark.parametrize("which", ["algebra", "crossed product"])
@pytest.mark.parametrize("name", SCENARIOS)
def test_cyclic_module_providers_match_the_reference(name, which):
    b = built(name)
    algebra = (b.action.algebra if which == "algebra"
               else b.crossed_product.product)
    module, ref = AlgebraCyclicModule(algebra), AlgebraReference(algebra)
    for n in range(TOP + 1):
        heads = {
            "rotate": [(n,)],
            "degeneracy": [(n, i) for i in range(n + 1)],
            "face": [(n, i) for i in range(n + 1) if n >= 1]}
        for op, op_heads in heads.items():
            bad = mismatches(getattr(module, op), getattr(ref, op), op_heads,
                             lambda head: module.dim(head[0]),
                             algebra.field.one)
            assert bad == [], (op, n, bad)


def test_the_oracle_covers_every_bidegree_and_degree():
    """The sweep visits every bidegree through (TOP, TOP), and reads every
    basis vector there, so a provider that only fails high up cannot pass
    unseen."""
    b = built("s5")
    cyl = HopfCrossedCylinder(b.hopf, b.action, b.cocycle)
    heads = {head[:2] for head in cylinder_heads("hface")}
    assert heads == {(p, q) for p in range(1, TOP + 1)
                     for q in range(TOP + 1)}
    read = []

    def reference(p, q, k):
        read.append((p, q, k))
        return CylinderReference(cyl).vrot(p, q, k)
    assert mismatches(cyl.vrot, reference, cylinder_heads("vrot"),
                      lambda head: cyl.dim(*head), cyl.field.one) == []
    assert len(read) == len(set(read)) == sum(
        cyl.dim(p, q) for p in range(TOP + 1) for q in range(TOP + 1))
