"""The operator providers against tuple-decoding reference implementations.

The providers of `AlgebraCyclicModule` and `HopfCrossedCylinder` compute
target indices from the flat basis index by stride arithmetic.  The
references below decode the index into its tuple of slots, apply the
operator's formula to the slots and encode each image term back, which is
how the providers were first written.  Every provider must agree with its
reference on every basis vector: each cylinder bidegree through (4,4) on
s1-s5, and degrees through 4 of the cyclic modules of A and A #_sigma H.
"""

from pathlib import Path

import pytest

from hclab.cli import build_objects, parse_scenario
from hclab.cycliccore import AlgebraCyclicModule, TensorSpace, apply_linear
from hclab.cylinder import HopfCrossedCylinder
from hclab.exactlinalg import add_term, expand

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ["s1", "s2", "s3", "s4", "s5"]
TOP = 4


def built(name):
    return build_objects(parse_scenario(
        (ROOT / "scenarios" / f"{name}.scn").read_text()))


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
            return apply_linear(self.vface, self.vrot(p, q, k), p, q, 0)
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
            return apply_linear(self.hface, self.hrot(p, q, k), p, q, 0)
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


def mismatches(provider, reference, calls):
    """The first few (args, image, reference image) that disagree."""
    bad = []
    for args in calls:
        got, want = provider(*args), reference(*args)
        if got != want:
            bad.append((args, got, want))
            if len(bad) == 3:
                break
    return bad


def cylinder_calls(cyl, name):
    """Every argument tuple of one cylinder provider through (TOP, TOP)."""
    for p in range(TOP + 1):
        for q in range(TOP + 1):
            ks = range(cyl.dim(p, q))
            if name in ("vface", "vdeg") and (name == "vdeg" or q >= 1):
                yield from ((p, q, i, k) for i in range(q + 1) for k in ks)
            elif name in ("hface", "hdeg") and (name == "hdeg" or p >= 1):
                yield from ((p, q, i, k) for i in range(p + 1) for k in ks)
            elif name in ("vrot", "hrot"):
                yield from ((p, q, k) for k in ks)


@pytest.mark.parametrize("name", SCENARIOS)
def test_cylinder_providers_match_the_reference(name):
    b = built(name)
    cyl = HopfCrossedCylinder(b.hopf, b.action, b.cocycle)
    ref = CylinderReference(cyl)
    for op in ("vface", "vdeg", "vrot", "hface", "hdeg", "hrot"):
        bad = mismatches(getattr(cyl, op), getattr(ref, op),
                         cylinder_calls(cyl, op))
        assert bad == [], (op, bad)


@pytest.mark.parametrize("which", ["algebra", "crossed product"])
@pytest.mark.parametrize("name", SCENARIOS)
def test_cyclic_module_providers_match_the_reference(name, which):
    b = built(name)
    algebra = (b.action.algebra if which == "algebra"
               else b.crossed_product.product)
    module, ref = AlgebraCyclicModule(algebra), AlgebraReference(algebra)
    for n in range(TOP + 1):
        ks = range(module.dim(n))
        calls = {
            "rotate": [(n, k) for k in ks],
            "degeneracy": [(n, i, k) for i in range(n + 1) for k in ks],
            "face": [(n, i, k) for i in range(n + 1) for k in ks
                     if n >= 1]}
        for op, args in calls.items():
            bad = mismatches(getattr(module, op), getattr(ref, op), args)
            assert bad == [], (op, n, bad)


def test_the_oracle_covers_every_bidegree_and_degree():
    """The sweep visits every bidegree through (TOP, TOP) and every basis
    vector there, so a provider that only fails high up cannot pass
    unseen."""
    b = built("s5")
    cyl = HopfCrossedCylinder(b.hopf, b.action, b.cocycle)
    heads = {args[:2] for args in cylinder_calls(cyl, "hface")}
    assert heads == {(p, q) for p in range(1, TOP + 1)
                     for q in range(TOP + 1)}
    assert sum(1 for _ in cylinder_calls(cyl, "vrot")) == sum(
        cyl.dim(p, q) for p in range(TOP + 1) for q in range(TOP + 1))
