"""The operator tables of the identity checks.

An identity check reads every operator image through one
`cycliccore.OperatorTable` per provider, built for that check alone;
`check_cylindrical` reads one set for all its row checks, column checks
and relations at each bidegree, and drops a column once no later one of
them reads it.  A table keeps every column it reads: the list, indexed
by basis index, of every image of one head, in the normal form the
provider returns.  An oracle
compares what fresh tables hold with the tuple-decoding references of
`test_provider_oracle`, since the evaluator oracle reads the same
tables and cannot see a wrong one.  The memory guard measures the
deepest benchmarked check, two more guards measure the total mixed
complex of the deepest benchmarked `hc` and of s2 at degree 3, and one
the direct HC of s3's crossed product at degree 3.  The rows of the
source-guard table (`test_source_guards`) that keep the replaced memos
deleted, every provider on whole columns and on index arithmetic, and
`induced_map` in the `cycliccore.QuotientStore` live there; one test
here checks that no imported hclab namespace holds a replaced memo.
"""

import sys
import tracemalloc
from pathlib import Path

import pytest

from hclab.cli import build_objects, parse_scenario
from hclab.crossed import build_crossed_product
from hclab.cycliccore import cyclic_homology_of_algebra
from hclab.cylinder import HopfCrossedCylinder
from hclab.cylinder.core import (
    check_cylindrical, operator_tables, tot_mixed_complex,
)
from test_provider_oracle import CylinderReference, same_image

ROOT = Path(__file__).resolve().parent.parent
REPLACED = {"memoized", "_in_range_operators"}
MEBIBYTE = 2 ** 20


def test_no_module_defines_or_imports_a_replaced_memo():
    """hclab.cli imports every hclab module; none defines or imports a
    memo that the operator tables replaced."""
    found = [f"{name}.{memo}"
             for name, module in sorted(sys.modules.items())
             if name == "hclab" or name.startswith("hclab.")
             for memo in sorted(REPLACED & vars(module).keys())]
    assert found == []


def traced_peak(name, run):
    """The traced peak of run(cyl) on a fresh cylinder of scenario name."""
    built = build_objects(parse_scenario(
        (ROOT / "scenarios" / f"{name}.scn").read_text()))
    cyl = HopfCrossedCylinder(built.hopf, built.action, built.cocycle)
    tracemalloc.start()
    try:
        run(cyl)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["s3", "s5"])
def test_deep_check_stays_under_two_mebibytes(name):
    """check_cylindrical at (3,3), traced from a fresh cylinder."""
    def check(cyl):
        assert check_cylindrical(cyl, 3, 3) is None
    peak = traced_peak(name, check)
    assert peak < 2 * MEBIBYTE, peak


def test_deep_total_complex_stays_under_one_and_a_half_mebibytes():
    """tot_mixed_complex on s4 (F_2) at degree 7, the deepest `hc`
    benchmarked: what the providers keep per Hopf string must not
    outgrow the images they no longer build."""
    peak = traced_peak("s4", lambda cyl: tot_mixed_complex(cyl, 7))
    assert peak < 1.5 * MEBIBYTE, peak


def test_direct_hc_of_s3_at_degree_3_stays_under_0_85_mebibytes():
    """cyclic_homology_of_algebra on s3's crossed product, M2(Q), at
    degree 3, whose quotients above degree 0 are not coordinate, so its
    induced maps go through a projector column, with each denominator
    row's class summed one row at a time.  It peaks at about 846,000 bytes
    (Python 3.11), the product built inside the trace."""
    def direct_hc(cyl):
        product = build_crossed_product(cyl.action, cyl.cocycle).product
        cyclic_homology_of_algebra(product, 3)
    peak = traced_peak("s3", direct_hc)
    assert peak < 0.85 * MEBIBYTE, peak


def test_total_complex_of_s2_at_degree_3_stays_under_one_and_a_quarter_mebibytes():
    """tot_mixed_complex on s2 at degree 3.  It peaked at 1,412,214 bytes
    while b was assembled from one materialized matrix per face; with b
    built in face_0's matrix it peaks at about 1,018,000 (Python 3.11)."""
    peak = traced_peak("s2", lambda cyl: tot_mixed_complex(cyl, 3))
    assert peak < 1.25 * MEBIBYTE, peak


# the bidegrees each scenario's fresh tables are read through
TABLE_RANGES = {"s1": (3, 3), "s2": (3, 3), "s3": (4, 4), "s4": (3, 3),
                "s5": (4, 4)}


def heads(name, p, q):
    """Every head of cylinder provider `name` out of bidegree (p, q)."""
    n = q if name.startswith("v") else p
    if name.endswith("rot"):
        return [(p, q)]
    return [(p, q, i) for i in range(n + 1 if n or "deg" in name else 0)]


@pytest.mark.parametrize("name", sorted(TABLE_RANGES))
def test_fresh_tables_hold_the_raw_provider_images(name):
    """Every entry of every column a fresh table reads through the range
    is the reference image in normal form, the flag says whether all of
    them are indices, and a second read returns the kept column."""
    built = build_objects(parse_scenario(
        (ROOT / "scenarios" / f"{name}.scn").read_text()))
    cyl = built.cylinder
    ref = CylinderReference(cyl)
    top_p, top_q = TABLE_RANGES[name]
    one = cyl.field.one
    checked = 0
    for provider, table in sorted(operator_tables(cyl).items()):
        for p in range(top_p + 1):
            for q in range(top_q + 1):
                for head in heads(provider, p, q):
                    images, indices = table.column(head)
                    assert table.column(head)[0] is images
                    assert len(images) == cyl.dim(p, q)
                    assert indices == all(type(v) is int for v in images)
                    for k, got in enumerate(images):
                        want = getattr(ref, provider)(*head, k)
                        assert same_image(got, want, one), (
                            provider, head, k, got, want)
                    checked += len(images)
    assert checked
