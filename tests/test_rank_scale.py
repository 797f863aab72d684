"""Elimination at the scale of Q[S3], and the one elimination loop.

`hc` on Q[S3] at degree 3 ranks a 780 x 3906 boundary matrix (17,266
nonzeros, rank 654) on each HC path.  Eliminating its rows filled in far
enough to take tens of seconds and tens of MiB; eliminating its columns,
last-first, takes a fraction of a second and a few MiB.  Over Q every
group algebra has HC_n(Q[G]) = the number of conjugacy classes for even n
and 0 for odd n (Burghelea: the centralizers have no rational homology in
positive degree), so S3, with three classes, gives 3 0 3 0.
"""

import tracemalloc
from pathlib import Path

import hclab.exactlinalg
from hclab.cli import build_objects, emit_report, parse_scenario, run_command
from hclab.exactlinalg import (
    QQ, SparseMatrix, Subspace, kernel_basis, mat_rank, solve_linear,
)
from hclab.spectral import RowComplexes

MEBIBYTE = 2 ** 20
SRC = Path(__file__).resolve().parent.parent / "src" / "hclab"
ENTRY_POINTS = {"mat_rank", "kernel_basis", "solve_linear",
                "Subspace.from_vectors"}

Q_S3 = """\
field = Q
[hopf]
kind = group
group = S3
[algebra]
kind = ground
[action]
kind = trivial
[cocycle]
kind = trivial
[compute]
max_degree = 3
"""


def test_q_s3_hc_at_degree_3_stays_small():
    scenario = parse_scenario(Q_S3)
    tracemalloc.start()
    try:
        lines = emit_report(run_command("hc", scenario),
                            machine=True).splitlines()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "dims\tcyclic homology of the crossed product\t3 0 3 0" in lines
    assert "dims\tcyclic homology of the total complex\t3 0 3 0" in lines
    assert lines[-1] == "overall PASS"
    assert peak < 16 * MEBIBYTE, peak


def test_every_rank_kernel_solve_and_span_goes_through_rref(monkeypatch):
    """`rref` is the one elimination loop: each entry point that
    eliminates calls it, and none has a loop of its own."""
    calls = []
    original = hclab.exactlinalg.rref

    def counting(rows, *field):
        calls.append(len(rows))
        return original(rows, *field)

    monkeypatch.setattr(hclab.exactlinalg, "rref", counting)
    m = SparseMatrix(QQ, 2, 3, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4,
                                (1, 2): 1})
    entry_points = {
        "mat_rank": lambda: mat_rank(m),
        "kernel_basis": lambda: kernel_basis(m),
        "solve_linear": lambda: solve_linear(m, {0: 1, 1: 3}),
        "Subspace.from_vectors": lambda: Subspace.from_vectors(
            QQ, 3, [{0: 1, 1: 2}, {1: 1}]),
    }
    assert set(entry_points) == ENTRY_POINTS
    for name, call in entry_points.items():
        calls.clear()
        call()
        assert calls, name
    calls.clear()
    assert mat_rank(m) == 2 and calls == [m.cols]
    # the kernel is read off that one elimination of m's rows
    calls.clear()
    assert kernel_basis(m).pivots == [1] and calls == [m.rows]


def test_the_row_cycles_in_degree_zero_need_no_elimination(monkeypatch):
    """Every vector of the normalized row is a cycle at p = 0: the kernel
    is the coordinate subspace, and the one `rref` homology(0, q) makes
    is of the boundaries from (1, q)."""
    built = build_objects(parse_scenario(
        (SRC.parent.parent / "scenarios" / "s2.scn").read_text()))
    rows = RowComplexes(built.cylinder)
    calls = []
    original = hclab.exactlinalg.rref

    def counting(vectors, *field):
        calls.append(len(vectors))
        return original(vectors, *field)

    monkeypatch.setattr(hclab.exactlinalg, "rref", counting)
    for q in range(3):
        quotient = rows.quotient(0, q)
        boundaries = rows.induced("row_boundary", 1, q).columns
        calls.clear()
        ker, _ = rows.homology(0, q)
        assert ker.is_coordinate and ker.dim == quotient.dim > 0
        assert calls == [sum(1 for col in boundaries if col)]
