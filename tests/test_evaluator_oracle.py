"""The whole-stage evaluator against the walk one basis vector at a time.

`cycliccore.first_violation` evaluates a stage of relations over its
whole basis at once and reports the first failing stage, its smallest
failing basis index k, and the earliest row failing at k.  The reference
below is the evaluator as it was before: it walks every row on basis
vector 0, then on basis vector 1, and so on, and returns the first row
that fails.  Both must return the same (name, k) on every stage list any
check hands the evaluator: on s1-s5 as shipped, under every fault that
`test_check_failures` injects, and under the cylinder faults of
`test_check_memo_oracle`.  A constructed stage pins the switch from
mapping whole lists of indices to the walk one image at a time.
"""

import sys
from pathlib import Path

import pytest

import hclab.cli  # noqa: F401  (imports every hclab module)
import hclab.cylinder.coefficients
from hclab.cli import build_objects, parse_scenario
from hclab.crossed import twisted_scalar_algebra
from hclab.cycliccore import (
    OperatorTable, check_cyclic, check_paracyclic, first_violation,
)
from hclab.cylinder import (
    check_coefficient_action, check_cylindrical, check_diagonal_isomorphism,
    check_maclane, check_row_identification, check_shuffle_chain_map,
)
from hclab.exactlinalg import QQ, SparseMatrix, add_term, vec_add_into
from test_check_failures import CASES
from test_check_memo_oracle import FAULTS, corrupted, scenario_cylinder

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


# -- the reference: one basis vector at a time --------------------------------


def reference_first_violation(stages, field):
    """The first relation that fails, walking every row of a stage on one
    basis vector after another; (name, k) or None."""
    for dim, relations in stages:
        heads = {}
        rows = [(name, _compile(lhs, heads), _compile(rhs, heads))
                for name, lhs, rhs in relations]
        heads = [_step(*step) for step in heads]
        for k in range(dim):
            images = [read(k) for read in heads]
            for name, lhs, rhs in rows:
                if not _same(_value(lhs, k, images, field.characteristic),
                             _value(rhs, k, images, field.characteristic),
                             field.one):
                    return name, k
    return None


def _step(op, args):
    """The step's image of one basis index at a time, read from its
    column."""
    column = op.column(args)[0] if isinstance(op, OperatorTable) else op(*args)
    return column.__getitem__


def _compile(word, heads):
    if not word:
        return None, ()
    return (heads.setdefault(word[0], len(heads)),
            tuple(_step(*step) for step in word[1:]))


def _value(word, k, images, p):
    head, rest = word
    v = k if head is None else images[head]
    for step in rest:
        if type(v) is int:
            v = step(v)
            continue
        out = {}
        for kk, c in v.items():
            image = step(kk)
            if type(image) is int:
                add_term(out, image, c, p)
            else:
                vec_add_into(out, image, c, p)
        v = out
    return v


def _same(u, v, one):
    if type(u) is int:
        if type(v) is int:
            return u == v
        u, v = v, u
    elif type(v) is not int:
        return u == v
    return len(u) == 1 and u.get(v) == one


# -- both evaluators on every stage list a check builds ----------------------


@pytest.fixture
def compared(monkeypatch):
    """Every call of the evaluator, in every hclab namespace, also runs the
    reference on the same stages and must agree with it; the list of
    results, one per call."""
    results = []

    def both(stages, field):
        stages = list(stages)
        got = first_violation(stages, field)
        assert got == reference_first_violation(stages, field)
        results.append(got)
        return got

    for name, module in list(sys.modules.items()):
        if (name.startswith("hclab.")
                and getattr(module, "first_violation", None)
                is first_violation):
            monkeypatch.setattr(module, "first_violation", both)
    return results


def scenario_checks(name):
    """(label, check) of every check that reaches the evaluator, on the
    objects of scenario `name`."""
    built = build_objects(parse_scenario(
        (SCENARIOS / f"{name}.scn").read_text()))
    cyl = built.cylinder
    ts = twisted_scalar_algebra(built.cocycle)
    return [
        ("paracyclic row 1", lambda: check_paracyclic(cyl.row_module(1), 2)),
        ("cyclic diagonal", lambda: check_cyclic(cyl.diagonal_module(), 2)),
        ("cylindrical", lambda: check_cylindrical(cyl, 2, 2)),
        ("diagonal", lambda: check_diagonal_isomorphism(
            cyl, built.crossed_product, 2)),
        ("row identification", lambda: check_row_identification(
            cyl, ts, 1, 2)),
        ("Mac Lane", lambda: check_maclane(cyl, ts, 1, 2)),
        ("shuffle", lambda: check_shuffle_chain_map(cyl, 2)),
        ("coefficient action", lambda: check_coefficient_action(cyl, 0)),
    ]


@pytest.mark.parametrize("name", ["s1", "s2", "s3", "s4", "s5"])
def test_every_check_agrees_on_the_shipped_scenarios(name, compared):
    for label, check in scenario_checks(name):
        calls = len(compared)
        assert check() is None, (name, label)
        assert len(compared) > calls, (name, label)
    assert compared and all(got is None for got in compared)


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_injected_fault_agrees(case, monkeypatch, compared):
    build, check, (owner, name, wrong), message = CASES[case]
    monkeypatch.setattr(owner, name, wrong)
    assert check(build()) == message
    assert compared


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_every_cylinder_fault_agrees(fault, compared):
    provider, where = FAULTS[fault]
    at = where(scenario_cylinder("s5"))
    cyl = scenario_cylinder("s5", corrupted(provider, at))
    assert check_cylindrical(cyl, 2, 2) is not None
    assert any(got is not None for got in compared)


def test_coefficient_action_names_the_first_wrong_pair(monkeypatch, compared):
    """Faults in the closed form at (h, m) = (1, 0) and (0, 3) on s5's
    row-0 coefficients: the check returns (0, 3), the pair its stages (one
    per h, over every m) meet first, as the loop over h and then m did."""
    original = hclab.cylinder.coefficients.coefficient_action_matrix

    def wrong(cyl, q):
        mats = original(cyl, q)
        for h, m in ((1, 0), (0, 3)):
            mats[h] = mats[h].add(SparseMatrix(
                mats[h].field, mats[h].rows, mats[h].cols, {(0, m): QQ.one}))
        return mats

    cyl = scenario_cylinder("s5")
    assert check_coefficient_action(cyl, 0) is None
    monkeypatch.setattr(hclab.cylinder.coefficients,
                        "coefficient_action_matrix", wrong)
    assert check_coefficient_action(cyl, 0) == (0, 3)
    assert compared[-1] == (0, 3)


# -- the order of failures within a stage -----------------------------------

DIM = 5


def identity():
    return list(range(DIM))


def wrong_at(*bad):
    """The identity as sparse vectors, doubled at the basis indices bad."""
    def op():
        return [{k: QQ.of(2) if k in bad else QQ.one} for k in range(DIM)]
    return op


def row(name, *bad):
    return name, ((identity, ()),), ((wrong_at(*bad), ()),)


TIE_BREAKS = {
    # b, a later row failing at a smaller k, comes before a; at that k,
    # b comes before c, the later row
    "smaller k, then earlier row": (
        [[row("a", 3), row("b", 1, 4), row("c", 1)]], ("b", 1)),
    "smaller k wins": ([[row("early", 3), row("late", 1)]], ("late", 1)),
    "equal k": ([[row("early", 2), row("late", 2)]], ("early", 2)),
    # an earlier stage comes first, even failing at a larger k
    "earlier stage wins": ([[row("first", 4)], [row("second", 0)]],
                           ("first", 4)),
}


@pytest.mark.parametrize("case", sorted(TIE_BREAKS))
def test_first_failure_order_within_a_stage(case):
    stages, want = TIE_BREAKS[case]
    stages = [(DIM, rows) for rows in stages]
    assert first_violation(stages, QQ) == want
    assert reference_first_violation(stages, QQ) == want


# -- a word that leaves the index path partway through ----------------------


def scaled_at(bad, scale):
    """The identity, with basis vector bad sent to scale times itself."""
    return lambda: [{k: QQ.of(scale) if k == bad else QQ.one}
                    for k in range(DIM)]


def test_a_word_switches_from_indices_to_a_column_holding_a_vector():
    """Both words of a row start on whole lists of indices and map them
    through the successor's table, whose column holds indices only.  Then
    one reaches a column holding a sparse vector, and from there on its
    images are pushed through one at a time.  Two sign flips at basis
    vector 2 cancel to a sparse form of an index, which must compare
    equal to that index; a doubling at basis vector 3 must fail at the
    basis vector the successor sends to 3.  A word whose first step is
    such a column is walked one image at a time from the start."""
    succ = OperatorTable(lambda: [(k + 1) % DIM for k in range(DIM)])
    flip = OperatorTable(scaled_at(2, -1))
    double = OperatorTable(scaled_at(3, 2))
    assert succ.column(())[1] is True
    assert flip.column(())[1] is False and double.column(())[1] is False
    step = {"s": (succ, ()), "f": (flip, ()), "d": (double, ())}

    def word(letters):
        return tuple(step[c] for c in letters)

    agreeing = [("flips cancel", word("sffs"), word("ss")),
                ("flips cancel from the first step", word("ffs"), word("s"))]
    doubled = ("doubled", word("sds"), word("ss"))
    for evaluate in (first_violation, reference_first_violation):
        assert evaluate([(DIM, agreeing)], QQ) is None
        assert evaluate([(DIM, [*agreeing, doubled])], QQ) == (
            "doubled", 2)
