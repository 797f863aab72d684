"""The benchmark's workloads and the inputs a seed generates for them.

Every scenario text is derived from the shipped `scenarios/s*.scn` files
by rewriting the field line, the `[compute]` sizes and, for the C2 x C2
scenario, the cocycle table under a group automorphism.  The seed fixes
the item order within a pass and the automorphism of each C2 x C2 item.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass, field as dc_field
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO / "scenarios"

# Aut(C2 x C2) permutes the three non-identity elements freely (group
# index 0 is the identity, and the product of two distinct non-identity
# elements is the third).  Index 0 of this list is the identity.
C2XC2_AUTOMORPHISMS = tuple((0,) + perm
                            for perm in itertools.permutations((1, 2, 3)))


@dataclass(frozen=True)
class Item:
    key: str            # golden file stem
    command: str
    base: str           # scenario file stem, e.g. "s3"
    field: str = ""     # replacement for the 'field =' value, if any
    compute: tuple = dc_field(default=())   # ((key, value), ...)


WORKLOADS = {
    "reference": (
        Item("report-s1", "report", "s1"),
        Item("report-s2", "report", "s2"),
        Item("report-s3", "report", "s3"),
        Item("report-s4", "report", "s4"),
        Item("report-s5", "report", "s5"),
    ),
    "hc-q": (
        Item("hc-s3-deg3", "hc", "s3", compute=(("max_degree", 3),)),
        Item("hc-s5-deg3", "hc", "s5", compute=(("max_degree", 3),)),
        Item("hc-s2-deg2", "hc", "s2"),
    ),
    "hc-fp": (
        Item("hc-s4-deg7", "hc", "s4", compute=(("max_degree", 7),)),
        Item("hc-s2-f3-deg2", "hc", "s2", field="Fp 3"),
    ),
    "verify-deep": (
        Item("verify-s5-pq3", "verify", "s5",
             compute=(("max_p", 3), ("max_q", 3))),
        Item("verify-s3-pq3", "verify", "s3",
             compute=(("max_p", 3), ("max_q", 3))),
    ),
}


@dataclass(frozen=True)
class Input:
    item: Item
    automorphism: int   # index into C2XC2_AUTOMORPHISMS; 0 = identity
    text: str


def _replace_line(text, key, value):
    pattern = re.compile(rf"^{re.escape(key)}\s*=.*$", re.M)
    new, count = pattern.subn(f"{key} = {value}", text)
    if count != 1:
        raise ValueError(f"expected one '{key} =' line, found {count}")
    return new


def relabel_cocycle(values, automorphism):
    """sigma'(g, h) = sigma(phi^-1 g, phi^-1 h) on a flat 4x4 table."""
    phi = C2XC2_AUTOMORPHISMS[automorphism]
    inverse = [0] * 4
    for g, image in enumerate(phi):
        inverse[image] = g
    return [values[4 * inverse[g] + inverse[h]]
            for g in range(4) for h in range(4)]


def is_c2xc2(text):
    return re.search(r"^group\s*=\s*C2xC2\s*$", text, re.M) is not None


def scenario_text(item, automorphism=0):
    text = (SCENARIO_DIR / f"{item.base}.scn").read_text(encoding="utf-8")
    if item.field:
        text = _replace_line(text, "field", item.field)
    for key, value in item.compute:
        text = _replace_line(text, key, value)
    if automorphism:
        if not is_c2xc2(text):
            raise ValueError(f"{item.key} is not a C2xC2 scenario")
        match = re.search(r"^values\s*=(.*)$", text, re.M)
        values = relabel_cocycle(match.group(1).split(), automorphism)
        text = _replace_line(text, "values", " ".join(values))
    return text


def make_inputs(workload, seed):
    """The items of a workload in seeded order, with their texts."""
    rng = random.Random(seed)
    items = list(WORKLOADS[workload])
    rng.shuffle(items)
    inputs = []
    for item in items:
        automorphism = 0
        if is_c2xc2(scenario_text(item)):
            automorphism = rng.randrange(len(C2XC2_AUTOMORPHISMS))
        inputs.append(Input(item, automorphism,
                            scenario_text(item, automorphism)))
    return inputs
