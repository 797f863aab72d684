"""Set-up, timed passes and output checks, all in this process.

Load is a closed loop: one client, one thread, one item at a time; the
next item starts when the previous report has been rendered.  Each item
runs `hclab.cli.run_command` and `emit_report(machine=True)`, and its
output is checked against the committed golden report and against
answers that need no golden at all.
"""

from __future__ import annotations

import importlib
import sys
import time
import traceback
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .workloads import REPO

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
SRC = REPO / "src"

TOTAL_MATCHES = "check\ttotal complex matches the crossed product\tPASS"
# HC of a 2x2 matrix algebra (Morita invariance), over Q and over F_3
S2_HC = "dims\tcyclic homology of the crossed product\t1 0 1"


def import_cli():
    """A fresh import of hclab (every hclab module is dropped first)."""
    for name in [n for n in sys.modules
                 if n == "hclab" or n.startswith("hclab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module("hclab.cli")


def load_goldens(inputs):
    goldens = {}
    for inp in inputs:
        path = GOLDEN_DIR / f"{inp.item.key}.txt"
        goldens[inp.item.key] = path.read_text(encoding="utf-8") \
            if path.exists() else None
    return goldens


@dataclass
class Prepared:
    cli: object
    scenarios: list                 # parsed Scenario, or None
    errors: dict = dc_field(default_factory=dict)   # index -> message
    # perf_counter at the start and the end of the set-up
    started: float = 0.0
    ended: float = 0.0


def ingest(cli, inputs):
    """`parse_scenario` on every item; it runs all construction-time
    axiom checks.  A scenario that raises fails its item only."""
    prepared = Prepared(cli, [])
    for index, inp in enumerate(inputs):
        try:
            prepared.scenarios.append(cli.parse_scenario(inp.text))
        except Exception as exc:  # an item failure, not a harness failure
            prepared.scenarios.append(None)
            prepared.errors[index] = f"parse_scenario raised {exc!r}"
    return prepared


def setup(inputs):
    """A fresh import of hclab and the ingest of every item, timed."""
    started = time.perf_counter()
    prepared = ingest(import_cli(), inputs)
    prepared.started, prepared.ended = started, time.perf_counter()
    return prepared


def _outside_scenario(lines):
    """Report lines with the echoed scenario block left out."""
    out, inside = [], False
    for line in lines:
        if line == "scenario-begin":
            inside = True
        elif line == "scenario-end":
            inside = False
        elif not inside:
            out.append(line)
    return out


def check_output(inp, text, golden):
    """None if the report is right, else the reason it is not."""
    if golden is None:
        return f"no golden report for {inp.item.key}"
    lines = text.splitlines()
    if not lines or lines[-1] != "overall PASS":
        return "overall is not PASS"
    if inp.item.command in ("hc", "report") and TOTAL_MATCHES not in lines:
        return "total complex does not match the crossed product"
    if inp.item.base == "s2" and S2_HC not in lines:
        return "HC of the C2xC2 crossed product (M2(k)) is not 1 0 1"
    if inp.automorphism == 0:
        if text != golden:
            return "report differs from the golden"
    elif _outside_scenario(lines) != \
            _outside_scenario(golden.splitlines()):
        return "relabelled report differs from the golden outside the " \
               "scenario block"
    return None


@dataclass
class PassResult:
    attempted: int = 0
    failures: list = dc_field(default_factory=list)   # (item key, reason)
    outputs: dict = dc_field(default_factory=dict)    # item key -> text
    # item key -> run + render seconds of each run of that item
    item_seconds: dict = dc_field(default_factory=dict)
    # (item key, perf_counter start, end) of each run, in order
    intervals: list = dc_field(default_factory=list)

    @property
    def seconds(self):
        return sum(sum(times) for times in self.item_seconds.values())


def run_item(prepared, index, inp, golden, result, tracer=None):
    """Run, render and check one item, recording into `result`."""
    key = inp.item.key
    result.attempted += 1
    if index in prepared.errors:
        result.failures.append((key, prepared.errors[index]))
        return
    if tracer is not None:
        tracer.item = key
    cli = prepared.cli
    start = time.perf_counter()
    try:
        report = cli.run_command(inp.item.command, prepared.scenarios[index])
        text = cli.emit_report(report, machine=True)
    except Exception as exc:
        text = None
        traceback.print_exc(file=sys.stderr)
        result.failures.append((key, f"raised {exc!r}"))
    end = time.perf_counter()
    result.item_seconds.setdefault(key, []).append(end - start)
    result.intervals.append((key, start, end))
    if text is None:
        return
    result.outputs[key] = text
    reason = check_output(inp, text, golden)
    if reason is not None:
        result.failures.append((key, reason))


def run_pass(prepared, inputs, goldens, tracer=None):
    """One pass over the items in order; failures do not stop the pass."""
    result = PassResult()
    for index, inp in enumerate(inputs):
        run_item(prepared, index, inp, goldens[inp.item.key], result, tracer)
    return result
