"""One validation pass per run.

`parse_scenario` only parses.  `run_command` builds the objects once and
checks each input axiom there, and `verify` prints the verdicts of that
pass.  A violation of an axiom with a `verify` line is that line's FAIL
under `verify` and `report`, and ends the report; under every other
command it exits 1 with the same message as a failed construction.  A
row of the source-guard table (`test_source_guards`) keeps the
validators' calls in `cli.build_objects` and the `check` knob off the
builders.
"""

import sys
from collections import Counter
from pathlib import Path

import pytest

from hclab import cli
from hclab.algebra import Violation
from hclab.cli import main, parse_scenario, run_command

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
NAMES = ["s1", "s2", "s3", "s4", "s5"]
VALIDATORS = ("validate_hopf", "is_cocommutative", "validate_algebra",
              "validate_weak_action", "validate_cocycle")
BUILDERS = ("build_objects", "build_crossed_product", "build_cylinder")


def read(name):
    return (SCENARIOS / f"{name}.scn").read_text()


def count_calls(monkeypatch, names, modules):
    """Wrap each named function in every given module that holds it."""
    calls = Counter()
    for name in names:
        for module in modules:
            original = getattr(module, name, None)
            if original is None:
                continue

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("name", NAMES)
def test_parse_builds_nothing_and_report_validates_once(name, monkeypatch):
    calls = count_calls(monkeypatch, VALIDATORS + BUILDERS, [cli])
    scenario = parse_scenario(read(name))
    assert calls == Counter()
    assert run_command("report", scenario).passed
    for target in ("validate_hopf", "validate_weak_action",
                   "validate_cocycle", "build_crossed_product",
                   "build_objects", "is_cocommutative", "validate_algebra",
                   "build_cylinder"):
        assert calls[target] == 1, target


@pytest.mark.parametrize("name", NAMES)
def test_report_runs_each_input_check_once_in_the_whole_package(
        name, monkeypatch):
    """Counted in every hclab namespace: the module axiom is evaluated
    once, inside validate_weak_action, and k #_sigma H is the second
    crossed product."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "hclab" or n.startswith("hclab.")]
    calls = count_calls(
        monkeypatch, VALIDATORS + BUILDERS + ("verify_action_upgrade",),
        modules)
    assert run_command("report", parse_scenario(read(name))).passed
    assert calls["validate_hopf"] == 1
    assert calls["validate_weak_action"] == 1
    assert calls["verify_action_upgrade"] == 1
    assert calls["validate_cocycle"] == 1
    assert calls["is_cocommutative"] == 1
    assert calls["build_crossed_product"] == 2


# (validator, injected verdict, check line, its detail, stderr message)
INPUT_CHECKS = [
    ("validate_hopf", Violation("coassociativity", (2,)), "Hopf axioms",
     "coassociativity fails at (2)",
     "Hopf axiom violation: coassociativity fails at (2)"),
    ("is_cocommutative", False, "cocommutativity",
     "the Hopf algebra is not cocommutative",
     "the Hopf algebra is not cocommutative"),
    ("validate_weak_action",
     Violation("module axiom: h(l(a)) = (hl)(a)", (1, 1, 1)),
     "weak action axioms",
     "module axiom: h(l(a)) = (hl)(a) fails at (1,1,1)",
     "action axiom violation: module axiom: h(l(a)) = (hl)(a) fails at "
     "(1,1,1)"),
    ("validate_cocycle", Violation("cocycle property", (1, 0, 1)),
     "cocycle conditions and convolution inverse",
     "cocycle property fails at (1,0,1)",
     "cocycle condition violation: cocycle property fails at (1,0,1)"),
]
INPUT_LINES = [line for _, _, line, _, _ in INPUT_CHECKS]


@pytest.fixture
def s5_file(tmp_path):
    target = tmp_path / "s5.scn"
    target.write_text(read("s5"))
    return str(target)


@pytest.mark.parametrize("command", ["verify", "report"])
@pytest.mark.parametrize("validator,verdict,line,detail,message",
                         INPUT_CHECKS, ids=[c[0] for c in INPUT_CHECKS])
def test_failed_input_check_is_the_last_line(
        command, validator, verdict, line, detail, message, s5_file,
        monkeypatch, capsys):
    monkeypatch.setattr(cli, validator, lambda *args: verdict)
    assert main([command, s5_file, "--machine"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    before = INPUT_LINES[:INPUT_LINES.index(line)]
    assert [ln for ln in captured.out.splitlines()
            if ln.startswith(("check\t", "dims\t", "page\t"))] == [
        f"check\t{name}\tPASS" for name in before] + [
        f"check\t{line}\tFAIL {detail}"]
    assert captured.out.endswith("\noverall FAIL\n")


@pytest.mark.parametrize("validator,verdict,line,detail,message",
                         INPUT_CHECKS, ids=[c[0] for c in INPUT_CHECKS])
def test_failed_input_check_under_hc_exits_1_with_its_message(
        validator, verdict, line, detail, message, s5_file, monkeypatch,
        capsys):
    monkeypatch.setattr(cli, validator, lambda *args: verdict)
    assert main(["hc", s5_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"mathematical check failed: {message}\n"
