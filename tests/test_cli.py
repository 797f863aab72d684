import dataclasses
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hclab import cli, spectral
from hclab.cli import (
    InputCheckFailed,
    MathCheckFailed,
    ScenarioError,
    emit_report,
    main,
    parse_scenario,
    run_command,
)
from hclab.cycliccore import MixedComplexError, NormalizationError
from hclab.cylinder import HopfComplexError, ModuleLawError
from hclab.algebra import FiniteGroup, Violation
from hclab.exactlinalg import DimensionCapExceeded, MathError, Subspace
from hclab.spectral import SpectralError

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def read(name):
    return (SCENARIOS / name).read_text()


def test_parse_s2_roundtrip():
    scenario = parse_scenario(read("s2.scn"))
    again = parse_scenario(scenario.canonical_text())
    assert scenario == again


@pytest.mark.parametrize("name", ["s1.scn", "s3.scn", "s4.scn", "s5.scn"])
def test_parse_all_scenarios_roundtrip(name):
    scenario = parse_scenario(read(name))
    assert parse_scenario(scenario.canonical_text()) == scenario


def test_bad_characteristic():
    text = read("s1.scn").replace("field = Q", "field = Fp 4")
    with pytest.raises(ScenarioError, match="prime"):
        parse_scenario(text)


# field lines that must be refused, with a word of the reason; 561 is a
# Carmichael number, 1000000016000000063 = 1000000007 * 1000000009, and
# the last is the first characteristic beyond the exact primality test
REFUSED_FIELDS = [("Fp 0", "needs a prime"), ("Fp 1", "needs a prime"),
                  ("Fp 4", "prime"), ("Fp 561", "prime"),
                  ("Fp 1000000016000000063", "prime"),
                  ("Fp 3317044064679887385961981", "too large")]


@pytest.mark.parametrize("spec, reason", REFUSED_FIELDS)
def test_a_field_line_without_a_prime_exits_2_naming_its_line(
        tmp_path, capsys, spec, reason):
    """Fp 0 is not Q, and no characteristic takes longer than an instant
    to refuse: primality is decided by deterministic Miller-Rabin."""
    text = read("s4.scn").replace("field = Fp 2", f"field = {spec}")
    lineno = text.splitlines().index(f"field = {spec}") + 1
    target = tmp_path / "field.scn"
    target.write_text(text)
    start = time.perf_counter()
    assert main(["hc", str(target)]) == 2
    assert time.perf_counter() - start < 2
    err = capsys.readouterr().err
    assert f"line {lineno}:" in err and reason in err


def test_a_large_prime_characteristic_parses_at_once():
    """2^61 - 1 is prime; trial division up to its square root hung."""
    start = time.perf_counter()
    text = read("s4.scn").replace("field = Fp 2",
                                  "field = Fp 2305843009213693951")
    assert parse_scenario(text).field_characteristic == 2**61 - 1
    assert time.perf_counter() - start < 2


def test_non_normalized_group_cocycle():
    text = read("s2.scn").replace(
        "values = 1 1 1 1  1 1 1 1  1 -1 1 -1  1 -1 1 -1",
        "values = 1 2 1 1  1 1 1 1  1 -1 1 -1  1 -1 1 -1")
    scenario = parse_scenario(text)
    with pytest.raises(MathCheckFailed, match="normalization"):
        run_command("report", scenario)


def test_mutated_cocycle_names_triple():
    text = read("s2.scn").replace(
        "values = 1 1 1 1  1 1 1 1  1 -1 1 -1  1 -1 1 -1",
        "values = 1 1 1 1  1 1 1 -1  1 -1 1 -1  1 -1 1 -1")
    scenario = parse_scenario(text)
    with pytest.raises(MathCheckFailed, match="cocycle identity"):
        run_command("report", scenario)


def test_syntax_error_line_number():
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario("field = Q\nnonsense without equals\n")


def test_missing_action_table_entry():
    text = read("s5.scn").replace("map = 1 1 : 0 -1\n", "")
    scenario = parse_scenario(text)
    with pytest.raises(ScenarioError, match="missing"):
        run_command("report", scenario)


def test_run_verify_s1():
    scenario = parse_scenario(read("s1.scn"))
    report = run_command("verify", scenario)
    assert report.passed
    assert any("cylinder" in name for name, _, _ in report.checks)


def test_run_hc_s2():
    scenario = parse_scenario(read("s2.scn"))
    report = run_command("hc", scenario)
    assert report.passed
    titles = {t: dims for t, dims in report.tables}
    assert titles["cyclic homology of the crossed product"] == [1, 0, 1]
    assert titles["cyclic homology of the total complex"] == [1, 0, 1]


def test_run_collapse_s2():
    scenario = parse_scenario(read("s2.scn"))
    report = run_command("collapse", scenario)
    assert report.passed
    titles = {t: dims for t, dims in report.tables}
    assert titles["cyclic homology, direct"] == [1, 0, 1]


def test_run_collapse_s4_refused():
    scenario = parse_scenario(read("s4.scn"))
    with pytest.raises(ScenarioError, match="semisimple"):
        run_command("collapse", scenario)


def test_run_e1_s1():
    scenario = parse_scenario(read("s1.scn"))
    report = run_command("e1", scenario)
    entries = {(p, q): d for _, p, q, d in report.pages}
    assert entries[(0, 0)] == 2 and entries[(1, 1)] == 0


def test_machine_and_human_same_data():
    scenario = parse_scenario(read("s1.scn"))
    report = run_command("hc", scenario)
    human = emit_report(report, machine=False)
    machine = emit_report(report, machine=True)
    for _, dims in report.tables:
        joined = " ".join(str(d) for d in dims)
        assert joined in machine
        assert ", ".join(f"{n}:{d}" for n, d in enumerate(dims)) in human
    assert ("overall: PASS" in human) == ("overall PASS" in machine)


def test_cli_exit_codes(tmp_path, capsys):
    target = tmp_path / "s1.scn"
    target.write_text(read("s1.scn"))
    assert main(["verify", str(target)]) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.scn"
    bad.write_text(read("s1.scn").replace("field = Q", "field = Fp 4"))
    assert main(["verify", str(bad)]) == 2
    capsys.readouterr()

    mutated = tmp_path / "mut.scn"
    mutated.write_text(read("s2.scn").replace(
        "values = 1 1 1 1  1 1 1 1  1 -1 1 -1  1 -1 1 -1",
        "values = 1 1 1 1  1 1 1 -1  1 -1 1 -1  1 -1 1 -1"))
    assert main(["verify", str(mutated)]) == 1
    err = capsys.readouterr().err
    assert "cocycle identity" in err

    assert main(["verify", str(tmp_path / "missing.scn")]) == 2
    capsys.readouterr()

    capped = tmp_path / "capped.scn"
    capped.write_text(read("s2.scn"))
    assert main(["report", str(capped), "--cap", "3"]) == 3
    capsys.readouterr()


def test_python_dash_m_runs_the_command_line(capsys):
    """`python -m hclab` from a checkout, with only `src` on the path,
    prints what main() prints and exits as it does."""
    argv = ["hc", str(SCENARIOS / "s1.scn"), "--machine"]
    assert main(argv) == 0
    want = capsys.readouterr().out
    root = SCENARIOS.parent
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    env["PYTHONPATH"] = str(root / "src")
    run = subprocess.run([sys.executable, "-m", "hclab", *argv], cwd=root,
                         env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == want


def test_cap_applies_to_the_degrees_hc_builds(tmp_path, capsys):
    """hc at degree 2 on s2 (C2 x C2 acting on Q) builds chain degrees
    through 3, whose largest space is 4^4 = 256: that cap suffices, one
    less names the space."""
    target = tmp_path / "s2.scn"
    target.write_text(read("s2.scn"))
    args = ["hc", str(target), "--max-degree", "2"]
    assert main(args + ["--cap", "256"]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    assert main(args + ["--cap", "255"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("resource cap: chain space of dimension 256 exceeds the cap 255"
            in captured.err)


def test_collapse_applies_the_cap_as_hc_does(tmp_path, capsys):
    """collapse reads the crossed product's HC computed under the cap, as
    hc does: on s2 at degree 2 that builds a chain space of dimension
    4^4 = 256."""
    target = tmp_path / "s2.scn"
    target.write_text(read("s2.scn"))
    for command in ("hc", "collapse"):
        assert main([command, str(target), "--cap", "100"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("resource cap: chain space of dimension 256 exceeds the "
                "cap 100" in captured.err)
    assert main(["collapse", str(target), "--cap", "256"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_cli_report_deterministic(tmp_path, capsys):
    target = tmp_path / "s5.scn"
    target.write_text(read("s5.scn"))
    assert main(["report", str(target), "--machine"]) == 0
    first = capsys.readouterr().out
    assert main(["report", str(target), "--machine"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.encode() == second.encode()


def test_zero_denominator_cocycle_scalar_exits_2(tmp_path, capsys):
    text = read("s2.scn").replace(
        "values = 1 1 1 1  1 1 1 1  1 -1 1 -1  1 -1 1 -1",
        "values = 1 1 1 1  1 1/0 1 1  1 -1 1 -1  1 -1 1 -1")
    lineno = text.splitlines().index(
        "values = 1 1 1 1  1 1/0 1 1  1 -1 1 -1  1 -1 1 -1") + 1
    target = tmp_path / "zero-den.scn"
    target.write_text(text)
    assert main(["verify", str(target)]) == 2
    err = capsys.readouterr().err
    assert f"line {lineno}:" in err
    assert "'1/0'" in err and "zero denominator" in err


@pytest.mark.parametrize("key", ["max_degree", "max_p", "max_q", "cap"])
def test_negative_size_in_scenario_exits_2(tmp_path, capsys, key):
    text = read("s2.scn").rstrip("\n") + f"\n{key} = -1\n"
    target = tmp_path / "negative.scn"
    target.write_text(text)
    assert main(["hc", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"'{key}' must not be negative, got -1" in captured.err
    assert f"line {len(text.splitlines())}:" in captured.err


@pytest.mark.parametrize("option",
                         ["--max-degree", "--max-p", "--max-q", "--cap"])
def test_negative_size_option_exits_2(tmp_path, capsys, option):
    target = tmp_path / "s1.scn"
    target.write_text(read("s1.scn"))
    assert main(["hc", str(target), option, "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{option} must not be negative, got -1" in captured.err


@pytest.mark.parametrize("command", ["e1", "e2"])
def test_page_size_options_match_the_compute_section(tmp_path, capsys,
                                                     command):
    """--max-p and --max-q reach the pages as the [compute] keys do."""
    flagged = tmp_path / "flagged.scn"
    flagged.write_text(read("s5.scn"))
    assert main([command, str(flagged), "--max-p", "3", "--max-q", "1",
                 "--machine"]) == 0
    by_flags = capsys.readouterr().out
    edited = tmp_path / "edited.scn"
    edited.write_text(read("s5.scn").replace("max_p = 2", "max_p = 3")
                      .replace("max_q = 2", "max_q = 1"))
    assert main([command, str(edited), "--machine"]) == 0
    by_file = capsys.readouterr().out
    assert by_flags == by_file
    assert "max_p = 3\nmax_q = 1\n" in by_flags
    assert main([command, str(flagged), "--machine"]) == 0
    assert capsys.readouterr().out != by_flags


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def test_programming_error_exits_4(tmp_path, capsys, monkeypatch):
    target = tmp_path / "s1.scn"
    target.write_text(read("s1.scn"))
    monkeypatch.setattr(cli, "check_cylindrical",
                        _raise(TypeError("unsupported operand")))
    assert main(["verify", str(target)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "internal error: TypeError: unsupported operand" in captured.err
    assert "mathematical check failed" not in captured.err


def test_programming_error_in_collapse_exits_4(tmp_path, capsys,
                                               monkeypatch):
    target = tmp_path / "s1.scn"
    target.write_text(read("s1.scn"))
    monkeypatch.setattr(Subspace, "coords_of",
                        _raise(TypeError("unsupported operand")))
    assert main(["collapse", str(target)]) == 4
    captured = capsys.readouterr()
    assert "internal error: TypeError: unsupported operand" in captured.err
    assert "mathematical check failed" not in captured.err


@pytest.mark.parametrize("validator,violation,detail", [
    ("validate_hopf", Violation("coassociativity", (2,)),
     "coassociativity fails at (2)"),
    ("check_row_identification", "face 1 disagrees at row 0, degree 2, "
     "basis 5", "face 1 disagrees at row 0, degree 2, basis 5"),
    ("check_coefficient_action", (1, 3), "(1, 3)"),
])
def test_failed_verify_line_names_its_violation(validator, violation, detail,
                                                monkeypatch):
    name = {"validate_hopf": "Hopf axioms",
            "check_row_identification":
                "row = Hochschild complex of the twisted algebra",
            "check_coefficient_action": "coefficient action closed form",
            }[validator]
    scenario = parse_scenario(read("s1.scn"))
    passing = run_command("verify", scenario)
    assert (name, True, "") in passing.checks

    def inject():
        monkeypatch.setattr(cli, validator, lambda *args: violation)

    if validator == "validate_hopf":
        # the Hopf verdict is taken once, while the objects are built
        inject()
        report = run_command("verify", scenario)
    else:
        built = cli.build_objects(scenario)
        report = cli.Report(scenario=scenario, command="verify")
        inject()
        cli._run_verify(built, report)
    assert (name, False, detail) in report.checks
    assert ("check\t" + name + "\tFAIL " + detail + "\n"
            in emit_report(report, machine=True))


def test_math_error_subclass_exits_1(tmp_path, capsys, monkeypatch):
    target = tmp_path / "s1.scn"
    target.write_text(read("s1.scn"))
    monkeypatch.setattr(cli, "check_cylindrical",
                        _raise(ModuleLawError("faces do not commute")))
    assert main(["verify", str(target)]) == 1
    captured = capsys.readouterr()
    assert "mathematical check failed: faces do not commute" in captured.err
    assert "internal error" not in captured.err


def test_every_math_error_class_shares_the_base():
    for cls in (MathCheckFailed, SpectralError, MixedComplexError,
                NormalizationError, HopfComplexError, ModuleLawError,
                InputCheckFailed):
        assert issubclass(cls, MathError), cls
    assert not issubclass(ScenarioError, MathError)
    assert not issubclass(DimensionCapExceeded, MathError)


def test_report_records_a_failed_first_page(tmp_path, capsys, monkeypatch):
    """A first page whose two computations disagree fails its own line and
    the second page's, which reads it; the collapse stage still runs."""
    target = tmp_path / "s1.scn"
    target.write_text(read("s1.scn"))
    hopf_homology = spectral.hopf_homology

    def off_by_one(*args):
        rep = hopf_homology(*args)
        return dataclasses.replace(rep, dims=[d + 1 for d in rep.dims])

    monkeypatch.setattr(spectral, "hopf_homology", off_by_one)
    detail = "first-page mismatch at (0,0): row homology 2, Hopf homology 3"
    scenario = parse_scenario(read("s1.scn"))
    report = run_command("report", scenario)
    checks = {name: (ok, detail) for name, ok, detail in report.checks}
    assert checks["first page: row homology = Hopf homology"] == (
        False, detail)
    assert checks["second page computed without well-definedness "
                  "failures"] == (False, detail)
    # the stage after the pages still ran and passed
    assert checks["collapse comparison"] == (True, "")
    assert report.pages == []
    assert not report.passed

    assert main(["report", str(target), "--machine"]) == 1
    out = capsys.readouterr().out
    assert ("check\tfirst page: row homology = Hopf homology\tFAIL "
            + detail + "\n") in out
    assert ("check\tsecond page computed without well-definedness "
            "failures\tFAIL " + detail + "\n") in out
    assert out.endswith("overall FAIL\n")

    assert main(["e1", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "mathematical check failed: " + detail in captured.err


def test_report_records_a_failed_collapse(tmp_path, capsys, monkeypatch):
    target = tmp_path / "s1.scn"
    target.write_text(read("s1.scn"))
    assert main(["report", str(target), "--machine"]) == 0
    passing = capsys.readouterr().out.splitlines()

    monkeypatch.setattr(cli, "collapse_check",
                        _raise(SpectralError("collapse mismatch in degree 1")))
    assert main(["report", str(target), "--machine"]) == 1
    failing = capsys.readouterr().out.splitlines()
    # every line before the collapse stage is printed as it was
    stage = passing.index("check\tcollapse comparison\tPASS")
    assert failing[:stage] == passing[:stage]
    assert failing[stage] == ("check\tcollapse comparison\tFAIL "
                              "collapse mismatch in degree 1")
    # after it come the other tables and the pages, without the two
    # tables the collapse stage would have added
    collapse_tables = ("dims\tcyclic homology, direct\t",
                       "dims\tcyclic homology via invariants\t")
    assert failing[stage + 1:-1] == [
        line for line in passing[stage + 1:-1]
        if not line.startswith(collapse_tables)]
    assert failing[-1] == "overall FAIL"

    assert main(["collapse", str(target)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "mathematical check failed: collapse mismatch" in captured.err


@pytest.mark.parametrize("section,key", [
    ("", "fields"), ("[hopf]", "groups"), ("[algebra]", "kinds"),
    ("[action]", "kinds"), ("[cocycle]", "value"),
    ("[compute]", "max_degre")])
def test_unknown_key_exits_2_with_its_line(tmp_path, capsys, section, key):
    """A misspelt key is refused where it stands, not filed and ignored."""
    lines = read("s2.scn").splitlines()
    at = lines.index(section) + 1 if section else 0
    lines.insert(at, f"{key} = 3")
    target = tmp_path / "misspelt.scn"
    target.write_text("\n".join(lines) + "\n")
    assert main(["hc", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    name = section.strip("[]")
    assert (f"invalid input: line {at + 1}: unknown key '{key}' in section "
            f"[{name}]") in captured.err


def test_undecodable_scenario_exits_2(tmp_path, capsys):
    target = tmp_path / "utf16.scn"
    target.write_bytes(b"\xff\xfe" + read("s1.scn").encode("utf-16-le"))
    assert main(["hc", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid input: cannot read {target}: 'utf-8' codec" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("old,new,built", [
    ("group = C2", "group = C20", []),
    ("kind = ground", "kind = group C20", [2]),
])
def test_group_over_the_cap_is_refused_before_its_table(
        tmp_path, capsys, monkeypatch, old, new, built):
    """C20 has a table of 400 entries: under --cap 300 it exits 3 before
    any table of it is built (only the Hopf group C2's, in the coefficient
    case); at the cap its table is built and a chain space is refused."""
    cyclic = FiniteGroup.cyclic.__func__
    orders = []
    monkeypatch.setattr(FiniteGroup, "cyclic", classmethod(
        lambda cls, n: orders.append(n) or cyclic(cls, n)))
    target = tmp_path / "large.scn"
    target.write_text(read("s1.scn").replace(old, new))
    assert main(["hc", str(target), "--cap", "300"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("resource cap: group C20: 400 table entries exceed the cap 300"
            in captured.err)
    assert orders == built
    assert main(["hc", str(target), "--cap", "400"]) == 3
    assert "resource cap: chain space of dimension" in capsys.readouterr().err
    assert 20 in orders


def test_matrix_algebra_over_the_cap_is_refused_before_its_table(
        tmp_path, capsys):
    """Validating M_n visits its (n^2)^3 basis triples, so M20's 64,000,000
    are refused under the default cap before its table is built or
    validated: exit 3 within a second, naming the count."""
    target = tmp_path / "m20.scn"
    target.write_text(read("s1.scn").replace("kind = ground",
                                             "kind = matrix 20"))
    start = time.perf_counter()
    assert main(["hc", str(target)]) == 3
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("resource cap: matrix algebra M20: 64000000 basis triples "
            "exceed the cap 200000" in captured.err)


def test_matrix_2_runs_under_the_cap(tmp_path, capsys):
    """M_2 has 64 basis triples.  With the trivial action and cocycle its
    crossed product is M_2(Q[C2]), whose HC is Q[C2]'s (Morita
    invariance): the same dims as s1."""
    target = tmp_path / "m2.scn"
    target.write_text(read("s1.scn").replace("kind = ground",
                                             "kind = matrix 2"))
    assert main(["hc", "--machine", str(target)]) == 0
    out = capsys.readouterr().out
    assert "dims\tcyclic homology of the crossed product\t2 0 2\n" in out
    assert "overall PASS" in out


def test_bad_coefficient_group_exits_2(tmp_path, capsys):
    target = tmp_path / "bad-group.scn"
    target.write_text(read("s3.scn").replace("kind = functions C2",
                                             "kind = functions D3"))
    assert main(["hc", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid input: bad group: unknown group name 'D3'" in captured.err


@pytest.mark.parametrize("base,old,new", [
    ("s3.scn", "perm = 1 : 1 0", "perm = -1 : 1 0"),
    ("s5.scn", "map = 1 1 : 0 -1", "map = 1 -1 : 0 -1"),
    ("s5.scn", "map = 1 1 : 0 -1", "map = -1 1 : 0 -1"),
])
def test_negative_action_index_exits_2_naming_its_line(tmp_path, capsys,
                                                       base, old, new):
    """A negative Hopf or algebra index would wrap round to another basis
    element and fill its slot; the line is refused and named instead."""
    text = read(base)
    assert old in text
    target = tmp_path / "negative-index.scn"
    target.write_text(text.replace(old, new))
    assert main(["hc", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert repr(new) in captured.err


@pytest.mark.parametrize("base,old,new", [
    ("s1.scn", "field = Q", "field = Fpq 3"),
    ("s1.scn", "field = Q", "field = Fp 3 junk"),
    ("s1.scn", "field = Q", "field = Q junk"),
    ("s1.scn", "field = Q", "field = Fp"),
    ("s1.scn", "field = Q", "field = Fp -3"),
    ("s1.scn", "kind = ground", "kind = ground junk"),
    ("s5.scn", "kind = dual_numbers", "kind = dual_numbers 7"),
    ("s5.scn", "kind = dual_numbers", "kind ="),
])
def test_stray_tokens_exit_2_with_their_line(tmp_path, capsys, base, old,
                                             new):
    """The field is `Q` or `Fp <p>` and `ground` and `dual_numbers` take
    no argument: any other token is refused where it stands, not
    dropped."""
    lines = read(base).splitlines()
    at = lines.index(old)
    lines[at] = new
    target = tmp_path / "stray.scn"
    target.write_text("\n".join(lines) + "\n")
    with pytest.raises(ScenarioError):
        parse_scenario(target.read_text())
    assert main(["hc", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid input: line {at + 1}: " in captured.err


@pytest.mark.parametrize("base,old,new,message", [
    ("s5.scn", "map = 1 1 : 0 -1", "map = 1 1 : 0 zz",
     "bad action table line 'map = 1 1 : 0 zz'"),
    ("s5.scn", "map = 0 1 : 0 1", "map = 0 1 : 0",
     "bad action table line 'map = 0 1 : 0'"),
    ("s3.scn", "perm = 1 : 1 0", "perm = 1 : 1 1",
     "bad permutation line 'perm = 1 : 1 1'"),
    ("s5.scn", "kind = trivial", "kind = trivial junk",
     "unknown cocycle kind 'trivial junk'"),
    ("s5.scn", "kind = table", "kind = table junk",
     "unknown action kind 'table junk'"),
])
def test_action_and_cocycle_errors_exit_2_with_their_line(
        tmp_path, capsys, base, old, new, message):
    """[action] lines and the action and cocycle kinds are refused naming
    the line they stand on, like every other section's input errors."""
    lines = read(base).splitlines()
    at = lines.index(old)
    lines[at] = new
    target = tmp_path / "bad-line.scn"
    target.write_text("\n".join(lines) + "\n")
    assert main(["hc", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid input: line {at + 1}: {message}" in captured.err
