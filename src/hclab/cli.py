"""Scenario ingestion and the hclab command-line driver.

Scenario files are line-oriented sectioned key-value text::

    # comments start with '#'
    field = Q                  # or: field = Fp 2
    [hopf]
    kind = group
    group = C2xC2              # C{n}, C{n}xC{m}..., S3
    [algebra]
    kind = ground              # ground | group G | functions G |
                               # dual_numbers | matrix n
    [action]
    kind = trivial             # trivial | permutation | table
    # permutation lines:  perm = H_INDEX : j0 j1 ...
    # table lines:        map = H_INDEX A_INDEX : c0 c1 ...
    [cocycle]
    kind = trivial             # trivial | group_table | table
    values = 1 1 1 1  1 1 1 1  1 -1 1 -1  1 -1 1 -1
    [compute]
    max_degree = 2
    max_p = 2
    max_q = 2
    cap = 200000

Scalars are integers or fractions 'a/b'.  Parsing checks syntax,
scalars and sizes only.  Each input axiom (Hopf axioms, cocommutativity,
algebra axioms, weak action, the three cocycle conditions and the
convolution inverse) is checked once per run, when `run_command` builds
the objects, and `verify` prints the verdicts of that one pass.  A
violation exits 1 from every command; under `verify` and `report` the
Hopf, cocommutativity, weak-action and cocycle verdicts are check lines,
so one of those violations is that line's FAIL and the report stops
there.  Commands: verify, hc, e1, e2, collapse, report.  Exit codes: 0
all checks pass, 1 a mathematical check failed, 2 invalid input, 3
resource cap exceeded, 4 internal error (a programming error, never a
mathematical verdict).
"""

from __future__ import annotations

import argparse
import sys
import traceback
from dataclasses import dataclass, field as dc_field
from functools import cached_property

from .algebra import (
    FiniteGroup, GroupTableError, dual_numbers,
    function_algebra, ground_algebra, group_algebra, matrix_algebra,
    validate_algebra,
)
from .crossed import (
    ActionMap, Cocycle, GroupCocycleError, build_crossed_product,
    convolution_inverse, lift_group_cocycle, trivial_action,
    trivial_cocycle, twisted_scalar_algebra, validate_cocycle,
    validate_weak_action,
)
from .cycliccore import cyclic_homology_mixed, cyclic_homology_of_algebra
from .cylinder import (
    build_cylinder, check_cylindrical, check_coefficient_action,
    check_row_identification, tot_mixed_complex,
)
from .exactlinalg import (
    DimensionCapExceeded, ExactLinalgError, Field, MathError,
)
from .hopf import (
    UnsupportedSemisimplicityQuery, group_hopf, is_cocommutative,
    is_semisimple, validate_hopf,
)
from .spectral import collapse_check, compute_E1, compute_E2


class ScenarioError(ValueError):
    """Structurally invalid scenario text; carries a line number when
    known.  Mapped to exit code 2."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MathCheckFailed(MathError):
    """A verified mathematical identity failed (an axiom violation in the
    input tables, or a broken derived identity).  Mapped to exit code 1,
    with the violated identity named."""


class InputCheckFailed(MathCheckFailed):
    """An input axiom with a `verify` line failed; `checks` holds the
    input check lines through the failing one."""

    def __init__(self, message, checks):
        super().__init__(message)
        self.checks = checks


@dataclass(frozen=True)
class ActionLine:
    """One `perm` or `map` line of [action] and the line number it stands
    on, which equality ignores: a scenario equals the scenario its
    canonical text parses to."""

    text: str
    lineno: int = dc_field(default=None, compare=False)


@dataclass
class Scenario:
    field_characteristic: int
    hopf_kind: str
    hopf_group: str
    algebra_kind: str
    algebra_arg: str
    action_kind: str
    action_lines: tuple
    cocycle_kind: str
    cocycle_values: tuple
    max_degree: int = 2
    max_p: int = 2
    max_q: int = 2
    cap: int = 200_000

    def canonical_text(self):
        lines = []
        if self.field_characteristic == 0:
            lines.append("field = Q")
        else:
            lines.append(f"field = Fp {self.field_characteristic}")
        lines.append("[hopf]")
        lines.append(f"kind = {self.hopf_kind}")
        lines.append(f"group = {self.hopf_group}")
        lines.append("[algebra]")
        if self.algebra_arg:
            lines.append(f"kind = {self.algebra_kind} {self.algebra_arg}")
        else:
            lines.append(f"kind = {self.algebra_kind}")
        lines.append("[action]")
        lines.append(f"kind = {self.action_kind}")
        for line in self.action_lines:
            lines.append(line.text)
        lines.append("[cocycle]")
        lines.append(f"kind = {self.cocycle_kind}")
        if self.cocycle_values:
            lines.append("values = " + " ".join(self.cocycle_values))
        lines.append("[compute]")
        lines.append(f"max_degree = {self.max_degree}")
        lines.append(f"max_p = {self.max_p}")
        lines.append(f"max_q = {self.max_q}")
        lines.append(f"cap = {self.cap}")
        return "\n".join(lines) + "\n"


# the keys of each section; [action] also takes `perm` and `map` lines
SECTION_KEYS = {"": {"field"}, "hopf": {"kind", "group"}, "algebra": {"kind"},
                "action": {"kind"}, "cocycle": {"kind", "values"},
                "compute": {"max_degree", "max_p", "max_q", "cap"}}


def parse_scenario(text):
    """Parse a scenario: syntax, scalars and sizes; raises ScenarioError,
    also for a key its section does not define.  A repeated key keeps its
    last value.  The objects are built and validated by `run_command`."""
    section = None
    data = {sec: {} for sec in SECTION_KEYS}
    action_lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in SECTION_KEYS:
                raise ScenarioError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise ScenarioError("expected 'key = value'", lineno)
        key, value = (s.strip() for s in line.split("=", 1))
        sec = section or ""
        if key in ("perm", "map") and sec == "action":
            action_lines.append(ActionLine(f"{key} = {value}", lineno))
        elif key in SECTION_KEYS[sec]:
            data[sec][key] = (lineno, value)
        else:
            raise ScenarioError(f"unknown key '{key}' in section [{sec}]",
                                lineno)

    def take(sec, key, default=None):
        if key in data[sec]:
            return data[sec][key][1]
        if default is not None:
            return default
        raise ScenarioError(f"missing '{key}' in section [{sec}]")

    field_spec = take("", "field")
    spec, field_line = field_spec.split(), data[""]["field"][0]
    if spec == ["Q"]:
        char = 0
    elif len(spec) == 2 and spec[0] == "Fp" and spec[1].isdecimal():
        char = int(spec[1])
        try:
            if char < 2:   # Field(0) is Q
                raise ExactLinalgError(f"Fp needs a prime, got {char}")
            Field(char)
        except ExactLinalgError as exc:
            raise ScenarioError(str(exc), field_line)
    else:
        raise ScenarioError("expected 'field = Q' or 'field = Fp <prime>', "
                            f"got {field_spec!r}", field_line)

    hopf_kind = take("hopf", "kind")
    if hopf_kind != "group":
        raise ScenarioError("only group Hopf algebras are supported; "
                            "scalar cocycles on anything else are out of "
                            "scope")
    hopf_group = take("hopf", "group")

    algebra_kind, *algebra_args = take("algebra", "kind").split() or [""]
    algebra_arg = " ".join(algebra_args)
    kind_line = data["algebra"]["kind"][0]
    if algebra_kind not in ("ground", "group", "functions", "dual_numbers",
                            "matrix"):
        raise ScenarioError(f"unknown algebra kind {algebra_kind!r}",
                            kind_line)
    if algebra_arg and algebra_kind in ("ground", "dual_numbers"):
        raise ScenarioError(f"algebra kind {algebra_kind!r} takes no "
                            f"argument, got {algebra_arg!r}", kind_line)

    action_kind = take("action", "kind", "trivial")
    if action_kind not in ("trivial", "permutation", "table"):
        raise ScenarioError(f"unknown action kind {action_kind!r}",
                            data["action"]["kind"][0])
    cocycle_kind = take("cocycle", "kind", "trivial")
    cocycle_values = ()
    if cocycle_kind in ("group_table", "table"):
        values = take("cocycle", "values")
        cocycle_values = tuple(values.split())
        field = Field(char)
        for value in cocycle_values:
            try:
                field.parse(value)
            except (ValueError, ExactLinalgError) as exc:
                raise ScenarioError(f"bad cocycle scalar: {exc}",
                                    data["cocycle"]["values"][0])
    elif cocycle_kind != "trivial":
        raise ScenarioError(f"unknown cocycle kind {cocycle_kind!r}",
                            data["cocycle"]["kind"][0])

    def int_opt(key, default):
        if key in data["compute"]:
            lineno, value = data["compute"][key]
            try:
                number = int(value)
            except ValueError:
                raise ScenarioError(f"'{key}' must be an integer", lineno)
            if number < 0:
                raise ScenarioError(
                    f"'{key}' must not be negative, got {number}", lineno)
            return number
        return default

    return Scenario(
        field_characteristic=char,
        hopf_kind=hopf_kind,
        hopf_group=hopf_group,
        algebra_kind=algebra_kind,
        algebra_arg=algebra_arg,
        action_kind=action_kind,
        action_lines=tuple(action_lines),
        cocycle_kind=cocycle_kind,
        cocycle_values=cocycle_values,
        max_degree=int_opt("max_degree", 2),
        max_p=int_opt("max_p", 2),
        max_q=int_opt("max_q", 2),
        cap=int_opt("cap", 200_000),
    )


@dataclass
class BuiltScenario:
    """A scenario's validated ingredients, the passing input check lines
    of their one validation, and one run's session: each intermediate
    that two stages read is built when first read, and one that raises is
    not kept, so the next reader fails the same way."""
    scenario: Scenario
    hopf: object
    action: ActionMap
    cocycle: Cocycle
    input_checks: list

    @cached_property
    def cylinder(self):
        return build_cylinder(self.hopf, self.action, self.cocycle,
                              cap=self.scenario.cap)

    @cached_property
    def crossed_product(self):
        """A #_sigma H."""
        return build_crossed_product(self.action, self.cocycle)

    @cached_property
    def direct_hc(self):
        """HC of the crossed product itself, through max_degree."""
        return cyclic_homology_of_algebra(
            self.crossed_product.product, self.scenario.max_degree,
            cap=self.scenario.cap)

    @cached_property
    def total_complex(self):
        return tot_mixed_complex(self.cylinder, self.scenario.max_degree)

    @cached_property
    def first_page(self):
        """(E1, the RowComplexes it was computed from)."""
        return compute_E1(self.cylinder, self.scenario.max_p,
                          self.scenario.max_q)


def build_objects(scenario):
    """Construct every ingredient and check each input axiom, the one
    validation of a run.  ScenarioError on malformed input; on a violated
    axiom, MathCheckFailed with the axiom named, an InputCheckFailed when
    the axiom has a `verify` line."""
    checks = []

    def record(name, bad, prefix=""):
        checks.append((name, bad is None, "" if bad is None else str(bad)))
        if bad is not None:
            raise InputCheckFailed(f"{prefix}{bad}", checks)

    def named_group(name):
        """FiniteGroup.named under the cap; ScenarioError for a bad name."""
        try:
            return FiniteGroup.named(name, scenario.cap)
        except GroupTableError as exc:
            raise ScenarioError(f"bad group: {exc}")

    field = Field(scenario.field_characteristic)
    hopf = group_hopf(field, named_group(scenario.hopf_group))
    record("Hopf axioms", validate_hopf(hopf), "Hopf axiom violation: ")
    record("cocommutativity", None if is_cocommutative(hopf) else
           "the Hopf algebra is not cocommutative")

    kind, arg = scenario.algebra_kind, scenario.algebra_arg
    if kind == "ground":
        algebra = ground_algebra(field)
    elif kind == "group":
        algebra = group_algebra(field, named_group(arg or scenario.hopf_group))
    elif kind == "functions":
        algebra = function_algebra(field,
                                   named_group(arg or scenario.hopf_group))
    elif kind == "dual_numbers":
        algebra = dual_numbers(field)
    elif kind == "matrix":
        try:
            algebra = matrix_algebra(field, int(arg), scenario.cap)
        except DimensionCapExceeded:
            raise
        except ValueError:
            raise ScenarioError("matrix algebra needs a size, "
                                "e.g. 'kind = matrix 2'")
    else:
        raise ScenarioError(f"unknown algebra kind {kind!r}")
    bad = validate_algebra(algebra)
    if bad is not None:
        raise MathCheckFailed(f"algebra axiom violation: {bad}")

    action = _build_action(scenario, field, hopf, algebra)
    record("weak action axioms", validate_weak_action(action),
           "action axiom violation: ")

    cocycle = _build_cocycle(scenario, field, hopf, action)
    record("cocycle conditions and convolution inverse",
           validate_cocycle(cocycle, action), "cocycle condition violation: ")
    return BuiltScenario(scenario, hopf, action, cocycle, checks)


def _build_action(scenario, field, hopf, algebra):
    if scenario.action_kind == "trivial":
        return trivial_action(hopf, algebra)
    if scenario.action_kind == "permutation":
        table = [None] * hopf.dim
        for line in scenario.action_lines:
            body = line.text.split("=", 1)[1].strip()
            head, _, images = body.partition(":")
            bad = ScenarioError(f"bad permutation line {line.text!r}",
                                line.lineno)
            try:
                h = int(head)
                imgs = [int(x) for x in images.split()]
            except ValueError:
                raise bad
            if not 0 <= h < hopf.dim or \
                    sorted(imgs) != list(range(algebra.dim)):
                raise bad
            table[h] = [{imgs[a]: field.one} for a in range(algebra.dim)]
        if any(row is None for row in table):
            raise ScenarioError("permutation action must cover every "
                                "Hopf basis element")
        return ActionMap(hopf, algebra, table)
    if scenario.action_kind == "table":
        table = [[None] * algebra.dim for _ in range(hopf.dim)]
        for line in scenario.action_lines:
            body = line.text.split("=", 1)[1].strip()
            head, _, coords = body.partition(":")
            bad = ScenarioError(f"bad action table line {line.text!r}",
                                line.lineno)
            try:
                h, a = (int(x) for x in head.split())
                vec = [field.parse(c) for c in coords.split()]
            except (ValueError, ExactLinalgError):
                raise bad
            if not (0 <= h < hopf.dim and 0 <= a < algebra.dim) or \
                    len(vec) != algebra.dim:
                raise bad
            table[h][a] = {i: c for i, c in enumerate(vec) if c}
        for h in range(hopf.dim):
            for a in range(algebra.dim):
                if table[h][a] is None:
                    raise ScenarioError(
                        f"action table is missing the pair ({h},{a})")
        return ActionMap(hopf, algebra, table)
    raise ScenarioError(f"unknown action kind {scenario.action_kind!r}")


def _build_cocycle(scenario, field, hopf, action):
    if scenario.cocycle_kind == "trivial":
        return trivial_cocycle(hopf)
    d = hopf.dim
    raw = scenario.cocycle_values
    if len(raw) != d * d:
        raise ScenarioError(
            f"cocycle table needs {d * d} scalars, got {len(raw)}")
    try:
        flat = [field.parse(v) for v in raw]
    except (ValueError, ExactLinalgError) as exc:
        raise ScenarioError(f"bad cocycle scalar: {exc}")
    table = [flat[i * d:(i + 1) * d] for i in range(d)]
    if scenario.cocycle_kind == "group_table":
        try:
            return lift_group_cocycle(hopf, table)
        except GroupCocycleError as exc:
            raise MathCheckFailed(str(exc))
    inverse = convolution_inverse(hopf, table)
    if inverse is None:
        raise MathCheckFailed("the cocycle table is not convolution "
                              "invertible")
    return Cocycle(hopf, table, inverse)


# ---------------------------------------------------------------------------
# reports


@dataclass
class Report:
    scenario: Scenario
    command: str
    checks: list = dc_field(default_factory=list)   # (name, ok, detail)
    tables: list = dc_field(default_factory=list)   # (title, [int dims])
    pages: list = dc_field(default_factory=list)    # (page, p, q, dim)

    def add_check(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def add_violation(self, name, bad):
        """The check line of a validator that returns None when the check
        passes and its first violation otherwise, named in the detail."""
        self.add_check(name, bad is None, "" if bad is None else str(bad))

    @property
    def passed(self):
        return all(ok for _, ok, _ in self.checks)


def emit_report(report, machine=False):
    """Render a report; both renderings carry identical data and are
    byte-stable across runs."""
    lines = []
    if machine:
        lines.append("hclab-report 1")
        lines.append(f"command {report.command}")
        lines.append("scenario-begin")
        lines.extend(report.scenario.canonical_text().splitlines())
        lines.append("scenario-end")
        for name, ok, detail in report.checks:
            token = "PASS" if ok else "FAIL"
            suffix = f" {detail}" if detail else ""
            lines.append(f"check\t{name}\t{token}{suffix}")
        for title, dims in report.tables:
            lines.append("dims\t" + title + "\t" +
                         " ".join(str(d) for d in dims))
        for page, p, q, dim in report.pages:
            lines.append(f"page\t{page}\t{p}\t{q}\t{dim}")
        lines.append("overall " + ("PASS" if report.passed else "FAIL"))
    else:
        lines.append(f"== hclab {report.command} ==")
        lines.append("scenario:")
        for ln in report.scenario.canonical_text().splitlines():
            lines.append("    " + ln)
        if report.checks:
            lines.append("checks:")
            for name, ok, detail in report.checks:
                token = "PASS" if ok else "FAIL"
                suffix = f"  ({detail})" if detail else ""
                lines.append(f"    [{token}] {name}{suffix}")
        for title, dims in report.tables:
            rendered = ", ".join(f"{n}:{d}" for n, d in enumerate(dims))
            lines.append(f"{title}: {rendered}")
        if report.pages:
            lines.append("pages:")
            for page, p, q, dim in report.pages:
                lines.append(f"    E{page}[{p},{q}] = {dim}")
        lines.append("overall: " + ("PASS" if report.passed else "FAIL"))
    return "\n".join(lines) + "\n"


def run_command(command, scenario):
    """Build and validate a parsed scenario's objects, execute a command
    against them and report.  Under `verify` and `report` a failed input
    check line ends the report there."""
    report = Report(scenario=scenario, command=command)
    try:
        built = build_objects(scenario)
    except InputCheckFailed as exc:
        if command not in ("verify", "report"):
            raise
        report.checks.extend(exc.checks)
        return report
    if command in ("verify", "report"):
        _run_verify(built, report)
    if command in ("hc", "report"):
        _run_hc(built, report)
    if command in ("e1", "report"):
        _run_page(report, "first page: row homology = Hopf homology",
                  lambda: built.first_page[0])
    if command in ("e2", "report"):
        _run_page(report, "second page computed without well-definedness "
                  "failures", lambda: compute_E2(*built.first_page))
    if command in ("collapse", "report"):
        _run_collapse(built, report, command)
    return report


def _run_stage(report, check_name, compute):
    """compute(), or None when it fails a verification under `report`:
    the failure then becomes the stage's FAIL line and the other stages
    still run.  The stage's own command exits 1 on it."""
    try:
        return compute()
    except MathError as exc:
        if report.command != "report":
            raise
        report.add_check(check_name, False, str(exc))
        return None


def _run_page(report, check_name, compute):
    """Add a spectral page's entries and its check line."""
    page = _run_stage(report, check_name, compute)
    if page is None:
        return
    for (p, q) in sorted(page.entries):
        report.pages.append((page.page, p, q, page.entries[(p, q)]))
    report.add_check(check_name, True)


def _run_verify(built, report):
    scenario, cyl = built.scenario, built.cylinder
    report.checks.extend(built.input_checks)
    # the one validation pass ran the module axiom (verify_action_upgrade)
    # inside validate_weak_action, so that verdict is this line's
    [upgraded] = [ok for name, ok, _ in built.input_checks
                  if name == "weak action axioms"]
    report.add_check("module action upgrade", upgraded)
    bad = built.crossed_product.product.validate()
    report.add_check("crossed product associativity revalidated",
                     bad is None, "" if bad is None else
                     f"crossed product failed revalidation: {bad}")
    report.add_violation(
        f"cylinder identities through ({scenario.max_p},{scenario.max_q})",
        check_cylindrical(cyl, scenario.max_p, scenario.max_q))
    try:
        built.total_complex
        report.add_check("total mixed complex identities", True)
    except MathError as exc:
        report.add_check("total mixed complex identities", False, str(exc))
    ts = twisted_scalar_algebra(built.cocycle)
    report.add_violation(
        "row = Hochschild complex of the twisted algebra",
        check_row_identification(cyl, ts, 0, min(scenario.max_p, 2)))
    report.add_violation("coefficient action closed form",
                         check_coefficient_action(cyl, 0))


def _run_hc(built, report):
    direct = built.direct_hc
    report.tables.append(("cyclic homology of the crossed product",
                          direct.dims))
    via_tot = cyclic_homology_mixed(built.total_complex,
                                    built.scenario.max_degree)
    report.tables.append(("cyclic homology of the total complex",
                          via_tot.dims))
    report.add_check("total complex matches the crossed product",
                     direct.dims == via_tot.dims)


def _run_collapse(built, report, command):
    try:
        semisimple = is_semisimple(built.hopf)
    except UnsupportedSemisimplicityQuery as exc:
        raise ScenarioError(str(exc))
    if not semisimple:
        if command == "collapse":
            raise ScenarioError(
                "collapse comparison refused: the Hopf algebra is not "
                "semisimple; the zeroth column is the coinvariant space, "
                "see the second page instead")
        report.add_check("collapse comparison (skipped: non-semisimple)",
                         True, "not semisimple")
        return
    rep = _run_stage(report, "collapse comparison",
                     lambda: collapse_check(built.cylinder, built.direct_hc))
    if rep is None:
        return
    report.tables.append(("cyclic homology, direct", rep.direct))
    report.tables.append(("cyclic homology via invariants",
                          rep.via_invariants))
    report.add_check("collapse comparison", rep.passed)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hclab",
        description="exact cyclic homology of Hopf crossed products")
    parser.add_argument("command",
                        choices=["verify", "hc", "e1", "e2", "collapse",
                                 "report"])
    parser.add_argument("scenario", help="path to a scenario file")
    for option in ("--max-degree", "--max-p", "--max-q", "--cap"):
        parser.add_argument(option, type=int, default=None)
    parser.add_argument("--machine", action="store_true",
                        help="machine-readable output")
    args = parser.parse_args(argv)
    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"invalid input: cannot read {args.scenario}: {exc}",
              file=sys.stderr)
        return 2
    try:
        overrides = {key: getattr(args, key)
                     for key in ("max_degree", "max_p", "max_q", "cap")
                     if getattr(args, key) is not None}
        for key, value in overrides.items():
            if value < 0:
                option = "--" + key.replace("_", "-")
                raise ScenarioError(
                    f"{option} must not be negative, got {value}")
        scenario = parse_scenario(text)
        for key, value in overrides.items():
            setattr(scenario, key, value)
        report = run_command(args.command, scenario)
    except ScenarioError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except DimensionCapExceeded as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except MathError as exc:
        print(f"mathematical check failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    sys.stdout.write(emit_report(report, machine=args.machine))
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
