"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench/tests -t .

The reachability test runs one traced pass of every workload, so the
suite takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

from perfbench import harness, probe, run, tracer as tracing, workloads

REPO = workloads.REPO
ALL_SPANS = {tracing.span_name(layer, q) for layer, _, q in tracing.SPANS}
# no caller in hclab: the unnormalized Connes operator
UNCALLED = {"cycliccore.ParacyclicModule.connes_matrix"}
CHECKS = {"cycliccore.check_paracyclic", "cylinder.check_cylindrical"}
SPECTRAL = {n for n in ALL_SPANS if n.startswith("spectral.")}
HC_PATH = {
    "cli.build_objects", "cli.run_command", "cli.emit_report",
    "exactlinalg.rref", "exactlinalg.mat_rank", "exactlinalg.Subspace.reduce",
    "exactlinalg.quotient_space", "exactlinalg.induced_map",
    "cycliccore.ParacyclicModule.face_matrix",
    "cycliccore.ParacyclicModule.degeneracy_matrix",
    "cycliccore.ParacyclicModule.rotate_matrix",
    "cycliccore.ParacyclicModule.boundary_matrix",
    "cycliccore.ParacyclicModule.norm_matrix",
    "cycliccore.ParacyclicModule.extra_degeneracy_matrix",
    "cycliccore.NormalizedComplex",
    "cycliccore.NormalizedComplex.boundary_matrix",
    "cycliccore.NormalizedComplex.connes_matrix",
    "cycliccore.MixedComplex.verify", "cycliccore.mixed_complex_of_cyclic",
    "cycliccore.cyclic_homology_mixed",
    "cylinder.build_cylinder", "cylinder.BinormalizedCylinder",
    "cylinder.BinormalizedCylinder.vertical_boundary",
    "cylinder.BinormalizedCylinder.horizontal_boundary",
    "cylinder.BinormalizedCylinder.vertical_connes",
    "cylinder.BinormalizedCylinder.horizontal_connes",
    "cylinder.BinormalizedCylinder.twist", "cylinder.tot_mixed_complex",
    "crossed.validate_weak_action", "crossed.validate_cocycle",
    "crossed.build_crossed_product",
    "hopf.validate_hopf", "hopf.is_cocommutative",
}
# span -> calls > 0 expected, and spans that must not run at all
REACHED = {
    "reference": (ALL_SPANS - UNCALLED - {"cli.parse_scenario"}, set()),
    "hc-q": (HC_PATH, CHECKS | SPECTRAL),
    "hc-fp": (HC_PATH, CHECKS | SPECTRAL),
    "verify-deep": (CHECKS | {
        "cli.run_command", "cli.emit_report", "exactlinalg.rref",
        "exactlinalg.induced_map", "cylinder.BinormalizedCylinder",
        "cylinder.tot_mixed_complex", "cylinder.check_row_identification",
        "cylinder.check_coefficient_action", "cycliccore.MixedComplex.verify",
        "crossed.verify_action_upgrade", "crossed.build_crossed_product"},
        SPECTRAL),
}


def _small_inputs():
    """The two fastest reference items (s1 and s4, under a second)."""
    return [inp for inp in workloads.make_inputs("reference", 0)
            if inp.item.key in ("report-s1", "report-s4")]


def _namespace_snapshot():
    snap = {}
    for name, mod in sys.modules.items():
        if mod is not None and (name == "hclab" or name.startswith("hclab.")):
            for key, value in vars(mod).items():
                snap[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        snap[(name, key, attr)] = member
    return snap


class TracerTest(unittest.TestCase):

    def test_restores_every_patched_name(self):
        harness.import_cli()
        before = _namespace_snapshot()
        tracer = tracing.Tracer()
        with tracer:
            spectral = sys.modules["hclab.spectral"]
            core = sys.modules["hclab.cylinder.core"]
            exact = sys.modules["hclab.exactlinalg"]
            # a function imported by name is replaced in every namespace
            self.assertIsNot(spectral.induced_map,
                             before[("hclab.spectral", "induced_map")])
            self.assertIs(spectral.induced_map, core.induced_map)
            self.assertIs(spectral.induced_map, exact.induced_map)
        after = _namespace_snapshot()
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])

    def test_missing_target_raises_and_restores(self):
        harness.import_cli()
        exact = sys.modules["hclab.exactlinalg"]
        original = exact.mat_rank
        del exact.mat_rank
        try:
            before = _namespace_snapshot()
            with self.assertRaisesRegex(LookupError, "mat_rank"):
                with tracing.Tracer():
                    pass
            after = _namespace_snapshot()
            self.assertEqual([k for k in before if before[k] is not after[k]],
                             [])
        finally:
            exact.mat_rank = original

    def test_self_time_excludes_children(self):
        tracer = tracing.Tracer()
        # root 0..10 with a child 2..5 and a grandchild 3..4
        tracer.spans = [(0, 0.0, 10.0, -1, "x"), (1, 2.0, 5.0, 0, "x"),
                        (2, 3.0, 4.0, 1, "x")]
        calls, self_s, covered = tracer.summary("setup", 1)
        self.assertEqual(calls[:3], [1, 1, 1])
        self.assertEqual(self_s[:3], [7.0, 2.0, 1.0])
        # the root's own 7 s are not covered by any deeper span
        self.assertEqual(covered, 3.0)


class ProbeTest(unittest.TestCase):

    def test_reference_seconds(self):
        sampler = probe.Probe()
        # samples at 0.1, 0.2, ... 0.9 s; twice the reference time, so the
        # host runs at half the reference speed
        sampler.starts = [i / 10 for i in range(1, 10)]
        sampler.seconds = [2 * probe.REFERENCE] * 9
        # 1 s minus the 9 samples inside, at half speed
        self.assertAlmostEqual(sampler.reference_seconds(0.0, 1.0),
                               (1.0 - 18 * probe.REFERENCE) / 2)
        # no sample inside: the nearest ones set the speed
        self.assertAlmostEqual(sampler.reference_seconds(0.91, 0.95),
                               0.04 / 2)

    def test_samples_while_active_only(self):
        with probe.Probe(interval=0.001) as sampler:
            end = time.perf_counter() + 0.05
            while time.perf_counter() < end:
                pass
        taken = len(sampler.seconds)
        time.sleep(0.01)
        self.assertGreater(taken, 5)
        self.assertEqual(len(sampler.seconds), taken)


class ReachabilityTest(unittest.TestCase):
    """Every function a workload is meant to exercise is reached, so a
    missed by-name import shows as zero calls; the bypassed ones are not.
    Traced reports must also match their goldens."""

    def test_workloads(self):
        for workload, (reached, bypassed) in REACHED.items():
            with self.subTest(workload=workload):
                inputs = workloads.make_inputs(workload, 0)
                prepared = harness.setup(inputs)
                tracer = tracing.Tracer()
                with tracer:
                    result = harness.run_pass(
                        prepared, inputs, harness.load_goldens(inputs),
                        tracer)
                self.assertEqual(result.failures, [])
                calls, _, covered = tracer.summary("setup", 1)
                by_name = dict(zip(tracer.names, calls))
                self.assertEqual(
                    sorted(n for n in reached if by_name[n] == 0), [])
                self.assertEqual(
                    sorted(n for n in bypassed if by_name[n] != 0), [])
                self.assertGreater(covered / result.seconds, 0.9)


class OutputCheckTest(unittest.TestCase):

    def test_traced_and_untraced_reports_are_identical(self):
        inputs = _small_inputs()
        goldens = harness.load_goldens(inputs)
        prepared = harness.setup(inputs)
        plain = harness.run_pass(prepared, inputs, goldens)
        with tracing.Tracer() as tracer:
            traced = harness.run_pass(prepared, inputs, goldens, tracer)
        self.assertEqual(plain.failures, [])
        self.assertEqual(traced.failures, [])
        self.assertEqual(len(plain.outputs), 2)
        self.assertEqual(plain.outputs, traced.outputs)

    def test_one_byte_golden_change_fails_that_item_only(self):
        inputs = _small_inputs()
        goldens = harness.load_goldens(inputs)
        text = goldens["report-s4"]
        at = text.index("overall") - 2
        goldens["report-s4"] = text[:at] + chr(ord(text[at]) ^ 1) + \
            text[at + 1:]
        prepared = harness.setup(inputs)
        result = harness.run_pass(prepared, inputs, goldens)
        self.assertEqual(result.attempted, 2)
        self.assertEqual(result.failures,
                         [("report-s4", "report differs from the golden")])

    def test_known_answers_need_no_golden(self):
        inp = next(i for i in workloads.make_inputs("hc-fp", 0)
                   if i.item.base == "s2")
        golden = harness.load_goldens([inp])[inp.item.key]
        wrong = golden.replace(harness.S2_HC, harness.S2_HC[:-1] + "2")
        self.assertIsNone(harness.check_output(inp, golden, golden))
        # a wrong golden that agrees with a wrong output is still caught
        self.assertIsNotNone(harness.check_output(inp, wrong, wrong))
        no_match = golden.replace(harness.TOTAL_MATCHES,
                                  harness.TOTAL_MATCHES[:-4] + "FAIL")
        self.assertIsNotNone(harness.check_output(inp, no_match, no_match))


class WorkloadTest(unittest.TestCase):

    def test_automorphisms_preserve_the_group_law(self):
        harness.import_cli()
        group = sys.modules["hclab.algebra"].FiniteGroup.named("C2xC2")
        self.assertEqual(len(set(workloads.C2XC2_AUTOMORPHISMS)), 6)
        for phi in workloads.C2XC2_AUTOMORPHISMS:
            for g in range(4):
                for h in range(4):
                    self.assertEqual(phi[group.mult[g][h]],
                                     group.mult[phi[g]][phi[h]])

    def test_swap_relabelling(self):
        swap = workloads.C2XC2_AUTOMORPHISMS.index((0, 2, 1, 3))
        s2 = "1 1 1 1  1 1 1 1  1 -1 1 -1  1 -1 1 -1".split()
        self.assertEqual(" ".join(workloads.relabel_cocycle(s2, swap)),
                         "1 1 1 1 1 1 -1 -1 1 1 1 1 1 1 -1 -1")

    def test_relabelled_item_matches_golden_outside_scenario(self):
        item = workloads.WORKLOADS["hc-q"][2]
        inp = workloads.Input(item, 5, workloads.scenario_text(item, 5))
        cli = harness.import_cli()
        report = cli.run_command(item.command, cli.parse_scenario(inp.text))
        text = cli.emit_report(report, machine=True)
        golden = harness.load_goldens([inp])[item.key]
        self.assertNotEqual(text, golden)
        self.assertIsNone(harness.check_output(inp, text, golden))

    def test_seed_fixes_inputs(self):
        self.assertEqual(workloads.make_inputs("reference", 7),
                         workloads.make_inputs("reference", 7))
        orders = {tuple(i.item.key for i in
                        workloads.make_inputs("reference", seed))
                  for seed in range(10)}
        self.assertGreater(len(orders), 1)

    def test_benchmark_json_names_every_metric(self):
        spec = json.loads((REPO / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(workloads.WORKLOADS))
        per_layer = {m["name"] for m in spec["per_layer"]}
        emitted = run.layer_metrics(tracing.Tracer(), 1, 1.0, 1.0, 1.0)
        self.assertEqual(per_layer, set(emitted))
        for name in ALL_SPANS:
            self.assertIn(f"{name}.self_s", per_layer)


class RunnerTest(unittest.TestCase):

    def test_timed_run_runs_every_item(self):
        inputs = _small_inputs()
        metrics, results, detail = run.timed_run(
            inputs, harness.load_goldens(inputs), 0)
        self.assertEqual(results[0].failures, [])
        self.assertEqual(results[0].attempted, 2)
        samples = detail["item_s_samples"]
        self.assertEqual(sorted(samples), ["report-s1", "report-s4"])
        self.assertAlmostEqual(metrics["wall_s"][0],
                               sum(t[0] for t in samples.values()))
        self.assertEqual(len(detail["setup_s_samples"]),
                         2 * run.SETUPS_PER_ITEM)
        self.assertGreater(detail["probe_samples"], 0)

    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(REPO / "BENCHMARK.json", tmp)
            shutil.copytree(REPO / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out",
                                                          "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "reference", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
