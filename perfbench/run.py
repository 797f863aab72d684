"""hclab benchmark runner (stdlib only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-goldens

Run from the repository root.  `--trace 0` measures the end-to-end
metrics; `--trace 1` runs untraced and traced passes in pairs and reports
the per-layer metrics.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  A record
with the environment and every sample is written under perfbench/out/.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import (  # noqa: E402
    harness, probe, tracer as tracing, workloads)

OUT_DIR = Path(__file__).resolve().parent / "out"


def _environment():
    cpu = platform.machine()
    try:  # the CPU model, for the record only
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (workloads.REPO / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(workloads.REPO), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "nproc": nproc,
            "cpu": cpu, "commit": commit}


# set-ups timed before each item run; one set-up costs about 0.1 s
SETUPS_PER_ITEM = 3


def timed_run(inputs, goldens, seconds):
    """Run the items round-robin, each on a fresh set-up, until one more
    run of the next item would end after `seconds`; every item runs at
    least once.  A user runs one command per process, so nothing a run
    leaves in hclab's modules carries over to the next.  Times are
    reference seconds of the speed probe (see probe.py)."""
    setups = []
    result = harness.PassResult()
    start = time.perf_counter()
    with probe.Probe() as sampler:
        for turn in itertools.count():
            index = turn % len(inputs)
            inp = inputs[index]
            previous = result.item_seconds.get(inp.item.key, [0.0])
            if turn >= len(inputs) and \
                    time.perf_counter() - start + max(previous) > seconds:
                break
            for _ in range(SETUPS_PER_ITEM):
                gc.collect()
                prepared = harness.setup(inputs)
                setups.append((prepared.started, prepared.ended))
            harness.run_item(prepared, index, inp, goldens[inp.item.key],
                             result)
    setup_s = [sampler.reference_seconds(a, b) for a, b in setups]
    item_s = {}
    for key, a, b in result.intervals:
        item_s.setdefault(key, []).append(sampler.reference_seconds(a, b))
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        # one pass: the sum over items of each item's median time
        "wall_s": (sum(statistics.median(t) for t in item_s.values()), "s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mb": (peak_mib, "MiB"),
    }
    detail = {"item_s_samples": item_s, "setup_s_samples": setup_s,
              "raw_item_s_samples": result.item_seconds,
              "raw_setup_s_samples": [b - a for a, b in setups],
              "probe_samples": len(sampler.seconds),
              "probe_median_s": statistics.median(sampler.seconds),
              "coverage": None}
    return metrics, [result], detail


def layer_metrics(tracer, passes, traced_s, untraced_s, traced_mean_s):
    """The per-layer metrics of a traced run, by name: (value, unit)."""
    calls, self_s, covered = tracer.summary(setup_item="setup",
                                            passes=passes)
    metrics = {}
    layer_self = dict.fromkeys(tracing.LAYERS, 0.0)
    for sid, name in enumerate(tracer.names):
        metrics[f"{name}.calls"] = (calls[sid], "count")
        metrics[f"{name}.self_s"] = (self_s[sid], "s")
        layer_self[name.split(".", 1)[0]] += self_s[sid]
    for layer, value in layer_self.items():
        metrics[f"{layer}.self_s"] = (value, "s")
    counts = {key: tracer.counts.get(key, 0) / passes
              for key in tracing.COUNTS}
    for key, value in counts.items():
        metrics[key] = (value, "count")
    rows = counts["exactlinalg.rref.rows_in"]
    metrics["exactlinalg.rref.useful"] = (
        counts["exactlinalg.rref.rank_out"] / rows if rows else 0.0, "ratio")
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.coverage"] = (
        covered / traced_mean_s if traced_mean_s else 0.0, "ratio")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics


def traced_run(inputs, goldens, seconds, spans_path):
    """Pairs of an untraced and a traced pass, while one more pair as
    long as the longest so far would end within `seconds`; at least one.
    Each item of either pass runs on a fresh set-up, as in a timed run,
    and the untraced and traced runs of an item follow each other.  The
    set-up layers are traced once, on one more set-up."""
    tracer = tracing.Tracer()
    cli = harness.import_cli()
    with tracer:
        tracer.item = "setup"
        harness.ingest(cli, inputs)
    pairs = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        begin = time.perf_counter()
        plain, traced = harness.PassResult(), harness.PassResult()
        for index, inp in enumerate(inputs):
            golden = goldens[inp.item.key]
            gc.collect()
            harness.run_item(harness.setup(inputs), index, inp, golden,
                             plain)
            gc.collect()
            prepared = harness.setup(inputs)
            with tracer:
                harness.run_item(prepared, index, inp, golden, traced,
                                 tracer)
        for key, text in plain.outputs.items():
            if traced.outputs.get(key, text) != text:
                traced.failures.append(
                    (key, "traced report differs from the untraced one"))
        pairs.append((plain, traced))
        end = time.perf_counter()
        longest = max(longest, end - begin)
        if end - start + longest > seconds:
            break
    untraced_s = [p.seconds for p, _ in pairs]
    traced_s = [t.seconds for _, t in pairs]
    metrics = layer_metrics(tracer, len(pairs), statistics.median(traced_s),
                            statistics.median(untraced_s),
                            statistics.mean(traced_s))
    tracer.write_spans(spans_path)
    detail = {"untraced_wall_s_samples": untraced_s,
              "traced_wall_s_samples": traced_s,
              "coverage": metrics["trace.coverage"][0],
              "spans": len(tracer.spans),
              "spans_file": str(spans_path.relative_to(workloads.REPO))}
    return metrics, [p for pair in pairs for p in pair], detail


def write_goldens():
    harness.GOLDEN_DIR.mkdir(exist_ok=True)
    cli = harness.import_cli()
    for workload, items in workloads.WORKLOADS.items():
        for item in items:
            text = workloads.scenario_text(item)
            report = cli.run_command(item.command, cli.parse_scenario(text))
            path = harness.GOLDEN_DIR / f"{item.key}.txt"
            path.write_text(cli.emit_report(report, machine=True),
                            encoding="utf-8")
            print(f"{workload}: wrote {path.name}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-goldens", action="store_true",
                        help="regenerate every golden report and exit")
    args = parser.parse_args(argv)

    missing = [p for p in (harness.SRC / "hclab", workloads.SCENARIO_DIR)
               if not p.is_dir()]
    if missing:
        print("error: run from an hclab checkout; missing "
              + ", ".join(str(p) for p in missing), file=sys.stderr)
        return 2
    if args.write_goldens:
        write_goldens()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    inputs = workloads.make_inputs(args.workload, args.seed)
    goldens = harness.load_goldens(inputs)
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        metrics, results, detail = traced_run(
            inputs, goldens, args.seconds,
            OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    else:
        metrics, results, detail = timed_run(inputs, goldens, args.seconds)

    attempted = sum(r.attempted for r in results)
    failures = [f for r in results for f in r.failures]
    for key, reason in dict(failures).items():
        print(f"FAILED {key}: {reason}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": _environment(),
        "items": [{"key": inp.item.key, "automorphism": inp.automorphism}
                  for inp in inputs],
        "attempted": attempted, "failed": len(failures),
        "fail_share": len(failures) / attempted,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
        **detail,
    }
    record_path = OUT_DIR / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n",
                           encoding="utf-8")
    print(f"{args.workload} seed {args.seed}: {attempted} item runs, "
          f"{len(failures)} failed; record in "
          f"{record_path.relative_to(workloads.REPO)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
