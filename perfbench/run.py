#!/usr/bin/env python3
"""The repo benchmark: simulator host speed and simulated migration outcomes.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload paper_precopy --seed 1 --seconds 30 \\
      --trace 0

Builds perfbench_driver from the checkout's sources into .bench_build/
(CMake, Release), runs one workload through it, checks the outputs and
prints every metric by name with its unit and whether it is host-measured
(noisy) or simulated (exact-repeat). The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of the untraced timed pass; --trace 1 the per-layer
metrics of the traced pass (spans in .bench_build/runs/<run>/spans.jsonl).

Correctness: every run verifies and passes its trace audit; every
repetition of a seeded list exports byte-identical results (same seed, same
simulated outcome); the traced pass exports byte-identically to the timed
pass; spans nest and cover at least 95% of traced scenario wall time. Exits
1 when a check fails and 2 when the build or the driver fails.

The workload seed defaults to perfstats.DEFAULT_SEED; perfstats.HELD_OUT_SEED
was not used while the benchmark was tuned, for re-checking a claim.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

import perfstats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
DRIVER_TIMEOUT_S = 150


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    # Configuring an existing tree is a no-op, and re-running it recovers
    # a tree whose first configure failed.
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "--target", "perfbench_driver",
              "-j", str(min(4, os.cpu_count() or 1))]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("perfbench: build step failed: %s" % " ".join(step))
            sys.exit(2)


def read_jsonl(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def read_text(path):
    with open(path) as f:
        return f.read()


def run_driver(args, out_dir):
    if os.path.isdir(out_dir):
        shutil.rmtree(out_dir)
    os.makedirs(out_dir)
    cmd = [DRIVER, "--workload=%s" % args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--out=%s" % out_dir]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=DRIVER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: driver exceeded %d s" % DRIVER_TIMEOUT_S)
        sys.exit(2)
    if done.returncode != 0:
        log("perfbench: driver exited %d" % done.returncode)
        sys.exit(2)
    return json.loads(done.stdout.strip().splitlines()[-1])


def exports(out_dir, pass_name, reps):
    """{rep: export text} of one pass."""
    return {r["rep"]: read_text(os.path.join(
        out_dir, "export.%s.%d.jsonl" % (pass_name, r["rep"]))) for r in reps}


def parse(texts):
    return {rep: [json.loads(line) for line in text.splitlines()]
            for rep, text in texts.items()}


def print_metric(name, value, note=""):
    m = perfstats.CATALOG[name]
    print("  %-42s %16.6g %-6s %s/%s%s" % (
        name, value, m.unit, m.kind, m.repeat, ("  " + note) if note else ""))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(perfstats.WORKLOADS))
    parser.add_argument("--seed", type=int, default=perfstats.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build()
    out_dir = os.path.join(BUILD, "runs", "%s-s%d-t%d" % (
        args.workload, args.seed, args.trace))
    summary = run_driver(args, out_dir)

    scenarios = read_jsonl(os.path.join(out_dir, "scenarios.jsonl"))
    reps = read_jsonl(os.path.join(out_dir, "reps.jsonl"))
    timed_reps = [r for r in reps if r["pass"] == "timed"]
    timed_text = exports(out_dir, "timed", timed_reps)
    problems = []
    first_of_list = {}
    for r in timed_reps:
        first = first_of_list.setdefault(r["list"], r["rep"])
        if timed_text[r["rep"]] != timed_text[first]:
            problems.append("timed repetitions %d and %d of list %d (same "
                            "seeds) exported different results"
                            % (first, r["rep"], r["list"]))
    timed_exports = parse(timed_text)
    all_exports = [rec for recs in timed_exports.values() for rec in recs]

    print("workload %s  seed %d  scenarios %d x %d seeded lists  trace %d" % (
        args.workload, args.seed, len(scenarios), summary["lists"],
        args.trace))
    if args.trace == 0:
        metrics, notes = perfstats.timed_metrics(
            scenarios,
            read_jsonl(os.path.join(out_dir, "timed.jsonl")),
            timed_reps, timed_exports,
            read_jsonl(os.path.join(out_dir, "setup.jsonl")),
            summary["peak_rss_kib"],
            len(scenarios) * (summary["lists"] + 1))
        level = "end_to_end"
    else:
        traced_reps = [r for r in reps if r["pass"] == "traced"]
        traced_text = exports(out_dir, "traced", traced_reps)
        for rep, text in traced_text.items():
            if text != timed_text[rep]:
                problems.append("traced repetition %d exported different "
                                "results from the timed one" % rep)
        traced_exports = parse(traced_text)
        all_exports += [rec for recs in traced_exports.values()
                        for rec in recs]
        spans = read_jsonl(os.path.join(out_dir, "spans.jsonl"))
        problems += perfstats.check_spans(spans)[:5]
        metrics = perfstats.layer_metrics(
            scenarios, read_jsonl(os.path.join(out_dir, "counts.jsonl")),
            spans, traced_exports, timed_reps, traced_reps)
        if metrics["trace.span_coverage"] < perfstats.MIN_SPAN_COVERAGE:
            problems.append("spans cover only %.3f of scenario wall time"
                            % metrics["trace.span_coverage"])
        notes = {}
        level = "per_layer"
    export = timed_exports[0]

    attempted = len(all_exports)
    outcomes = perfstats.outcome_counts(all_exports)
    failed = outcomes["failed"]
    if failed:
        problems.append("%d of %d runs threw, failed verification or failed "
                        "the trace audit" % (failed, attempted))
    if args.trace == 0:
        metrics["failure_rate"] = perfstats.ratio(failed, attempted)

    print("runs attempted %d  failed %d  aborted %d  fell back %d  "
          "degraded %d  (outcomes of one repetition: %s)" % (
              attempted, failed, outcomes["aborted"], outcomes["fell_back"],
              outcomes["degraded"],
              json.dumps(perfstats.outcome_counts(export))))
    print("%s metrics:" % level.replace("_", "-"))
    for name, m in perfstats.CATALOG.items():
        if m.level == level and name in metrics:
            print_metric(name, metrics[name], notes.get(name, ""))
    for problem in problems:
        print("CHECK FAILED: " + problem)
    print("raw records: %s" % os.path.relpath(out_dir, ROOT))

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name],
                   "unit": perfstats.CATALOG[name].unit}
            for name in perfstats.gated_metrics(level)
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
