#!/usr/bin/env python3
# Copyright 2026 The AmnesiaDB Authors
"""End-to-end benchmark of the Data Amnesia Simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload churn --seed 1 --seconds 30 --trace 0

Builds perfbench/ (its own CMake package over src/) into .bench_build/,
then runs the workload in fresh processes under .bench_run/:

  --trace 0  repeats `perfbench_e2e run` (one timed simulation per
             process) for --seconds; after each repetition, several
             `perfbench_e2e recover` processes time Recover() on the
             directory it left behind. Prints the medians: the
             end-to-end metrics.
  --trace 1  `perfbench_e2e trace` runs the traced mirror of the batch loop
             and prints the per-layer metrics; the span file lands in
             .bench_run/traces/ (README.md: opening it in Perfetto).

Human-readable lines go first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0
only when every correctness check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_run")
BINARY = os.path.join(BUILD_DIR, "perfbench_e2e")
WORKLOADS = ("churn", "scatter", "scan")
# A child still running after this long is killed and counted as failed.
CHILD_TIMEOUT_S = 150
# Recovery processes after each repetition; recovery_s is the median over
# all of them.
RECOVER_PER_REP = 4


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no src/ next to perfbench/: run from the root of a full checkout")
    if shutil.which("cmake") is None:
        die("cmake not found")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode:
            die("build failed: " + " ".join(cmd))


def child(args):
    """Runs perfbench_e2e; returns (exit code, its JSON report or None)."""
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=CHILD_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        return 124, None
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def source_digest():
    h = hashlib.sha256()
    for sub in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, sub)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "unknown"


def flip_digest(digest):
    """Test hook: the recovery check must catch a one-bit mismatch."""
    first = "0123456789abcdef".index(digest[0]) ^ 1
    return "0123456789abcdef"[first] + digest[1:]


def medians(reports):
    """Each metric's median over several processes' reports. A process
    carries its own systematic offset (its CPU, its memory layout), so
    timings are taken over several processes, not one."""
    values = {}
    for r in reports:
        for m in r["metrics"]:
            values.setdefault((m["name"], m["unit"]), []).append(m["value"])
    return [{"name": name, "unit": unit, "value": statistics.median(v)}
            for (name, unit), v in values.items()]


def repetition_summary(reps):
    """Medians over the repetitions, plus the check that every repetition
    ended bit-identical to the first. Each repetition ran in its own
    process, so peak_rss_mb is one repetition's peak."""
    keys = ("digest_table", "digest_cold", "digest_summary", "digest_pf")
    errors = ["repetition %d differs from the first: %s" % (i, k)
              for i, rep in enumerate(reps[1:], 1) for k in keys
              if rep["facts"][k] != reps[0]["facts"][k]]
    # These metrics replace the per-repetition ones in run_workload.
    metrics = medians(reps)
    setups = [float(x) for rep in reps
              for x in rep["facts"]["setup_samples_s"].split()]
    metrics.append({"name": "setup_s", "unit": "s",
                    "value": statistics.median(setups)})
    return {"attempted": len(reps) - 1, "failed": len(errors),
            "errors": errors, "metrics": metrics,
            "facts": {"repetitions": str(len(reps)),
                      "setup_samples": str(len(setups))}}


def run_children(args, workload):
    """Runs one workload's processes; returns their reports and verdict."""
    work = os.path.join(RUN_DIR, "%s-%d-%d" % (workload, args.seed,
                                               os.getpid()))
    common = ["--workload", workload, "--seed", str(args.seed)]
    if args.tiny:
        common.append("--tiny")
    reports = []
    try:
        if args.trace:
            traces = os.path.join(RUN_DIR, "traces")
            os.makedirs(traces, exist_ok=True)
            span_file = os.path.join(
                traces, "%s-seed%d.json" % (workload, args.seed))
            rc, rep = child(["trace"] + common + ["--dir", work,
                                                  "--span-file", span_file])
            return [rep], rc == 0 and rep is not None
        reps, recs = [], []
        ok = True
        start = time.monotonic()
        while ok:
            rep_dir = os.path.join(work, "rep-%d" % len(reps))
            rc, rep = child(["run"] + common + ["--dir", rep_dir])
            reports.append(rep)
            if rep is None or rc != 0:
                return reports, False
            reps.append(rep)
            # Recovery is timed after every repetition so that its samples
            # span the whole run, as the batch times do.
            facts = rep["facts"]
            table = facts["digest_table"]
            if args.corrupt_digest:
                table = flip_digest(table)
            for _ in range(RECOVER_PER_REP):
                rc, rec = child(["recover"] + common + [
                    "--dir", facts["final_dir"],
                    "--table", table,
                    "--cold", facts["digest_cold"],
                    "--summary", facts["digest_summary"],
                    "--forgotten", facts["lifetime_forgotten"]])
                reports.append(rec)
                if rec is None or rc != 0:
                    ok = False
                    break
                recs.append(rec)
            shutil.rmtree(rep_dir, ignore_errors=True)
            if time.monotonic() - start >= args.seconds:
                break
        reports.append(repetition_summary(reps))
        reports.append({"attempted": 0, "failed": 0, "errors": [],
                        "metrics": medians(recs),
                        "facts": {"recover_processes": str(len(recs))}})
        return reports, ok
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_workload(args, workload, wanted):
    """Prints one workload's report; returns (ok, attempted, failed,
    metrics)."""
    reports, ok = run_children(args, workload)
    reports = [r for r in reports if r is not None]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    measured = {}
    facts = {}
    for r in reports:
        facts.update(r["facts"])
        for m in r["metrics"]:
            measured[m["name"]] = {"value": m["value"], "unit": m["unit"]}
        for e in r["errors"]:
            print("FAILED CHECK: " + e)

    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"] or got["value"] is None:
            print("MISSING METRIC: %s [%s]" % (m["name"], m["unit"]))
            ok = False
            continue
        metrics[m["name"]] = got

    print("workload %s  seed %d  trace %d  seconds %g" % (
        workload, args.seed, args.trace, args.seconds))
    print("host: nproc=%s machine=%s kernel=%s build=%s compiler=%s" % (
        facts.get("nproc", os.cpu_count()), platform.machine(),
        platform.release(), facts.get("build_type"), facts.get("compiler")))
    print("source: commit=%s tree=%s" % (commit(), source_digest()))
    print("data: fs=%s  flush policy: %s; latencies are this host's page "
          "cache, not a device's" % (facts.get("data_fs"),
                                     facts.get("flush_policy")))
    print("sizes: dbsize=%s batches=%s repetitions=%s" % (
        facts.get("dbsize"), facts.get("batches"),
        facts.get("repetitions", "1")))
    for name, m in metrics.items():
        tag = ""
        if name == "query.oracle_ms":
            tag = "  (measurement apparatus, not system time)"
        print("%-36s %16.6f %s%s" % (name, m["value"], m["unit"], tag))
    rate = failed / attempted if attempted else 1.0
    print("%-36s %16.6f ratio  (%d of %d operations failed)" % (
        "error_rate", rate, failed, attempted))
    ok = ok and failed == 0 and attempted > 0
    return ok, max(attempted, 1), failed if attempted else 1, metrics


def main():
    # A SIGTERM becomes SystemExit, so subprocess.run kills and reaps the
    # running child before run.py exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",),
                    help="one workload, or all three in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken sizes, for the benchmark's own tests")
    ap.add_argument("--corrupt-digest", action="store_true",
                    help="test hook: hand recovery a wrong table digest")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        die("BENCHMARK.json not found at the checkout root")
    with open(spec_path) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    os.makedirs(RUN_DIR, exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, a, f, m = run_workload(args, name, wanted)
        correct &= ok
        attempted += a
        failed += f
        if len(names) == 1:
            metrics = m
        else:
            metrics.update({name + "/" + k: v for k, v in m.items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
