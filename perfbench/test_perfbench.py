#!/usr/bin/env python3
# Copyright 2026 The AmnesiaDB Authors
"""Tests of the benchmark itself, on shrunken (--tiny) workloads.

Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

The first test builds perfbench (as run.py does). Each workload runs once
untraced and once traced; together they take about a minute.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("churn", "scatter", "scan")


def run(*extra):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seed", "3",
         "--seconds", "1", "--tiny"] + list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, json.loads(lines[-1])


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class TinyRuns(unittest.TestCase):
    """One untraced and one traced pass of every workload."""

    results = {}

    @classmethod
    def setUpClass(cls):
        for w in WORKLOADS:
            for trace in (0, 1):
                cls.results[w, trace] = run("--workload", w,
                                            "--trace", str(trace))

    def test_every_metric_printed_with_its_unit(self):
        for (w, trace), (_, lines, result) in self.results.items():
            wanted = spec()["per_layer" if trace else "end_to_end"]
            for m in wanted:
                with self.subTest(workload=w, trace=trace, metric=m["name"]):
                    self.assertEqual(result["metrics"][m["name"]]["unit"],
                                     m["unit"])
                    printed = [l.split() for l in lines[:-1]]
                    self.assertIn(m["unit"], next(
                        p for p in printed if p and p[0] == m["name"]))
            with self.subTest(workload=w, trace=trace, line="error_rate"):
                self.assertTrue(any(l.startswith("error_rate")
                                    for l in lines))

    def test_every_check_passes(self):
        for (w, trace), (rc, lines, result) in self.results.items():
            with self.subTest(workload=w, trace=trace):
                self.assertTrue(result["correct"], "\n".join(
                    l for l in lines if l.startswith("FAILED CHECK")))
                self.assertEqual(result["failed"], 0)
                self.assertEqual(rc, 0)

    def test_traced_run_covers_the_batch(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                metrics = self.results[w, 1][2]["metrics"]
                self.assertGreaterEqual(metrics["trace.coverage"]["value"],
                                        0.95)

    def test_span_file_is_chrome_trace_json(self):
        path = os.path.join(ROOT, ".bench_run", "traces", "scan-seed3.json")
        with open(path) as f:
            events = json.load(f)["traceEvents"]
        names = {e["name"] for e in events}
        for stage in ("sim.batch", "workload.ingest", "durability.journal",
                      "amnesia.pass", "amnesia.vacuum", "durability.flush",
                      "sim.attest", "query.batch", "query.range",
                      "query.aggregate", "query.oracle",
                      "durability.checkpoint"):
            self.assertIn(stage, names)
        self.assertTrue(all(e["ph"] == "X" and e["dur"] >= 0
                            for e in events))


class DigestMismatch(unittest.TestCase):
    def test_mismatched_recovery_digest_fails_the_run(self):
        rc, lines, result = run("--workload", "scatter", "--trace", "0",
                                "--corrupt-digest")
        self.assertNotEqual(rc, 0)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertTrue(any("bit-identical" in l for l in lines
                            if l.startswith("FAILED CHECK")))


if __name__ == "__main__":
    unittest.main()
