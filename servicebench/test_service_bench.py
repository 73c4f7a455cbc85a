#!/usr/bin/env python3
"""Tests of the service benchmark itself.

Run from the repository root (builds service_bench first if needed):

  python3 servicebench/test_service_bench.py

They check service_bench's own unit tests (quantiles, seeded streams, group
churn invariants), that one seed gives one request stream, that a traced
run counts what an untraced run of the same seed counts, that a wrong
delivery fails the run, and the output contract of run.py.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

REQUESTS = "60"  # per client, in fixed-count runs

# Counts that must repeat exactly between runs of one seed.
EXACT = ("requests", "delivered", "degraded", "failed", "attempts",
         "detections", "served.0", "served.1", "mutations", "stream_digest_lo")


def run_binary(*args):
    proc = subprocess.run([bench.BINARY, *args], stdout=subprocess.PIPE,
                          text=True, timeout=bench.RUN_TIMEOUT_S)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def fixed(workload, seed, trace, *extra):
    return run_binary("--workload", workload, "--seed", str(seed), "--seconds",
                  "1", "--trace", str(trace), "--requests", REQUESTS,
                  "--setups", "1", *extra)


class ServiceBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        bench.build()

    def test_binary_self_test(self):
        proc = subprocess.run([bench.BINARY, "--self-test"],
                              stdout=subprocess.PIPE, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("self-test: ok", proc.stdout)

    def test_same_seed_same_stream(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                _, a = fixed(workload, 5, 0)
                _, b = fixed(workload, 5, 0)
                _, c = fixed(workload, 6, 0)
                for key in EXACT:
                    self.assertEqual(a["counts"][key], b["counts"][key], key)
                self.assertNotEqual(a["counts"]["stream_digest_lo"],
                                    c["counts"]["stream_digest_lo"])

    def test_traced_counts_equal_untraced(self):
        for workload in bench.WORKLOADS:
            with self.subTest(workload=workload):
                code0, plain = fixed(workload, 9, 0)
                code1, traced = fixed(workload, 9, 1)
                self.assertEqual((code0, code1), (0, 0))
                self.assertTrue(plain["correct"] and traced["correct"])
                p, t = plain["counts"], traced["counts"]
                for key in EXACT:
                    self.assertEqual(p[key], t[key], key)
                    # The hooked pass routes the same stream again.
                    self.assertEqual(p[key], t["hooked." + key], key)
                # Process-wide allocations vary by a handful between
                # identical runs (the ingress deque's block reuse depends
                # on thread timing), never by a share of a request.
                self.assertLessEqual(abs(p["allocs"] - t["allocs"]),
                                     p["allocs"] * 1e-3)
                # Plan-cache counts exist only where the program's hooks
                # are attached; they must follow from the untraced run.
                hits = t["hooked.plan_cache_hits"]
                misses = t["hooked.plan_cache_misses"]
                requests = p["requests"]
                if workload == "hot_replay":
                    self.assertEqual((hits, misses), (requests, 0))
                elif workload == "cold_compile":
                    self.assertEqual((hits, misses), (0, requests))
                    self.assertEqual(t["hooked.plan_cache_evictions"],
                                     requests)
                elif workload == "group_churn":
                    self.assertEqual(t["hooked.group_patched"] +
                                     t["hooked.group_compiled"] +
                                     t["hooked.group_replayed"], requests)
                else:  # faulted_replica: the armed shard never caches
                    self.assertEqual(hits, p["served.1"])
                    self.assertGreater(p["detections"], 0)

    def test_traced_run_reports_every_layer(self):
        spec = bench.load_spec()
        code, report = fixed("hot_replay", 2, 1)
        self.assertEqual(code, 0)
        result = bench.result_line(report, spec, 1)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in spec["per_layer"]})
        self.assertEqual(result["metrics"]["alloc.replay_per_req"]["value"], 0)
        self.assertEqual(result["metrics"]["cluster.misdelivered"]["value"], 0)

    def test_wrong_delivery_fails_the_run(self):
        code, report = fixed("hot_replay", 3, 0, "--poison-reference")
        self.assertEqual(code, 1)
        self.assertFalse(report["correct"])
        self.assertEqual(report["failed"], report["attempted"])
        self.assertTrue(any("wrong delivery" in e for e in report["errors"]))

    def test_contract_line(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             "group_churn", "--seed", "4", "--seconds", "1", "--trace", "0"],
            stdout=subprocess.PIPE, text=True, timeout=bench.RUN_TIMEOUT_S)
        self.assertEqual(proc.returncode, 0)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(last), {"correct", "attempted", "failed",
                                     "metrics"})
        spec = bench.load_spec()
        self.assertEqual(set(last["metrics"]),
                         {m["name"] for m in spec["end_to_end"]})
        self.assertEqual(last["metrics"]["delivered_ratio"]["value"], 1)
        for m in last["metrics"].values():
            self.assertGreater(m["value"], 0)

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory(dir=".bench_build") as root:
            shutil.copy(os.path.join(HERE, os.pardir, "BENCHMARK.json"), root)
            shutil.copytree(HERE, os.path.join(root, bench.BENCH_DIR),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, os.path.join(bench.BENCH_DIR, "run.py"),
                 "--workload", "hot_replay", "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, timeout=bench.RUN_TIMEOUT_S)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
