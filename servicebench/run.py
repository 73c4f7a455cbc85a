#!/usr/bin/env python3
"""Service benchmark for BRSMN at n = 1024.

Builds servicebench/service_bench (and the brsmn library under src/) into
.bench_build/, runs one workload, checks the run's correctness verdict and
prints the metrics. Run it from the root of the repository:

  python3 servicebench/run.py --workload hot_replay --seed 1 --seconds 10 --trace 0

The last line of stdout is one JSON object: correct, attempted, failed and
metrics -- the end-to-end metrics of BENCHMARK.json with --trace 0, the
per-layer metrics with --trace 1. The exit code is nonzero when any
delivery was wrong, conservation broke, a faulted_replica run never saw
its fault, or the build or run failed.

Steadiness check (untraced runs on successive seeds; prints each
end-to-end metric's quartile spread against its bound):

  python3 servicebench/run.py --workload group_churn --steadiness 5
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.basename(HERE)
BUILD_DIR = os.path.join(".bench_build", BENCH_DIR)
BINARY = os.path.join(BUILD_DIR, "service_bench")
WORKLOADS = ("hot_replay", "cold_compile", "group_churn", "faulted_replica")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"{BENCH_DIR}: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure and build service_bench; quiet unless it fails."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("run from the repository root: src/CMakeLists.txt not found")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs], "build")
    if not os.access(BINARY, os.X_OK):
        fail("build produced no service_bench binary")


def run_quiet(cmd, what):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        fail(f"{what} failed (exit {proc.returncode})")


def load_spec():
    path = "BENCHMARK.json"
    if not os.path.isfile(path):
        path = os.path.join(HERE, os.pardir, "BENCHMARK.json")
    with open(path) as f:
        return json.load(f)


def run_bench(workload, seed, seconds, trace, extra=()):
    """Run service_bench once; returns (report dict, stdout lines before it)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} seed {seed} did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"service_bench printed nothing (exit {proc.returncode})")
    try:
        report = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"service_bench's last line is not JSON (exit {proc.returncode})")
    if proc.returncode not in (0, 1):
        fail(f"service_bench exited {proc.returncode}")
    return report, lines[:-1]


def result_line(report, spec, trace):
    """The contract's last line: every metric of the selected set."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = report["metrics"].get(m["name"])
        if got is None or got["value"] is None:
            fail(f"service_bench did not report {m['name']}")
        if got["unit"] != m["unit"]:
            fail(f"{m['name']} unit {got['unit']} != {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": bool(report["correct"]),
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": metrics}


def print_run(report, result):
    h = report["host"]
    print(f"# host: nproc={h['nproc']} simd_backend={h['simd_backend']} "
          f"build_type={h['build_type']} seed={h['seed']} "
          f"steal_ticks_delta={h['steal_ticks']}")
    c = report["counts"]
    print(f"# workload={report['workload']} trace={report['trace']} "
          f"requests={report['attempted']} failed={report['failed']} "
          f"latency_samples={c.get('latency_samples')} "
          f"p99_samples_beyond={c.get('p99_samples_beyond', '-')}")
    for err in report["errors"]:
        print(f"# ERROR: {err}")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:16.6f} {m['unit']}")
    for name, m in report["metrics"].items():
        if name not in result["metrics"] and m["value"] is not None:
            print(f"{name:40s} {m['value']:16.6f} {m['unit']} (not gated)")
    print(json.dumps(result))


def steadiness(args, spec):
    """Runs one workload on k seeds; prints each end-to-end metric's
    quartile spread (q3 - q1) / median against its bound."""
    values = {}
    for i in range(args.steadiness):
        seed = args.seed + i
        report, _ = run_bench(args.workload, seed, args.seconds, 0)
        result = result_line(report, spec, 0)
        if not result["correct"]:
            print(f"seed {seed}: incorrect run: {report['errors']}")
            return 1
        for name, m in report["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in report["metrics"].items()),
            flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        if bound is None:
            verdict, bound_text = "(not in the gated set)", "-"
        elif name == "setup_s":
            verdict, bound_text = "(spread not gated)", f"{bound:.3f}"
        else:
            verdict = ("ok" if spread < bound / 3 else
                       "WIDE" if spread < bound else "NOISY")
            bound_text = f"{bound:.3f}"
            if verdict != "ok":
                worst = 1
        print(f"{name:18s} median {med:14.6g} spread {spread:7.4f} "
              f"bound {bound_text:5s} {verdict}")
    return worst


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, default=0, metavar="K",
                   help="run K untraced seeds and report metric spreads")
    args = p.parse_args()

    build()
    spec = load_spec()
    if args.steadiness:
        if args.steadiness < 2:
            fail("--steadiness needs at least 2 runs")
        sys.exit(steadiness(args, spec))
    report, chatter = run_bench(args.workload, args.seed, args.seconds,
                                 args.trace)
    for line in chatter:
        print(line)
    result = result_line(report, spec, args.trace)
    print_run(report, result)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
