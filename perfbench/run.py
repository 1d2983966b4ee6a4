#!/usr/bin/env python3
"""End-to-end benchmark of the JIT-ISE specialization service.

Builds the benchmark client (perfbench/CMakeLists.txt) against the unmodified
libraries under src/, runs one workload in its own process and prints a
human-readable report followed by one JSON result line:

    python3 perfbench/run.py --workload cold_specialize --seed 1 \
        --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 runs
the same seed and schedule twice, untraced and then traced in a separate
process, and reports the per-layer metrics plus the tracing overhead.
--workload all runs every workload in turn. Run from the repository root
(or anywhere: paths are resolved from this file's location).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "jitise_perfbench")
WORKLOADS = ("cold_specialize", "warm_serve", "drift_vm")
# The latency a user of each workload watches first; the traced run's
# overhead is measured on it.
HEADLINE = {
    "cold_specialize": "request_geomean_ms",
    "warm_serve": "request_p50_ms",
    "drift_vm": "request_p50_ms",
}
RUN_TIMEOUT_S = 170.0
# Per-layer metrics a workload does not exercise; they read 0 there.
NOT_EXERCISED = {
    "cold_specialize": {"adaptive.observe_us_p50", "adaptive.respec_ms_p50"},
    "warm_serve": {"adaptive.observe_us_p50", "adaptive.respec_ms_p50"},
    # Drift requests are submitted inside observe_window, not by the client.
    "drift_vm": {"server.submit_us_p50"},
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the client; returns False on failure."""
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", "jitise_perfbench"]
    return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_client(workload, seed, seconds, traced, deadline):
    """Runs the client once; returns its parsed JSON report or None."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if traced:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--trace", "--spans",
                os.path.join(spans, "%s-seed%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % workload)
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log("perfbench: client exited with %d" % proc.returncode)
        return None
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def layer_values(spec, report):
    """Per-layer metrics of a traced report: the layer counters, the exact
    counters and the `app.<app>_ms` median-latency rows of BENCHMARK.json
    (0 where this workload sends that app no request)."""
    values = dict(report["layers"])
    for name, v in report["exact"].items():
        values[name] = float(v)
    for m in spec["per_layer"]:
        name = m["name"]
        if name.startswith("app.") and name.endswith("_ms"):
            values[name] = report["per_app_ms"].get(name[4:-3], 0.0)
    return values


def print_report(workload, seed, report, traced_report, provenance):
    print("== %s seed=%d ==" % (workload, seed))
    prov = dict(provenance)
    prov.update(report["provenance"])
    print("provenance: " + ", ".join("%s=%s" % kv for kv in sorted(prov.items())))
    print("requests: %d attempted, %d failed" % (report["attempted"],
                                                 report["failed"]))
    for err in report["errors"]:
        print("  failure: " + err)
    print("end-to-end:")
    for name, m in sorted(report["metrics"].items()):
        print("  %-22s %14.4f %s" % (name, m["value"], m["unit"]))
    print("per-app median latency (ms):")
    for app, v in sorted(report["per_app_ms"].items(), key=lambda kv: kv[1]):
        print("  %-16s %12.3f" % (app, v))
    print("exact counters: " + ", ".join(
        "%s=%d" % kv for kv in sorted(report["exact"].items())))
    print("schedule digest %s, result digest %s" % (report["schedule_digest"],
                                                    report["result_digest"]))
    if traced_report is not None:
        print("per-layer (traced run):")
        for name, v in sorted(traced_report["layers"].items()):
            print("  %-30s %16.4f" % (name, v))


def run_workload(spec, workload, seed, seconds, trace, deadline, provenance):
    report = run_client(workload, seed, seconds, False, deadline)
    if report is None:
        return None
    traced = None
    if trace:
        traced = run_client(workload, seed, seconds, True, deadline)
        if traced is None:
            return None
        base = report["metrics"][HEADLINE[workload]]["value"]
        with_trace = traced["metrics"][HEADLINE[workload]]["value"]
        traced["layers"]["bench.trace_overhead_pct"] = \
            100.0 * (with_trace / base - 1.0)
    print_report(workload, seed, report, traced, provenance)

    attempted = report["attempted"] + (traced["attempted"] if traced else 0)
    failed = report["failed"] + (traced["failed"] if traced else 0)
    correct = failed == 0 and attempted > 0
    metrics = {}
    if trace:
        values = layer_values(spec, traced)
        for m in spec["per_layer"]:
            if m["name"] not in values and \
                    m["name"] not in NOT_EXERCISED[workload]:
                log("perfbench: %s reports no %s" % (workload, m["name"]))
                correct = False
            metrics[m["name"]] = {"value": values.get(m["name"], 0.0),
                                  "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            got = report["metrics"].get(m["name"])
            if got is None or got["unit"] != m["unit"] or \
                    not math.isfinite(got["value"]) or got["value"] <= 0:
                log("perfbench: %s has no valid %s" % (workload, m["name"]))
                correct = False
                got = {"value": 0.0, "unit": m["unit"]}
            metrics[m["name"]] = got

    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "provenance": provenance, "untraced": report, "traced": traced}
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-seed%d-trace%d.json" %
                           (workload, seed, int(trace))), "w") as f:
        json.dump(record, f, indent=1)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        log("perfbench: build failed")
        return 2
    spec = load_spec()
    provenance = {"git_sha": git_sha(), "source_sha256": source_digest(),
                  "seconds": args.seconds}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_TIMEOUT_S * len(names)
    for name in names:
        result = run_workload(spec, name, args.seed, args.seconds,
                              bool(args.trace), deadline, provenance)
        if result is None:
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
