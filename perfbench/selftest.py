#!/usr/bin/env python3
"""Self-test of the benchmark's determinism contract.

For every workload, two short traced runs with one seed must produce the
same schedule, the same exact counters (candidate counts, placement HPWL,
routed wirelength, VM instructions, drift decisions) and the same result
digest, with no failed request; a run with another seed must produce a
different schedule. Exits 0 when all of that holds.

    python3 perfbench/selftest.py
"""

import json
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402  (run.py, next to this file)

# Short schedules: cold passes (the first pass has a fixed order, so two
# passes are needed for the seed to show), warm requests per tenant (one
# pass over the mix), drift rotation cycles.
COUNTS = {"cold_specialize": 2, "warm_serve": 21, "drift_vm": 1}
# Traced counters that must repeat exactly for one seed.
EXACT_LAYERS = ("cad.hpwl", "cad.routed_wirelength", "cad.runs", "cad.failed")


def client(workload, seed, traced):
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--count", str(COUNTS[workload]), "--setups", "1"]
    if traced:
        cmd.append("--trace")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError("%s exited with %d: %s" % (workload, proc.returncode,
                                                      proc.stderr.strip()))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def signature(report):
    exact = dict(report["exact"])
    for name in EXACT_LAYERS:
        exact[name] = report["layers"][name]
    return {"schedule": report["schedule_digest"],
            "result": report["result_digest"], "exact": exact}


def main():
    if not run.build():
        print("selftest: build failed")
        return 2
    problems = []
    for workload in run.WORKLOADS:
        first = client(workload, 7, True)
        second = client(workload, 7, True)
        other = client(workload, 8, False)
        for rep in (first, second, other):
            if rep["failed"] != 0 or rep["attempted"] == 0:
                problems.append("%s: %d of %d requests failed: %s" % (
                    workload, rep["failed"], rep["attempted"], rep["errors"]))
        a, b = signature(first), signature(second)
        if a != b:
            problems.append("%s: seed 7 did not repeat:\n  %s\n  %s" % (
                workload, json.dumps(a, sort_keys=True),
                json.dumps(b, sort_keys=True)))
        if other["schedule_digest"] == first["schedule_digest"]:
            problems.append("%s: seeds 7 and 8 gave the same schedule" %
                            workload)
        print("%-16s schedule %s result %s exact %s" % (
            workload, a["schedule"], a["result"],
            json.dumps(a["exact"], sort_keys=True)))
    for p in problems:
        print("FAIL " + p)
    print("selftest: %s" % ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
