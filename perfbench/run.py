#!/usr/bin/env python3
r"""Repository benchmark: build the simulator, run one workload, report.

    python3 perfbench/run.py --workload paper8-cds --seed 1 \
        --seconds 30 --trace 0

Run from the repository root. The first run configures and builds
perfbench_driver (perfbench/CMakeLists.txt, sources from src/) under
.bench_build/perfbench; later runs only rebuild what changed.

A run repeats the workload in fresh driver processes until --seconds are
used up (one repetition at least) and reports medians over them:

  --trace 0  untraced repetitions only; prints the end-to-end metrics.
  --trace 1  untraced and traced repetitions alternately; prints the
             per-layer metrics, which come from the traced replay, plus
             the tracing overhead measured against the untraced runs.

Every repetition is checked: the driver must exit 0 (it aborts on a
failed Hypervisor::checkConsistency() and exits 1 when the owner
accounting does not add up to resident memory), and its digest of the
named simulated outputs must equal the digest recorded for this
workload and seed in perfbench/digests.json or, for a seed with no
recorded digest, the first untraced repetition's digest. A traced
replay that does not reproduce it counts as failed too.

Every metric is printed as "name = value unit", the paper-fidelity
figures of the paper-protocol workloads as well, and the last line is
the JSON result: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
# A repetition still running this long after the first one started is
# killed and counted as failed, so a run ends within three minutes.
RUN_LIMIT_S = 160


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    """Configure once, then build incrementally; output only on error."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources (src/) next to perfbench/; run from a "
             "full checkout")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-8000:])
            fail("build failed: " + " ".join(cmd))


def run_rep(workload, seed, traced, timeout):
    """One driver process; returns its result dict or None if it failed."""
    cmd = [DRIVER, workload, str(seed), "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"rep {' '.join(cmd[1:])}: timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"rep {' '.join(cmd[1:])}: exit {proc.returncode}\n"
              f"{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    try:
        rep = json.loads(proc.stdout)
    except ValueError:
        print(f"rep {' '.join(cmd[1:])}: unreadable output", file=sys.stderr)
        return None
    return rep if rep.get("accounting_ok") else None


def main():
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    recorded = load_json(os.path.join(HERE, "digests.json"))
    expected = recorded.get(args.workload, {}).get(str(args.seed))
    refs = load_json(os.path.join(HERE, "paper_refs.json"))

    # Repetitions: untraced only, or untraced/traced alternately. Stop
    # before a repetition that would overrun --seconds, judged by the
    # slowest one so far.
    modes = [False, True] if args.trace else [False]
    reps = []  # (traced, result or None)
    start = time.monotonic()
    longest = 0.0
    while True:
        for traced in modes:
            t0 = time.monotonic()
            timeout = max(5.0, RUN_LIMIT_S - (time.monotonic() - start))
            reps.append((traced, run_rep(args.workload, args.seed, traced,
                                         timeout)))
            longest = max(longest, time.monotonic() - t0)
        if time.monotonic() - start + longest * len(modes) > args.seconds:
            break

    untraced = [r for t, r in reps if not t and r]
    traced = [r for t, r in reps if t and r]
    reference = expected or (untraced[0]["digest"] if untraced else None)
    good_u = [r for r in untraced if r["digest"] == reference]
    good_t = [r for r in traced if r["digest"] == reference]
    attempted = len(reps)
    failed = attempted - len(good_u) - len(good_t)
    if not good_u or (args.trace and not good_t):
        # Nothing trustworthy to measure: report what failed and stop.
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        sys.exit(1)

    values = {
        "run_s": median([r["run_s"] for r in good_u]),
        "setup_s": median([r["setup_s"] for r in good_u]),
        "peak_rss_mib": median([r["peak_rss_mib"] for r in good_u]),
        "proc.cpu_s": median([r["cpu_s"] for r in good_u]),
    }
    if args.trace:
        for name in good_t[0]["layers"]:
            values[name] = median([r["layers"][name] for r in good_t])
        values["trace.overhead_frac"] = (
            median([r["run_s"] for r in good_t]) / values["run_s"] - 1.0)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        if m["name"] not in values:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print(f"workload {args.workload}, seed {args.seed}: {attempted} "
          f"repetitions, {failed} failed (failed_frac = "
          f"{failed / attempted:.4g}), digest {reference}"
          + ("" if expected else " (no recorded digest for this seed)"))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    # Paper fidelity: fixed for a seed; absent where the workload has no
    # paper reference.
    fid = good_u[0]["fid"]
    for name, ref_key in refs["workloads"].get(args.workload, {}).items():
        ref = refs["refs"][ref_key]["value"]
        sim = fid[name]
        if name == "rq_s":
            print(f"fid.rq_s_err_pct = {abs(sim - ref) / ref * 100:.6g} % "
                  f"(simulated {sim:.1f} rq/s, paper {ref})")
        else:
            print(f"fid.class_meta_err_pp = {abs(sim - ref):.6g} pp "
                  f"(simulated {sim:.2f} %, paper {ref} %)")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
