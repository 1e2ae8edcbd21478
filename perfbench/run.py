#!/usr/bin/env python3
"""HLSProf benchmark: builds the harness, runs one workload, reduces.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The harness (perfbench/harness.cpp)
is built into .bench_build/ from the tree's src/. It runs the workload in
one process and prints raw measurements; this script turns them into the
metrics named in BENCHMARK.json and prints them as the last line of
stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(computed from the spans the harness writes). See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "hlsprof-perfbench")
WORKLOADS = ("gemm_contended", "gemm_approx", "job_stream")
RUN_TIMEOUT_S = 170

# Span names whose self time is reported as "<name>_s" (sim.run as
# sim.run_self_s: the run minus the decode and timeline spans inside it).
LAYERS = (
    "workloads.factory",
    "runner.cache",
    "core.session",
    "sim.bind",
    "sim.run",
    "trace.decode",
    "trace.timeline",
    "paraver.analysis",
    "workloads.check",
    "core.teardown",
)

COUNT_METRICS = (
    "sim.cycles",
    "sim.busy_thread_cycles",
    "sim.mem_requests",
    "sim.row_hit_rate",
    "sim.direct_dispatch",
    "sim.batched_mem",
    "sim.ff_phases",
    "sim.ff_cycles_skipped",
    "sim.ff_model_rejects",
    "trace.records",
    "trace.bytes",
    "trace.flush_bursts",
    "runner.cache_hits",
    "runner.cache_misses",
)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. Compiler output goes to
    stderr so stdout carries only the result."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def layer_metric_name(span_name):
    return "sim.run_self_s" if span_name == "sim.run" else span_name + "_s"


def per_job_layers(spans_path, scales):
    """Self time per layer of every traced job, plus the simulator-only
    run time of its profiling-off pass, rescaled by the job's host-speed
    scale."""
    spans = []
    with open(spans_path) as f:
        for line in f:
            spans.append(json.loads(line))
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] += ((s["end"] - s["start"]) *
                                        scales[s["job"]])
    jobs = {}
    noprof_run = {}
    for i, s in enumerate(spans):
        root = i
        while spans[root]["parent"] >= 0:
            root = spans[root]["parent"]
        root_name = spans[root]["name"]
        dur = (s["end"] - s["start"]) * scales[s["job"]]
        if root_name == "job.noprof":
            if s["name"] == "sim.run":
                noprof_run[s["job"]] = dur
            continue
        job = jobs.setdefault(s["job"], {name: 0.0 for name in LAYERS})
        if s["name"] == "job":
            job["wall"] = dur
            job["unattributed"] = dur - child_time[i]
        else:
            job[s["name"]] += dur - child_time[i]
    for job_id, job in jobs.items():
        job["noprof_run"] = noprof_run[job_id]
    return list(jobs.values())


def scaled(series):
    """Wall times of a series rescaled to the nominal host speed."""
    return [w * k for w, k in zip(series["wall_s"], series["scale"])]


def end_to_end(raw):
    jobs = sorted(scaled(raw["jobs"]))
    n = len(jobs)
    # The highest percentile with at least ten timed jobs beyond it.
    k = max(0, n - 11)
    print("job_tail_s is the p%.1f of %d timed jobs" % (100.0 * (k + 1) / n, n))
    busy_s = sum(jobs)
    return {
        "job_p50_s": (statistics.median(jobs), "s"),
        "job_tail_s": (jobs[k], "s"),
        "jobs_per_s": (n / busy_s, "1/s"),
        "busy_cycles_per_s": (raw["busy_thread_cycles"] / busy_s, "1/s"),
        "setup_s": (statistics.median(scaled(raw["setup"])), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(raw, spans_path):
    jobs = per_job_layers(spans_path, raw["traced_jobs"]["scale"])
    counts = raw["counts"]

    def med(f):
        return statistics.median(f(j) for j in jobs)

    m = {layer_metric_name(n): (med(lambda j, n=n: j[n]), "s")
         for n in LAYERS}
    m["profiling.hooks_s"] = (med(lambda j: j["sim.run"] - j["noprof_run"]),
                              "s")
    m["job.unattributed_s"] = (med(lambda j: j["unattributed"]), "s")
    m["job.unattributed_frac"] = (
        med(lambda j: j["unattributed"] / j["wall"]), "ratio")
    m["core.session_frac"] = (
        med(lambda j: j["core.session"] / j["wall"]), "ratio")
    m["sim.run_self_frac"] = (med(lambda j: j["sim.run"] / j["wall"]), "ratio")
    m["trace.overhead_frac"] = (
        statistics.median(scaled(raw["traced_jobs"])) /
        statistics.median(scaled(raw["jobs"])) - 1.0, "ratio")
    m["host.wall_p50_s"] = (statistics.median(raw["jobs"]["wall_s"]), "s")
    m["host.speed"] = (statistics.median(raw["jobs"]["scale"]), "ratio")
    for name in COUNT_METRICS:
        m[name] = (counts[name], "ratio" if name == "sim.row_hit_rate"
                   else "count")
    m["sim.batched_frac"] = (
        counts["sim.batched_mem"] / counts["sim.mem_requests"], "ratio")
    m["sim.ff_skip_frac"] = (
        counts["sim.ff_cycles_skipped"] / counts["sim.cycles"], "ratio")
    m["sim.busy_cycles_per_run_s"] = (
        med(lambda j: counts["sim.busy_thread_cycles"] / j["sim.run"]), "1/s")
    m["sim.mem_requests_per_s"] = (
        med(lambda j: counts["sim.mem_requests"] / j["sim.run"]), "1/s")
    m["trace.records_per_s"] = (
        med(lambda j: counts["trace.records"] /
            (j["trace.decode"] + j["trace.timeline"])), "1/s")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1

    spans_path = os.path.join(
        BUILD, "spans-%s-%d.jsonl" % (args.workload, args.seed))
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--trace=%d" % args.trace,
           "--spans=" + spans_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("harness did not finish within %d s" % RUN_TIMEOUT_S)
        return 1
    if proc.returncode != 0:
        log("harness exited with code %d" % proc.returncode)
        return 1
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    if args.trace:
        metrics = per_layer(raw, spans_path)
        os.remove(spans_path)
    else:
        metrics = end_to_end(raw)
    print(json.dumps({
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
