#!/usr/bin/env python3
"""flexnet's benchmark: one workload, one process, one JSON result line.

    python3 flexbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke]

Builds the flexbench program (and flexnet from src/) under .bench_build/, runs
it on the workload for about S seconds of host time (a fixed number of
operations per workload, sized for S seconds) and prints, as the last line of
stdout, {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list. End-to-end times are scaled to the reference host's speed by the
program's reference kernel (see end_to_end()). The line before it is the
run's full record: host, per-operation quartiles, unscaled values and every
failure; flexbench/compare.py reads those records.

--smoke runs one short operation per workload (every check still applies).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "flexbench"
WORKLOADS = ("paper-16x2-sat", "torus-32x3-shards3", "burst-32x3-capture")
# Host seconds of the program's reference kernel on the 4-vCPU host the
# benchmark was sized on; end-to-end times are scaled to this speed.
REFERENCE_KERNEL_S = 0.010
# A run must exit within 180 s; the first one in a checkout also builds.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then lets the build tool decide what is stale."""
    cores = str(len(os.sched_getaffinity(0)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], env=env,
                       check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", cores,
                    "--target", "flexbench"], env=env,
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return BUILD_DIR / "flexbench"


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def summary(values):
    """Median and quartiles of one run's per-operation samples."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(ops, end, scale=True):
    """Each end-to-end metric: (its per-operation samples, the value reported).

    The host is shared and runs this process up to 1.5x slower for tens of
    seconds at a time. So every time is scaled to the reference host: times
    REFERENCE_KERNEL_S over the time the program's reference kernel took just
    before the operation. Times are means over the run's operations (the
    seeds differ in cost, and over many seeds a mean settles faster than a
    median); setup_s, which does not depend on the seed, is the median over
    at least five constructions. scale=False gives the times as measured.
    """
    untraced = [op for op in ops if op["op"] == "run" and not op["traced"]]
    setups = [op for op in ops if op["op"] in ("run", "setup")
              and not op.get("traced", False)]

    def scaled(op, value):
        return value * REFERENCE_KERNEL_S / op["ref_s"] if scale else value

    setup_s = [scaled(op, op["setup_s"]) for op in setups]
    loop_s = [scaled(op, op["wall_s"] - op["setup_s"]) for op in untraced]
    cycles = [op["cycles"] for op in untraced]
    wall_s = [scaled(op, op["wall_s"]) for op in untraced]
    cpu_s = [scaled(op, op["cpu_s"]) for op in untraced]
    rss_mb = end["peak_rss_kb"] / 1024.0
    return {
        "setup_s": (setup_s, statistics.median(setup_s)),
        "cycles_per_s": ([c / s for c, s in zip(cycles, loop_s)],
                         sum(cycles) / sum(loop_s)),
        "wall_s": (wall_s, statistics.fmean(wall_s)),
        "cpu_s": (cpu_s, statistics.fmean(cpu_s)),
        "peak_rss_mb": ([rss_mb], rss_mb),
    }


def per_layer(ops):
    untraced = {op["seed"]: op for op in ops
                if op["op"] == "run" and not op["traced"]}
    traced = [op for op in ops if op["op"] == "run" and op["traced"]]
    samples = {}
    for op in traced:
        for name, value in op["layers"].items():
            samples.setdefault(name, []).append(value)
    # Paired by seed: traced wall time over the untraced run of the same seed.
    samples["bench.trace_overhead"] = [
        op["wall_s"] / untraced[op["seed"]]["wall_s"] for op in traced]
    return samples


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    load_start = os.getloadavg()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        log(f"flexbench: build failed: {err}")
        return 1

    work_dir = ROOT / ".bench_build" / f"work-{os.getpid()}"
    spans_path = ROOT / ".bench_build" / "spans" / f"{args.workload}.json"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir),
               "--spans", str(spans_path)]
    if args.smoke:
        command.append("--smoke")
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"flexbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if proc.returncode != 0:
        log(proc.stderr.rstrip())
        log(f"flexbench: program exited with {proc.returncode}")
        return 1

    ops = [json.loads(line) for line in proc.stdout.splitlines() if line]
    start = next(op for op in ops if op["op"] == "start")
    end = next(op for op in ops if op["op"] == "end")
    counted = [op for op in ops if op["op"] in ("run", "replay")]
    failures = [f for op in counted for f in op["failures"]]
    failed = sum(1 for op in counted if op["failures"])
    for failure in failures:
        log(f"flexbench: FAILED {failure}")

    if args.trace:
        samples = {name: (values, statistics.median(values))
                   for name, values in per_layer(ops).items()}
    else:
        samples = end_to_end(ops, end)
        unscaled = end_to_end(ops, end, scale=False)
    metrics, record_metrics = {}, {}
    for metric in wanted:
        values, value = samples[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        record_metrics[metric["name"]] = dict(summary(values), value=value,
                                              unit=metric["unit"])
        if not args.trace:
            record_metrics[metric["name"]]["unscaled"] = \
                unscaled[metric["name"]][1]

    result = {"correct": not failures, "attempted": len(counted),
              "failed": failed, "metrics": metrics}
    record = {
        "flexbench_record": 1,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "host": {
            "nproc": len(os.sched_getaffinity(0)),
            "shards": start["shards"],
            "flexnet_threads": os.environ.get("FLEXNET_THREADS"),
            "build_type": start["build_type"],
            "compiler": start["compiler"],
            "git_sha": git_sha(),
            "loadavg_start": list(load_start),
            "reference_kernel_s": summary(
                [op["ref_s"] for op in ops if "ref_s" in op]),
        },
        "metrics": record_metrics,
        "failures": failures,
        "result": result,
    }
    print(json.dumps(record))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
