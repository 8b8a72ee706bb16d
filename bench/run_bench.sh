#!/usr/bin/env bash
# Runs the micro-benchmark suite and writes BENCH_micro_core.json at the repo
# root: a flat, fixed-schema summary (one record per benchmark) for tracking
# performance across commits. Every benchmark runs five times and its record
# holds the median repetition's times, so one noisy repetition cannot move
# the summary.
#
#   bench/run_bench.sh [BUILD_DIR]      # default build dir: ./build
#
# Schema: {"git_sha": ..., "metadata": {"hardware_concurrency",
# "worker_threads", "flexnet_threads", "sharded_shard_counts",
# "repetitions", "statistic"}, "host": {"cpu_model", "num_cpus",
# "mhz_per_cpu", "load_avg", "library_build_type"}, "benchmarks": [{"name",
# "cpu_time_ns", "real_time_ns", "iterations"}, ...]}; "iterations" is the
# iteration count of one repetition. git_sha gains a "-dirty" suffix when
# tracked files other than the summary differ from HEAD. Requires an
# already-built bench_micro_core.
#
# metadata.worker_threads is the thread count the sharded engine would use on
# this host (FLEXNET_THREADS when set, else hardware concurrency);
# sharded_shard_counts lists the shard counts the BM_NetworkStepSharded
# family actually exercised. compare_bench.py uses hardware_concurrency to
# decide whether the sharded scaling gate is meaningful on this machine.
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-${repo_root}/build}"
bench_bin="${build_dir}/bench/bench_micro_core"

if [[ ! -x "${bench_bin}" ]]; then
  echo "error: ${bench_bin} not found; build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j --target bench_micro_core" >&2
  exit 1
fi

raw_json="$(mktemp)"
trap 'rm -f "${raw_json}"' EXIT

# The console shows only the aggregates; the JSON file keeps every
# repetition too, for its iteration count.
"${bench_bin}" --benchmark_repetitions=5 \
  --benchmark_display_aggregates_only=true \
  --benchmark_out="${raw_json}" --benchmark_out_format=json >&2

git_sha="$(git -C "${repo_root}" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
if [[ "${git_sha}" != unknown ]] && ! git -C "${repo_root}" diff --quiet HEAD \
    -- . ':(exclude)BENCH_micro_core.json'; then
  git_sha="${git_sha}-dirty"
fi
hw_threads="$(nproc 2>/dev/null || echo 1)"

python3 - "${raw_json}" "${git_sha}" "${hw_threads}" "${FLEXNET_THREADS:-}" \
  > "${repo_root}/BENCH_micro_core.json" <<'PY'
import json
import re
import sys

with open(sys.argv[1]) as f:
    raw = json.load(f)
benchmarks = raw.get("benchmarks", [])

# google-benchmark sizes the first repetition and reuses its iteration count
# for the rest; an aggregate's "iterations" is the repetition count instead.
iterations = {}
for b in benchmarks:
    if b.get("run_type") == "iteration":
        iterations.setdefault(b["run_name"], b["iterations"])

records = []
shard_counts = []
repetitions = 0
for b in benchmarks:
    # One record per benchmark: its median repetition.
    if b.get("aggregate_name") != "median":
        continue
    name = b["run_name"]
    repetitions = b["iterations"]
    # google-benchmark reports cpu_time/real_time in time_unit (ns default).
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[b.get("time_unit", "ns")]
    records.append({
        "name": name,
        "cpu_time_ns": b["cpu_time"] * scale,
        "real_time_ns": b["real_time"] * scale,
        "iterations": iterations[name],
    })
    m = re.match(r"BM_NetworkStepSharded/(\d+)", name)
    if m:
        shard_counts.append(int(m.group(1)))

hw = int(sys.argv[3])
flexnet_threads = int(sys.argv[4]) if sys.argv[4].isdigit() else None
metadata = {
    "hardware_concurrency": hw,
    "worker_threads": flexnet_threads if flexnet_threads else hw,
    "flexnet_threads": flexnet_threads,
    "sharded_shard_counts": sorted(shard_counts),
    "repetitions": repetitions,
    "statistic": "median",
}
context = raw.get("context", {})
cpu_model = None
try:
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
except OSError:
    pass
host = {
    "cpu_model": cpu_model,
    "num_cpus": context.get("num_cpus"),
    "mhz_per_cpu": context.get("mhz_per_cpu"),
    "load_avg": context.get("load_avg"),
    "library_build_type": context.get("library_build_type"),
}
json.dump({"git_sha": sys.argv[2], "metadata": metadata, "host": host,
           "benchmarks": records}, sys.stdout, indent=2)
sys.stdout.write("\n")
PY

echo "wrote ${repo_root}/BENCH_micro_core.json (${git_sha})" >&2
