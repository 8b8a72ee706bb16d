#!/usr/bin/env python3
"""Compares two sets of flexbench results, one row per workload and metric.

    python3 flexbench/compare.py BASE HEAD

BASE and HEAD are each a file or a directory of files holding the stdout of
flexbench/run.py runs (any other lines are ignored). For every workload and
metric the report gives each side's median and quartiles over its runs, the
change of the medians, and a verdict against the bound in BENCHMARK.json:

  ok          the head median is no worse than the base by more than the bound
  REGRESSED   it is worse by more than the bound
  better      it is better by more than the base's own quartile spread
  unresolved  a side's quartile spread exceeds the bound, so the data cannot
              tell a regression from noise (unless every head run beats every
              base run, which reads "better (all runs)")

Per-layer metrics have no bound and get no verdict. Exits 1 if any metric
regressed or is unresolved.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_records(path):
    path = Path(path)
    files = sorted(p for p in path.rglob("*") if p.is_file()) \
        if path.is_dir() else [path]
    records = []
    for file in files:
        for line in file.read_text(errors="replace").splitlines():
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(obj, dict) and obj.get("flexbench_record"):
                records.append(obj)
    return records


def quartiles(values):
    """Median and quartiles as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(q1, med, q3):
    return (q3 - q1) / med if med else float("inf")


def verdict(metric, base, head):
    bound = metric.get("bound")
    if bound is None:
        return "-"
    b_q1, b_med, b_q3 = quartiles(base)
    h_q1, h_med, h_q3 = quartiles(head)
    lower = metric["better"] == "lower"
    worse = (h_med - b_med) / b_med if lower else (b_med - h_med) / b_med
    all_better = (max(head) < min(base)) if lower else (min(head) > max(base))
    if spread(b_q1, b_med, b_q3) > bound or spread(h_q1, h_med, h_q3) > bound:
        return "better (all runs)" if all_better else "unresolved"
    if worse > bound:
        return "REGRESSED"
    if -worse * b_med > (b_q3 - b_q1):
        return "better"
    return "ok"


def group(records):
    """{workload: {metric: [run values]}}, plus the distinct hosts seen."""
    out, hosts = {}, []
    for rec in records:
        if rec.get("smoke"):
            continue
        per = out.setdefault(rec["workload"], {})
        for name, stats in rec["metrics"].items():
            per.setdefault(name, []).append(stats["value"])
        host = {k: v for k, v in rec["host"].items()
                if k not in ("loadavg_start", "reference_kernel_s")}
        if host not in hosts:
            hosts.append(host)
    return out, hosts


def fmt(values):
    q1, med, q3 = quartiles(values)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    metrics = spec["end_to_end"] + spec["per_layer"]
    base, base_hosts = group(load_records(argv[1]))
    head, head_hosts = group(load_records(argv[2]))
    for side, hosts in (("base", base_hosts), ("head", head_hosts)):
        for host in hosts:
            print(f"{side} host: {json.dumps(host)}")

    bad = 0
    header = f"{'workload':<20} {'metric':<26} {'unit':<6} " \
             f"{'base median [q1, q3]':<40} {'head median [q1, q3]':<40} " \
             f"{'change':>8}  verdict"
    print(header)
    print("-" * len(header))
    for workload in sorted(set(base) | set(head)):
        for metric in metrics:
            name = metric["name"]
            b = base.get(workload, {}).get(name)
            h = head.get(workload, {}).get(name)
            if not b or not h:
                continue
            b_med, h_med = quartiles(b)[1], quartiles(h)[1]
            change = f"{100 * (h_med - b_med) / b_med:+.1f}%" if b_med else "n/a"
            v = verdict(metric, b, h)
            bad += v in ("REGRESSED", "unresolved")
            print(f"{workload:<20} {name:<26} {metric['unit']:<6} "
                  f"{fmt(b):<40} {fmt(h):<40} {change:>8}  {v}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
