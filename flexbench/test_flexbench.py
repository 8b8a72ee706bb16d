#!/usr/bin/env python3
"""Self-tests of the benchmark: python3 flexbench/test_flexbench.py

A smoke run of every workload, traced and untraced, must pass every check and
print every metric BENCHMARK.json names. The negative cases show the checks
bite: with detection effectively off the knot check fails, and a capture with
one flipped bit fails replay. The comparison report must flag a metric whose
spread exceeds its bound as unresolved.
"""

import json
import shutil
import struct
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import compare  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args):
    """Runs flexbench/run.py; returns (record, result) from its last lines."""
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), *args],
        capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


class Smoke(unittest.TestCase):
    def test_every_workload_passes_and_prints_every_metric(self):
        for workload in run.WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    record, result = bench(
                        "--workload", workload, "--seed", "5", "--seconds",
                        "1", "--trace", str(trace), "--smoke")
                    self.assertEqual(record["failures"], [])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]),
                                     {m["name"] for m in SPEC[key]})
                    host = record["host"]
                    for field in ("nproc", "shards", "flexnet_threads",
                                  "build_type", "compiler", "git_sha",
                                  "loadavg_start", "reference_kernel_s"):
                        self.assertIn(field, host)


class Scaling(unittest.TestCase):
    def test_times_scale_by_the_reference_kernel(self):
        # The host ran the kernel at half speed before the first operation and
        # at full speed before the second: both come out 1 s on the reference
        # host, and unscaled they stay as measured.
        ref = run.REFERENCE_KERNEL_S
        ops = [{"op": "run", "traced": False, "ref_s": 2 * ref,
                "setup_s": 0.2, "wall_s": 2.0, "cpu_s": 2.0, "cycles": 100},
               {"op": "run", "traced": False, "ref_s": ref,
                "setup_s": 0.1, "wall_s": 1.0, "cpu_s": 1.0, "cycles": 100}]
        end = {"peak_rss_kb": 2048}
        scaled = run.end_to_end(ops, end)
        self.assertAlmostEqual(scaled["wall_s"][1], 1.0)
        self.assertAlmostEqual(scaled["cpu_s"][1], 1.0)
        self.assertAlmostEqual(scaled["setup_s"][1], 0.1)
        self.assertAlmostEqual(scaled["cycles_per_s"][1], 200 / 1.8)
        self.assertAlmostEqual(scaled["peak_rss_mb"][1], 2.0)
        unscaled = run.end_to_end(ops, end, scale=False)
        self.assertAlmostEqual(unscaled["wall_s"][1], 1.5)
        self.assertAlmostEqual(unscaled["cycles_per_s"][1], 200 / 2.7)


class ChecksBite(unittest.TestCase):
    def test_detection_off_fails_the_knot_check(self):
        binary = run.build()
        work = run.ROOT / ".bench_build" / "test-detection-off"
        shutil.rmtree(work, ignore_errors=True)
        try:
            proc = subprocess.run(
                [str(binary), "run", "--workload", "paper-16x2-sat",
                 "--seed", "5", "--seconds", "0", "--trace", "0", "--smoke",
                 "--work-dir", str(work), "--interval", "1000000000"],
                check=True, capture_output=True, text=True, timeout=300)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        ops = [json.loads(line) for line in proc.stdout.splitlines() if line]
        runs = [op for op in ops if op["op"] == "run"]
        self.assertEqual(len(runs), 1)
        self.assertTrue(any(f.startswith("knots:")
                            for f in runs[0]["failures"]))

    def test_bit_flipped_capture_fails_replay(self):
        binary = run.build()
        work = run.ROOT / ".bench_build" / "test-captures"
        shutil.rmtree(work, ignore_errors=True)
        try:
            subprocess.run(
                [str(binary), "run", "--workload", "burst-32x3-capture",
                 "--seed", "5", "--seconds", "0", "--trace", "0", "--smoke",
                 "--work-dir", str(work)],
                check=True, capture_output=True, timeout=300)
            capture = sorted((work / "corpus").glob("knot-*.snap"))[0]
            replay = [str(binary), "replay"]
            self.assertEqual(subprocess.run(replay + [str(capture)],
                                            capture_output=True).returncode, 0)

            # The file name ends in the knot's canonical hash, which the
            # capture also stores (little-endian u64); flip one bit of it.
            data = bytearray(capture.read_bytes())
            stored = struct.pack("<Q", int(capture.stem.rsplit("-", 1)[1], 16))
            at = data.find(stored)
            self.assertGreaterEqual(at, 0)
            data[at] ^= 0x01
            flipped = work / "flipped.snap"
            flipped.write_bytes(bytes(data))
            proc = subprocess.run(replay + [str(flipped)],
                                  capture_output=True, text=True)
            self.assertEqual(proc.returncode, 1)
            self.assertFalse(json.loads(proc.stdout.splitlines()[-1])["matches"])
        finally:
            shutil.rmtree(work, ignore_errors=True)


class Compare(unittest.TestCase):
    WALL = next(m for m in SPEC["end_to_end"] if m["name"] == "wall_s")

    def test_verdicts(self):
        steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
        slower = [v * 1.5 for v in steady]
        noisy = [0.5, 1.5, 0.6, 1.4, 0.7, 1.3, 0.8, 1.2, 0.9, 1.1]
        self.assertEqual(compare.verdict(self.WALL, steady, steady), "ok")
        self.assertEqual(compare.verdict(self.WALL, steady, slower), "REGRESSED")
        self.assertEqual(compare.verdict(self.WALL, slower, steady), "better")
        self.assertEqual(compare.verdict(self.WALL, steady, noisy), "unresolved")


if __name__ == "__main__":
    unittest.main()
