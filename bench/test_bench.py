"""Fast self-test of the benchmark on tiny op lists.

    python3 bench/test_bench.py        (or: python3 -m pytest bench)
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(run.BENCH_DIR)

TINY = {
    "verify_all": (
        {"p": 2, "r": 3, "modulus_poly": [1, 1, 0, 1], "exponents": [1, 3]},
        {"p": 3, "r": 1, "modulus_poly": None, "exponents": [1, 1]},
    ),
    "cli_queries": (
        {"p": 2, "r": 3, "modulus_poly": [1, 1, 0, 1], "exponents": [1, 3]},
        {"p": 5, "r": 1, "modulus_poly": None, "exponents": [1, 3]},
    ),
    "field_scale": (
        {"p": 7, "r": 1, "modulus_poly": None, "exponents": [1]},
        {"p": 2, "r": 2, "modulus_poly": [1, 1, 1], "exponents": [1]},
    ),
}


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


class Expectations(unittest.TestCase):
    def test_worked_example(self):
        config = workloads.VERIFY_CONFIGS[0]
        self.assertEqual(workloads.exponent_classes(config), [[0, 2], [1]])
        self.assertEqual(workloads.quasi_kernel_size(config), 1 + 120 + 10)
        self.assertEqual(workloads.expected_dim(config, (2, 5, 6)), 2)
        self.assertEqual(workloads.expected_dim(config, (0, 5, 0)), 1)

    def test_frobenius_twists_share_a_class(self):
        # 7 * 5 = 35 = 11 mod 24, so 7 and 11 are twists of each other in GF(25)
        config = {"p": 5, "r": 2, "modulus_poly": [2, 0, 1], "exponents": [7, 11, 13]}
        self.assertEqual(workloads.exponent_classes(config), [[0, 1], [2]])

    def test_vector_json_uses_coefficient_arrays(self):
        config = {"p": 3, "r": 2, "exponents": [1]}
        self.assertEqual(workloads.vector_json(config, (7,)), [[1, 2]])


class Runs(unittest.TestCase):
    def test_untraced_metrics_cover_the_spec(self):
        names = [m["name"] for m in bench_spec()["end_to_end"]]
        self.assertEqual(sorted(names), sorted(run.END_TO_END))
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                tally, metrics, units, context = run.measure(
                    workload, 3, 0, configs=TINY[workload]
                )
                self.assertEqual(tally.failures, [])
                self.assertEqual(set(metrics), set(names))
                self.assertTrue(all(v > 0 for v in metrics.values()), metrics)
                self.assertEqual(context["error_rate"], 0)

    def test_traced_metrics_cover_the_spec_and_repeat(self):
        names = [m["name"] for m in bench_spec()["per_layer"]]
        self.assertEqual(sorted(names), sorted(run.PER_LAYER))
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                tally, metrics, units, context = run.measure_traced(
                    workload, 3, configs=TINY[workload]
                )
                self.assertEqual(tally.failures, [])
                self.assertEqual(set(metrics), set(names))
                self.assertEqual(context["count_mismatches"], {})
                self.assertEqual(context["missing_hooks"], [])
                self.assertGreater(metrics["space.add.calls"], 0)

    def test_every_pass_has_the_same_op_keys(self):
        # an op's median latency pools its samples across passes by key
        for workload, (_, configs) in workloads.WORKLOADS.items():
            with self.subTest(workload=workload), tempfile.TemporaryDirectory(
                prefix=".run-", dir=run.BENCH_DIR
            ) as workdir:
                nv, files = run.setup(workload, workdir, configs)
                keys = [
                    sorted(op.key for op in run.pass_ops(nv, workload, 3, i, files, configs))
                    for i in range(2)
                ]
                self.assertEqual(keys[0], keys[1])
                self.assertEqual(len(set(keys[0])), len(keys[0]))

    def test_failed_ops_count_and_the_run_goes_on(self):
        config = TINY["cli_queries"][0]
        wrong = dict(config, exponents=[1, 1])  # one class: "regular"
        with tempfile.TemporaryDirectory(prefix=".run-", dir=run.BENCH_DIR) as workdir:
            nv, files = run.setup("cli_queries", workdir, TINY["cli_queries"])
            ops = run.pass_ops(nv, "cli_queries", 3, 0, files, TINY["cli_queries"])
            info = next(op for op in ops if op.name.startswith("cli_queries/info/GF(2^3)"))
            info.check = workloads.check_cli(wrong, "info")
            ops.append(workloads.Op("raises", lambda: 1 // 0, lambda _: None))
            tally, metrics, units, context = run.measure(
                "cli_queries", 3, 0, configs=TINY["cli_queries"], ops=ops
            )
        self.assertEqual(tally.failed, 2)
        self.assertEqual(tally.attempted, len(ops))
        self.assertAlmostEqual(context["error_rate"], 2 / len(ops))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            run.report("cli_queries", 3, 0, tally, metrics, units, context)
        lines = out.getvalue().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(
            (result["correct"], result["attempted"], result["failed"]),
            (False, len(ops), 2),
        )
        self.assertTrue(any(line.startswith("FAIL cli_queries/info/") for line in lines))


class Contract(unittest.TestCase):
    def test_spec_shape(self):
        spec = bench_spec()
        self.assertEqual(
            set(spec),
            {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        )
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(workloads.WORKLOADS))
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        units = {**run.END_TO_END, **run.PER_LAYER}
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertEqual(m["unit"], units[m["name"]], m["name"])

    def test_without_the_library_it_fails_without_a_result(self):
        with tempfile.TemporaryDirectory(prefix=".run-", dir=run.BENCH_DIR) as bare:
            os.mkdir(os.path.join(bare, "bench"))
            for name in ("run.py", "workloads.py", "layers.py"):
                shutil.copy(os.path.join(run.BENCH_DIR, name), os.path.join(bare, "bench"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "cli_queries",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
