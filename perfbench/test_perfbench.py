#!/usr/bin/env python3
"""Self-tests of the benchmark, in a short mode (--seconds 1).

    python3 perfbench/test_perfbench.py

They build the benchmark program on first use, like run.py, and check
that every named metric is emitted with its unit, that a wrong expected
checksum or result is counted as a failure and never as a pass, that
compare.py flags a synthetic regression, and that the benchmark refuses
to run without the MPCX sources.
"""

import json
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

PKG = Path(__file__).resolve().parent
ROOT = PKG.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


class MetricsEmitted(unittest.TestCase):
    def check_metrics(self, result, group):
        wanted = {m["name"]: m["unit"] for m in SPEC[group]}
        self.assertEqual(set(result["metrics"]), set(wanted))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], wanted[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_end_to_end_metrics_on_every_workload(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            with self.subTest(workload=workload):
                proc, result = run_bench("--workload", workload, "--seed", "7",
                                         "--seconds", "1", "--trace", "0")
                self.assertIsNotNone(result, proc.stderr[-3000:])
                self.assertTrue(result["correct"], proc.stderr[-3000:])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.check_metrics(result, "end_to_end")
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_per_layer_metrics_and_overhead_in_traced_run(self):
        proc, result = run_bench("--workload", "cg_shm", "--seed", "7", "--seconds", "1",
                                 "--trace", "1")
        self.assertIsNotNone(result, proc.stderr[-3000:])
        self.assertTrue(result["correct"], proc.stderr[-3000:])
        self.check_metrics(result, "per_layer")
        self.assertIn("tracing overhead", proc.stderr)


class FailuresCounted(unittest.TestCase):
    def test_wrong_expected_results_are_failures(self):
        for trace in ("0", "1"):
            with self.subTest(trace=trace):
                proc, result = run_bench("--workload", "p2p_tcp", "--seed", "7", "--seconds", "1",
                                         "--trace", trace, "--corrupt-expect")
                self.assertIsNotNone(result, proc.stderr[-3000:])
                self.assertFalse(result["correct"])
                self.assertGreater(result["attempted"], 0)
                # Every verified operation had a wrong expectation.
                self.assertEqual(result["failed"], result["attempted"])


def synthetic_run(workload, seed, start, values, steal=0.0):
    return {"schema": "perfbench-result/1", "workload": workload, "seed": seed, "trace": False,
            "started_unix": start, "failed": 0, "notes": {"host.steal_share": steal},
            "metrics": {name: {"value": v} for name, v in values.items()}}


class CompareTool(unittest.TestCase):
    def write_sets(self, tmp, scale, stolen_change_seeds=()):
        """Ten alternated parent/change pairs with 2% noise; `scale` maps
        metric name -> factor applied to the change side."""
        rng = random.Random(5)
        parent, change = Path(tmp, "parent"), Path(tmp, "change")
        parent.mkdir()
        change.mkdir()
        for i in range(10):
            for side, directory, start in (("p", parent, 2 * i), ("c", change, 2 * i + 1)):
                values = {}
                for m in SPEC["end_to_end"]:
                    v = 100.0 * (1 + rng.uniform(-0.02, 0.02))
                    if side == "c":
                        v *= scale.get(m["name"], 1.0)
                    values[m["name"]] = v
                steal = 0.2 if side == "c" and i in stolen_change_seeds else 0.0
                run = synthetic_run("cg_shm", i, start, values, steal)
                (directory / f"run{i}.json").write_text(json.dumps(run))
        return parent, change

    def compare(self, parent, change, out):
        return subprocess.run([sys.executable, str(PKG / "compare.py"), str(parent), str(change),
                               "--json", str(out)], capture_output=True, text=True, timeout=60)

    def test_flags_synthetic_regression(self):
        with tempfile.TemporaryDirectory() as tmp:
            parent, change = self.write_sets(tmp, {"cg_iter_us_p50": 1.4, "pp_1M_MBps": 0.6})
            out = Path(tmp, "cmp.json")
            proc = self.compare(parent, change, out)
            self.assertEqual(proc.returncode, 1, proc.stdout)
            rows = json.loads(out.read_text())["workloads"]["cg_shm"]
            self.assertEqual(rows["cg_iter_us_p50"]["verdict"], "worse")
            self.assertEqual(rows["pp_1M_MBps"]["verdict"], "worse")
            self.assertEqual(rows["cg_solve_s"]["verdict"], "within_bound")

    def test_resolves_gain_and_passes_unchanged_set(self):
        with tempfile.TemporaryDirectory() as tmp:
            parent, change = self.write_sets(tmp, {"allreduce_64K_us": 0.7})
            out = Path(tmp, "cmp.json")
            proc = self.compare(parent, change, out)
            self.assertEqual(proc.returncode, 0, proc.stdout)
            rows = json.loads(out.read_text())["workloads"]["cg_shm"]
            self.assertEqual(rows["allreduce_64K_us"]["verdict"], "better")
            self.assertEqual(rows["allreduce_64K_us"]["win_fraction"], 1.0)
            self.assertNotIn("worse", {r["verdict"] for r in rows.values()})

    def test_flags_stolen_runs(self):
        with tempfile.TemporaryDirectory() as tmp:
            parent, change = self.write_sets(tmp, {}, stolen_change_seeds=(3, 7))
            out = Path(tmp, "cmp.json")
            proc = self.compare(parent, change, out)
            self.assertEqual(proc.returncode, 0, proc.stdout)
            self.assertIn("warning: host steal", proc.stdout)
            stolen = json.loads(out.read_text())["stolen_runs"]["cg_shm"]
            self.assertEqual(stolen, {"parent": [], "change": [3, 7]})


class Packaging(unittest.TestCase):
    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(PKG, Path(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc, result = run_bench("--workload", "cg_shm", "--seed", "1", "--seconds", "1",
                                     "--trace", "0", cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
