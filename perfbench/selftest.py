"""Self-tests of the benchmark, on tiny smoke inputs.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("swq-gp", "swq-baselines", "abilene-online")


def bench(*args, seed=1, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, "--seed", str(seed), "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stored_reference():
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)


def worker(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), "--seed", "1",
                           "--seconds", "1", "--smoke", *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class MetricsTest(unittest.TestCase):
    def test_every_metric_has_its_unit(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[group]}
            for name in WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    out = result(bench("--workload", name, "--trace", str(trace), "--smoke"))
                    self.assertTrue(out["correct"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 1)
                    got = {k: v["unit"] for k, v in out["metrics"].items()}
                    self.assertEqual(got, want)
                    for metric in out["metrics"].values():
                        self.assertIsInstance(metric["value"], float)


class FailureTest(unittest.TestCase):
    def run_with_reference(self, workload, edit, seed=1):
        refs = stored_reference()
        edit(refs)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "reference.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(refs, fh)
            return result(bench("--workload", workload, "--trace", "0", "--smoke",
                                "--reference", path, seed=seed))

    def test_wrong_gp_reference_is_a_failure(self):
        def lower(refs):
            refs["panels"]["abilene/1"]["T"] *= 1 - 1e-6
        out = self.run_with_reference("swq-gp", lower)
        self.assertFalse(out["correct"])
        self.assertGreaterEqual(out["failed"], 1)

    def test_wrong_oracle_reference_is_a_failure(self):
        def raise_(refs):
            refs["panels"]["abilene/1"]["T"] *= 1 + 1e-7
        out = self.run_with_reference("swq-baselines", raise_)
        self.assertFalse(out["correct"])
        self.assertGreaterEqual(out["failed"], 1)

    def test_wrong_event_reference_is_a_failure(self):
        def lower(refs):
            refs["online"]["events"]["1"][0] *= 1 - 1e-6
        # a seed past the stored traces runs trace seed % (number of traces)
        for seed in (1, 1 + len(stored_reference()["online"]["events"])):
            with self.subTest(seed=seed):
                out = self.run_with_reference("abilene-online", lower, seed=seed)
                self.assertFalse(out["correct"])
                self.assertGreaterEqual(out["failed"], 1)


class TraceTest(unittest.TestCase):
    def test_self_times_sum_to_traced_wall(self):
        out = worker("--workload", "abilene-online", "--trace", "1")
        layers = out["layers"]
        spans = sum(layers["self_s"].values())
        wall = sum(out["round_s"])
        # self times partition the time inside outermost spans ...
        self.assertAlmostEqual(spans, layers["outer_s"], delta=1e-6 * wall)
        # ... which lie inside the rounds; the rest is untraced harness time
        remainder = wall - layers["outer_s"]
        self.assertGreaterEqual(remainder, 0.0)
        self.assertLess(remainder, 0.2 * wall)
        self.assertTrue(all(v >= 0 for v in layers["self_s"].values()))

    def test_layer_split(self):
        """GP layers dominate swq-gp; oracle layers dominate swq-baselines."""
        def share(out, modules):
            self_s = out["layers"]["self_s"]
            return sum(v for k, v in self_s.items()
                       if k.split(".")[0] in modules) / sum(self_s.values())
        gp_layers, oracle_layers = ("flows", "marginals", "gp"), ("oracle",)
        gp = worker("--workload", "swq-gp", "--trace", "1")
        base = worker("--workload", "swq-baselines", "--trace", "1")
        self.assertGreater(share(gp, gp_layers), 0.5)
        self.assertGreater(share(base, oracle_layers), 0.5)
        self.assertGreater(share(gp, gp_layers), share(base, gp_layers))

    def test_absent_layer_is_reported(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        sys.path.insert(0, HERE)
        import chainflow  # noqa: F401
        import tracer
        t = tracer.Tracer()
        t.install({"flows.gone": ("chainflow.flows", "no_such_function")})
        self.assertEqual(t.absent, ["flows.gone"])


class CheckoutTest(unittest.TestCase):
    def test_fails_without_the_program(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "swq-gp", "--trace", "0", cwd=tmp,
                         script=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
