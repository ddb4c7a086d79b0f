"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks that the tracer's self time is a span's duration minus its child
spans, that real outputs pass the workload checks while tampered ones count
as failed ops, and that the untimed packet count matches the engine's. It
runs each workload's command once, about 15 s in all.
"""

import json
import sys
import tempfile
import unittest
from pathlib import Path

import run  # sets the single-thread environment and locates the sources

sys.path.insert(0, str(run.SRC))

import sim1090.cli as cli  # noqa: E402
from sim1090.cli import load_preset  # noqa: E402
from sim1090.engine import run as simulate  # noqa: E402
from tracer import Tracer, layer_times  # noqa: E402
from workloads import WORKLOADS, evaluate, generated_packets  # noqa: E402


class SelfTime(unittest.TestCase):
    def test_synthetic_spans(self):
        spans = [
            ("cli.main", 0.0, 10.0, -1, 0),
            ("engine.run", 1.0, 6.0, 0, 0),
            ("traffic.emission", 2.0, 3.0, 1, 0),
            ("aloha.collision", 4.0, 4.5, 1, 0),
            ("engine.run", 7.0, 9.0, 0, 0),
            ("engine.report", 9.0, 9.5, 0, 0),
            ("engine.report", 9.1, 9.2, 5, 0),
        ]
        total, own, calls = layer_times(spans)
        self.assertEqual(total["engine.run"], 7.0)
        self.assertEqual(own["engine.run"], 5.5)
        self.assertEqual(calls["engine.run"], 2)
        self.assertEqual(own["cli.main"], 2.5)
        # a nested span of the same layer is not counted twice
        self.assertEqual(total["engine.report"], 0.5)
        self.assertEqual(calls["engine.report"], 2)

    def test_wrapped_calls_nest(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda x: [x] * 3, count=lambda r, _a: {"items": len(r)})
        outer = tracer.wrap("outer", lambda: inner(1) + inner(2))
        with tracer.span("root"):
            self.assertEqual(outer(), [1, 1, 1, 2, 2, 2])
        names = [(s[0], s[3]) for s in tracer.spans]
        self.assertEqual(names, [("root", -1), ("outer", 0), ("inner", 1), ("inner", 1)])
        self.assertEqual(tracer.counters["items"], 6)
        total, own, _ = layer_times(tracer.spans)
        self.assertAlmostEqual(own["outer"] + total["inner"], total["outer"], places=12)


class Checks(unittest.TestCase):
    seed = 7

    @classmethod
    def setUpClass(cls):
        cls.outputs = {}
        run.OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
            for name, workload in WORKLOADS.items():
                out = Path(tmp) / name
                _seconds, output = run.run_command(cli, workload, cls.seed, out, None)
                cls.outputs[name] = output

    def outcome(self, name, text, previous_sha=None):
        return evaluate(WORKLOADS[name], text.encode(), self.seed, previous_sha)[0]

    def test_real_outputs_pass(self):
        for name, output in self.outputs.items():
            outcome, sha = evaluate(WORKLOADS[name], output, self.seed, None)
            self.assertEqual(outcome.failed, 0, name)
            self.assertGreater(outcome.packets, 0, name)
            again, _ = evaluate(WORKLOADS[name], output, self.seed, sha)
            self.assertEqual(again.failed, 0, name)

    def test_changed_output_fails_determinism(self):
        text = self.outputs["calibrate_fig5"].decode()
        outcome = self.outcome("calibrate_fig5", text, previous_sha="0" * 64)
        self.assertEqual(outcome.failed, outcome.ops)

    def test_tampered_replication_ratio(self):
        doc = json.loads(self.outputs["fig7_reps"])
        doc["replications"][3]["received_ratio"] = 1.5
        self.assertGreaterEqual(self.outcome("fig7_reps", json.dumps(doc)).failed, 1)

    def test_tampered_summary_mean(self):
        doc = json.loads(self.outputs["fig7_reps"])
        doc["summary"]["received_ratio"]["mean"] += 1e-4
        self.assertEqual(self.outcome("fig7_reps", json.dumps(doc)).failed, 10)

    def sweep_summary(self):
        lines = self.outputs["density_sweep"].decode().splitlines()
        rows = {int(line.split(",")[1]): i for i, line in enumerate(lines)
                if line.startswith("n_planes,") and line.split(",")[2] == "10"}
        return lines, rows

    def test_tampered_sweep_order(self):
        lines, rows = self.sweep_summary()
        a, b = lines[rows[25]].split(","), lines[rows[50]].split(",")
        a[3], b[3] = b[3], a[3]  # the 50-plane mean now exceeds the 25-plane one
        lines[rows[25]], lines[rows[50]] = ",".join(a), ",".join(b)
        self.assertEqual(self.outcome("density_sweep", "\n".join(lines) + "\n").failed, 10)

    def test_tampered_sweep_mean(self):
        lines, rows = self.sweep_summary()
        fields = lines[rows[200]].split(",")
        fields[3] = str(float(fields[3]) - 0.05)  # still the lowest, but off the ALOHA curve
        lines[rows[200]] = ",".join(fields)
        self.assertEqual(self.outcome("density_sweep", "\n".join(lines) + "\n").failed, 10)

    def test_truncated_sweep(self):
        text = self.outputs["density_sweep"].decode()
        outcome = self.outcome("density_sweep", text[: len(text) // 2])
        self.assertEqual(outcome.failed, outcome.ops)

    def test_tampered_calibration(self):
        doc = json.loads(self.outputs["calibrate_fig5"])
        doc["achieved_ratio"] = 0.45
        outcome = self.outcome("calibrate_fig5", json.dumps(doc))
        self.assertEqual(outcome.failed, outcome.ops)
        doc = json.loads(self.outputs["calibrate_fig5"])
        doc["noise_floor_dbm"] = -130.0
        outcome = self.outcome("calibrate_fig5", json.dumps(doc))
        self.assertEqual(outcome.failed, outcome.ops)

    def test_workload_names(self):
        self.assertEqual(set(run.WORKLOAD_NAMES), set(WORKLOADS))

    def test_missing_output_fails(self):
        outcome, sha = evaluate(WORKLOADS["fig7_reps"], None, self.seed, None)
        self.assertEqual((outcome.failed, sha), (10, None))


class PacketCount(unittest.TestCase):
    def test_matches_engine(self):
        for preset, seed in (("fig3_50.scn", 3), ("fig7.scn", 4)):
            config = load_preset(preset).with_overrides(seed=seed, duration_s=20.0)
            self.assertEqual(generated_packets(config), simulate(config).generated_total)


if __name__ == "__main__":
    unittest.main()
