"""The benchmark's tracer must find every sim1090 name it hooks.

perfbench/layers.py wraps sim1090 functions and methods by name and skips,
with a warning, any name that no longer exists, so a rename would leave that
benchmark layer reading zero. These tests load the benchmark's own modules by
file path and fail on any missing hook, on a calibration whose evaluations
the traced layer does not count, or on a packet count that differs from the
engine's.
"""

import importlib.util
import json
import sys
from pathlib import Path

from sim1090.channel import LinkBudget, aircraft_link_state
from sim1090.cli import main
from sim1090.engine import run
from sim1090.packets import PacketKind
from sim1090.scenario import ScenarioConfig, build_fleet

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name, monkeypatch):
    # registered under its name for the test's duration: layers imports tracer
    # by name, and a dataclass looks its module up in sys.modules
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def load_tracing(monkeypatch):
    return load("tracer", monkeypatch), load("layers", monkeypatch)


def test_every_trace_hook_is_found(monkeypatch):
    tracer, layers = load_tracing(monkeypatch)
    undo, missing = layers.install(tracer.Tracer())
    try:
        assert missing == []
    finally:
        layers.uninstall(undo)


def test_calibrate_evaluations_are_counted(monkeypatch, tmp_path):
    # the calibration looks run_replicated up in sim1090.engine at call time,
    # which is where the benchmark hooks it
    tracer, layers = load_tracing(monkeypatch)
    scenario, out = tmp_path / "tiny.scn", tmp_path / "cal.json"
    scenario.write_text("n_planes = 4\nn_uavs = 2\nduration_s = 30\nseed = 3\n")
    trace = tracer.Tracer()
    undo, _missing = layers.install(trace)
    try:
        argv = ["calibrate", "--scenario", str(scenario), "--target", "0.7", "--reps", "1"]
        assert main([*argv, "--out", str(out)]) == 0
    finally:
        layers.uninstall(undo)
    evaluations = json.loads(out.read_text())["iterations"]
    assert evaluations > 2
    metrics = layers.layer_metrics(trace.spans, trace.counters, 1, [0.0])
    assert metrics["metrics.calibrate_evals"] == (evaluations, "count")


def test_generated_packets_equals_engine_count(monkeypatch):
    # the benchmark re-derives each aircraft's timelines from its traffic
    # stream, keyed by the fleet's id field; UAVs, a gated aircraft and a
    # disabled kind are the cases where a wrong id or kind order would show
    workloads = load("workloads", monkeypatch)
    cfg = ScenarioConfig(
        n_planes=4, n_uavs=2, duration_s=30.0, seed=3, sensitivity_dbm=-78.0,
        enabled_kinds=frozenset(PacketKind) - {PacketKind.VEL},
    )
    fleet = build_fleet(cfg)
    gated = aircraft_link_state(fleet.distance_km, fleet.power_dbm, LinkBudget.from_config(cfg)).below_sensitivity
    assert 0 < gated.sum() < len(fleet)
    assert workloads.generated_packets(cfg) == run(cfg).generated_total
