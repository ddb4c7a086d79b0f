"""The benchmark's tracer must find every sim1090 name it hooks.

perfbench/layers.py wraps sim1090 functions and methods by name and skips,
with a warning, any name that no longer exists, so a rename would leave that
benchmark layer reading zero. These tests load the benchmark's own modules by
file path and fail on any missing hook, on a calibration whose evaluations
the traced layer does not count, on a packet count that differs from the
engine's, or on a traced command whose packet counters disagree.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from sim1090.channel import LinkBudget, aircraft_link_state
from sim1090.cli import main
from sim1090.engine import run
from sim1090.packets import PacketKind
from sim1090.scenario import ScenarioConfig, build_fleet, load_scenario
from sim1090.seeding import replication_seed, stable_seed

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


TINY_SCENARIO = "n_planes = 4\nn_uavs = 2\nduration_s = 30\nseed = 3\n"
SWEEP_VALUES = (3, 5)


def configs_run_by(command, base):
    """The configs of the runs that one tiny command makes, in one evaluation."""
    if command == "sweep":
        return [base.with_overrides(n_planes=v, seed=stable_seed(base.seed, v, rep))
                for v in SWEEP_VALUES for rep in range(2)]
    reps = 2 if command == "run" else 1
    return [base.with_overrides(seed=replication_seed(base.seed, k)) for k in range(reps)]


@pytest.mark.parametrize("argv", [
    ["run", "--reps", "2"],
    ["sweep", "--param", "n_planes", "--values", ",".join(map(str, SWEEP_VALUES)), "--reps", "2"],
    ["calibrate", "--target", "0.7", "--reps", "1"],
], ids=["run", "sweep", "calibrate"])
def test_traced_packet_counts_agree(monkeypatch, tmp_path, argv):
    # a traced benchmark run is correct only if the packets drawn by traced
    # emission_times calls, those tallied by traced engine.run calls and those
    # the benchmark re-derives for the command's runs are one number
    # (perfbench/run.py::per_layer); an evaluation that skips either hooked
    # call breaks it even when its output is right
    workloads = load("workloads", monkeypatch)
    tracer, layers = load_tracing(monkeypatch)
    scenario, out = tmp_path / "tiny.scn", tmp_path / "out"
    scenario.write_text(TINY_SCENARIO)
    trace = tracer.Tracer()
    undo, missing = layers.install(trace)
    try:
        assert main([*argv, "--scenario", str(scenario), "--out", str(out)]) == 0
    finally:
        layers.uninstall(undo)
    assert missing == []
    command = argv[0]
    evaluations = json.loads(out.read_text())["iterations"] if command == "calibrate" else 1
    configs = configs_run_by(command, load_scenario(scenario))
    expected = evaluations * sum(workloads.generated_packets(cfg) for cfg in configs)
    assert expected > 0
    assert trace.counters["traffic.packets"] == trace.counters["engine.generated"] == expected
