"""Where the tracer hooks into sim1090, and the per-layer metrics it yields.

Every hook replaces a public function at the name its caller looks up, so
that caller's calls are traced; the first entries, for example, trace the
CLI's and ``run_replicated``'s calls to ``engine.run``. A hook whose target
does not exist is skipped and reported, so a later refactor that renames a
function leaves the benchmark running with that layer reading zero.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict

from tracer import layer_times


def _emitted(times, _args):
    return {"traffic.packets": len(times)}


def _collided(hit, _args):
    return {"aloha.packets": int(hit.size), "aloha.collided": int(hit.sum())}


def _tallied(report, _args):
    return {"engine.generated": report.generated_total, "engine.received": report.received_total}


#: (module, attribute, span name, counter) for module-level functions
FUNCTION_HOOKS = (
    ("sim1090.cli", "run", "engine.run", _tallied),
    ("sim1090.engine", "run", "engine.run", _tallied),
    ("sim1090.cli", "run_replicated", "engine.run_replicated", None),
    ("sim1090.engine", "run_replicated", "engine.run_replicated", None),
    ("sim1090.cli", "calibrate_noise_floor", "metrics.calibrate", None),
    ("sim1090.engine", "build_fleet", "scenario.fleet", None),
    ("sim1090.engine", "traffic_rng", "seeding.rng", None),
    ("sim1090.engine", "channel_rng", "seeding.rng", None),
    ("sim1090.engine", "emission_times", "traffic.emission", _emitted),
    ("sim1090.engine", "aircraft_link_state", "channel.link", None),
    ("sim1090.engine", "corruption_probability", "channel.pbad", None),
    ("sim1090.engine", "collision_mask", "aloha.collision", _collided),
    ("sim1090.metrics", "loss_run_histogram", "metrics.loss_runs", None),
    ("sim1090.metrics", "update_probability", "metrics.update", None),
    ("sim1090.engine", "summarize_reports", "engine.report", None),
    ("sim1090.cli", "replicated_to_dict", "engine.report", None),
)

#: (module, class, attribute, span name) for methods, properties and classmethods
CLASS_HOOKS = (
    ("sim1090.engine", "LinkBudget", "from_config", "channel.budget"),
    ("sim1090.engine", "RunReport", "received_ratio", "engine.report"),
    ("sim1090.engine", "RunReport", "to_dict", "engine.report"),
    ("sim1090.engine", "RunReport", "to_json_bytes", "engine.report"),
    ("sim1090.engine", "RunReport", "to_csv", "engine.report"),
)


def install(tracer) -> tuple[list, list[str]]:
    """Install every hook; return the undo list and the hooks not found."""
    undo, missing = [], []
    for module_name, attr, name, count in FUNCTION_HOOKS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(name, fn, count))
        undo.append((module, attr, fn))
    for module_name, class_name, attr, name in CLASS_HOOKS:
        cls = getattr(importlib.import_module(module_name), class_name, None)
        desc = None if cls is None else cls.__dict__.get(attr)
        if desc is None:
            missing.append(f"{module_name}.{class_name}.{attr}")
            continue
        if isinstance(desc, property):
            new = property(tracer.wrap(name, desc.fget))
        elif isinstance(desc, classmethod):
            new = classmethod(tracer.wrap(name, desc.__func__))
        else:
            new = tracer.wrap(name, desc)
        setattr(cls, attr, new)
        undo.append((cls, attr, desc))
    return undo, missing


def uninstall(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def run_balance(spans) -> tuple[float, float, float]:
    """(engine.run total, its self time, time of its direct children)."""
    total, own, _calls = layer_times(spans)
    children = sum(
        end - start
        for _name, start, end, parent, _op in spans
        if parent >= 0 and spans[parent][0] == "engine.run"
    )
    return total.get("engine.run", 0.0), own.get("engine.run", 0.0), children


def layer_metrics(spans, counters, n_commands: int, overheads: list[float]) -> dict[str, tuple]:
    """Per-layer ``(value, unit)`` pairs, each a mean per traced command
    unless it is a ratio.

    ``overheads`` holds, per traced command, its wall time minus that of the
    untraced run of the same command.
    """
    total, own, calls = layer_times(spans)
    evals_in_calibration = sum(
        1
        for name, _start, _end, parent, _op in spans
        if name == "engine.run_replicated" and parent >= 0 and spans[parent][0] == "metrics.calibrate"
    )
    time_of = defaultdict(float, total)

    def per(x: float) -> float:
        return x / n_commands

    def share(part: str, whole: str) -> float:
        return counters[part] / counters[whole] if counters[whole] else 0.0

    return {
        "engine.run_s": (per(time_of["engine.run"]), "s"),
        "engine.run_calls": (per(calls["engine.run"]), "count"),
        "engine.run_self_s": (per(own.get("engine.run", 0.0)), "s"),
        "engine.report_s": (per(time_of["engine.report"]), "s"),
        "engine.received_frac": (share("engine.received", "engine.generated"), "ratio"),
        "cli.self_s": (per(own.get("cli.main", 0.0)), "s"),
        "aloha.collision_s": (per(time_of["aloha.collision"]), "s"),
        "aloha.packets": (per(counters["aloha.packets"]), "count"),
        "aloha.collided_frac": (share("aloha.collided", "aloha.packets"), "ratio"),
        "traffic.emission_s": (per(time_of["traffic.emission"]), "s"),
        "traffic.emission_calls": (per(calls["traffic.emission"]), "count"),
        "traffic.packets": (per(counters["traffic.packets"]), "count"),
        "seeding.rng_s": (per(time_of["seeding.rng"]), "s"),
        "seeding.rng_calls": (per(calls["seeding.rng"]), "count"),
        "scenario.fleet_s": (per(time_of["scenario.fleet"]), "s"),
        "channel.link_s": (
            per(time_of["channel.budget"] + time_of["channel.link"] + time_of["channel.pbad"]), "s"
        ),
        "channel.link_calls": (per(calls["channel.link"]), "count"),
        "channel.pbad_calls": (per(calls["channel.pbad"]), "count"),
        "metrics.calibrate_evals": (per(evals_in_calibration), "count"),
        "metrics.loss_runs_s": (per(time_of["metrics.loss_runs"]), "s"),
        "metrics.update_s": (per(time_of["metrics.update"]), "s"),
        "trace.overhead_s": (statistics.median(overheads), "s"),
    }
