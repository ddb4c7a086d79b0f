"""The benchmark's tracer must find every sim1090 name it hooks.

perfbench/layers.py wraps sim1090 functions and methods by name and skips,
with a warning, any name that no longer exists, so a rename would leave that
benchmark layer reading zero. This test loads the benchmark's own modules by
file path and fails on any missing hook.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_hook_is_found(monkeypatch):
    tracer = load("tracer")
    monkeypatch.setitem(sys.modules, "tracer", tracer)  # layers imports it by name
    layers = load("layers")
    undo, missing = layers.install(tracer.Tracer())
    try:
        assert missing == []
    finally:
        layers.uninstall(undo)
