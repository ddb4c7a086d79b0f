"""The benchmark's workloads: the CLI command each runs, the checks its
output must pass, and the number of simulated packets it covers.

One command is one call of ``sim1090.cli.main``. An op is one simulated run
(``run``, ``sweep``) or one calibration evaluation (``calibrate``); failed
checks are counted in ops.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import sys
import traceback
from dataclasses import dataclass

from sim1090.cli import load_preset
from sim1090.metrics import aloha_expected_ratio, calibrate_noise_floor
from sim1090.packets import KIND_ORDER
from sim1090.scenario import ScenarioConfig, build_fleet
from sim1090.seeding import replication_seed, stable_seed, traffic_rng
from sim1090.traffic import emission_times


@dataclass(frozen=True)
class Outcome:
    """What one command did: ops attempted, ops failed, packets covered."""

    ops: int
    failed: int
    packets: int


@functools.lru_cache(maxsize=1024)
def generated_packets(config: ScenarioConfig) -> int:
    """Packets one run of ``config`` generates, from its traffic streams alone.

    Draws each aircraft's timelines from its traffic stream in kind order, as
    the engine does, without the channel, ordering and collision stages.
    Cached: the two commands of a determinism pair share their configs.
    """
    total = 0
    for aircraft in build_fleet(config):
        rng = traffic_rng(config.seed, aircraft.id)
        for kind in KIND_ORDER:
            if kind in config.enabled_kinds:
                total += emission_times(kind, config.duration_s, rng).size
    return total


def _sections(text: str) -> dict[str, list[list[str]]]:
    """Rows of a sectioned sim1090 CSV, by table name, without column headers."""
    tables: dict[str, list[list[str]]] = {}
    rows = None
    for line in text.splitlines():
        if line.startswith("# sim1090 "):
            rows = tables.setdefault(line.split()[2], [])
            header_pending = True
        elif rows is not None and header_pending:
            header_pending = False
        elif rows is not None:
            rows.append(line.split(","))
    return tables


def _digit6(x: float) -> float:
    """One unit in the sixth significant digit of x."""
    return 10.0 ** (math.floor(math.log10(abs(x))) - 5) if x else 1e-6


class Fig7Reps:
    """The largest paper fleet, replicated: ordering and collision resolve."""

    name = "fig7_reps"
    preset = "fig7.scn"
    reps = 10
    nominal_ops = reps

    def argv(self, seed: int, out: str) -> list[str]:
        return ["run", "--scenario", "fig7", "--reps", str(self.reps), "--format", "json",
                "--seed", str(seed), "--out", out]

    def check(self, text: str, seed: int) -> Outcome:
        doc = json.loads(text)
        reps = doc["replications"]
        if doc["n_reps"] != self.reps or len(reps) != self.reps:
            return Outcome(self.reps, self.reps, 0)
        seeds = [row["seed"] for row in reps]
        if seeds != [replication_seed(seed, k) for k in range(self.reps)]:
            return Outcome(self.reps, self.reps, 0)
        ratios = [row["received_ratio"] for row in reps]
        failed = sum(not 0.0 < r < 1.0 for r in ratios)
        summary_mean = doc["summary"]["received_ratio"]["mean"]
        if abs(math.fsum(ratios) / len(ratios) - summary_mean) > _digit6(summary_mean):
            failed = self.reps
        base = load_preset(self.preset)
        packets = sum(generated_packets(base.with_overrides(seed=s)) for s in seeds)
        return Outcome(self.reps, failed, packets)


class DensitySweep:
    """Many small collision-only runs: per-aircraft fixed costs dominate."""

    name = "density_sweep"
    preset = "fig3_50.scn"
    values = (25, 50, 75, 100, 125, 150, 175, 200)
    reps = 10
    nominal_ops = len(values) * reps
    #: acceptance criterion 1: simulated mean within this of the ALOHA prediction
    aloha_tolerance = 0.03

    def argv(self, seed: int, out: str) -> list[str]:
        return ["sweep", "--scenario", "fig3_50", "--param", "n_planes",
                "--values", ",".join(map(str, self.values)), "--reps", str(self.reps),
                "--seed", str(seed), "--out", out]

    def check(self, text: str, seed: int) -> Outcome:
        tables = _sections(text)
        points, summary = tables["sweep-points"], tables["sweep-summary"]
        ops = self.nominal_ops
        expected_points = [(v, rep) for v in self.values for rep in range(self.reps)]
        if [(int(p[1]), int(p[2])) for p in points] != expected_points:
            return Outcome(ops, ops, 0)
        if [int(row[1]) for row in summary] != list(self.values):
            return Outcome(ops, ops, 0)
        base = load_preset(self.preset).with_overrides(seed=seed)
        failed = 0
        previous = math.inf
        for row in summary:
            value, mean = int(row[1]), float(row[3])
            analytic = aloha_expected_ratio(base.with_overrides(n_planes=value))
            if not mean < previous or abs(mean - analytic) > self.aloha_tolerance:
                failed += self.reps
            previous = mean
        packets = 0
        for p in points:
            value, rep, point_seed = int(p[1]), int(p[2]), int(p[3])
            if point_seed != stable_seed(seed, value, rep):
                return Outcome(ops, ops, 0)
            packets += generated_packets(base.with_overrides(n_planes=value, seed=point_seed))
        return Outcome(ops, failed, packets)


class CalibrateFig5:
    """Noise-floor bisection: the same timelines evaluated at many floors."""

    name = "calibrate_fig5"
    preset = "fig5.scn"
    target = 0.4866
    reps = 1
    nominal_ops = 8
    tolerance = 0.005
    bracket = inspect.signature(calibrate_noise_floor).parameters["bracket"].default

    def argv(self, seed: int, out: str) -> list[str]:
        return ["calibrate", "--scenario", "fig5", "--target", str(self.target),
                "--reps", str(self.reps), "--seed", str(seed), "--out", out]

    def check(self, text: str, seed: int) -> Outcome:
        doc = json.loads(text)
        ops = int(doc["iterations"])
        if ops < 1:
            return Outcome(self.nominal_ops, self.nominal_ops, 0)
        quiet, loud = self.bracket
        ok = (
            doc["n_reps"] == self.reps
            and doc["target_ratio"] == self.target
            and abs(doc["achieved_ratio"] - self.target) <= self.tolerance
            and quiet <= doc["noise_floor_dbm"] <= loud
        )
        base = load_preset(self.preset).with_overrides(seed=seed)
        per_eval = sum(
            generated_packets(base.with_overrides(seed=replication_seed(seed, k)))
            for k in range(self.reps)
        )
        return Outcome(ops, 0 if ok else ops, ops * per_eval)


def evaluate(workload, output: bytes | None, seed: int, previous_sha: str | None):
    """Check one command's output; return its Outcome and SHA-256."""
    if output is None:
        return Outcome(workload.nominal_ops, workload.nominal_ops, 0), None
    sha = hashlib.sha256(output).hexdigest()
    try:
        outcome = workload.check(output.decode("utf-8"), seed)
    except (ValueError, KeyError, TypeError, IndexError):  # includes UnicodeDecodeError
        traceback.print_exc()
        return Outcome(workload.nominal_ops, workload.nominal_ops, 0), sha
    if previous_sha is not None and sha != previous_sha:
        print(f"output differs between two runs of seed {seed}", file=sys.stderr)
        outcome = Outcome(outcome.ops, outcome.ops, outcome.packets)
    return outcome, sha


WORKLOADS = {w.name: w for w in (Fig7Reps(), DensitySweep(), CalibrateFig5())}
