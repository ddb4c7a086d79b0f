"""Every report sim1090 writes, as JSON and as sectioned CSV.

Numbers are rounded to 6 significant digits; an undefined number is JSON
null and an empty CSV field. A CSV document is a run of sections, each a
``# sim1090 <name> v1`` line, a column line and its rows. Where a table
appears in both formats, one row builder feeds the JSON list and the CSV
section, so the two cannot drift.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import TYPE_CHECKING

import numpy as np

from .aloha import Verdict
from .frames import AirframeKind
from .packets import KIND_ORDER
from .scenario import CLASSES

if TYPE_CHECKING:
    from .engine import ReplicationResult, RunReport
    from .metrics import CalibrationResult
    from .scenario import ScenarioConfig

SCHEMA_RUN = "sim1090/run-report/v2"
SCHEMA_REPLICATED = "sim1090/replicated-report/v1"
SCHEMA_CALIBRATION = "sim1090/calibration/v1"

#: a tally's columns: its total, then one count per verdict in Verdict order
VERDICT_COLUMNS = ("generated", *(str(v) for v in Verdict))
DISTANCE_BIN_COLUMNS = (
    "class", "lo_km", "hi_km", "center_km", "n_aircraft", "generated", "received", "received_ratio"
)
REPLICATION_COLUMNS = ("rep", "seed", "received_ratio", "update_probability")


def fmt6(x: float | None) -> float | None:
    """Round to 6 significant digits for stable, diffable output; None stays None."""
    return None if x is None else float(f"{x:.6g}")


def _cell(value) -> str:
    # a float to 6 significant digits, an undefined value as an empty field
    if value is None:
        return ""
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def csv_text(sections) -> str:
    """One CSV document from (name, columns, rows) sections."""
    lines = []
    for name, columns, rows in sections:
        lines += [f"# sim1090 {name} v1", ",".join(columns)]
        lines += [",".join(_cell(value) for value in row) for row in rows]
    return "\n".join(lines) + "\n"


def json_text(doc: dict) -> str:
    """A document as written to a file or stdout: sorted keys, indent 2."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def json_bytes(doc: dict) -> bytes:
    """Compact sorted ASCII JSON."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")


# --- one run ---


def verdict_rows(counts) -> list:
    """A count array whose last axis is the verdict as nested lists of
    VERDICT_COLUMNS rows: each tally with its total prepended."""
    return np.concatenate((counts.sum(axis=-1, keepdims=True), counts), axis=-1).tolist()


def distance_bin_rows(report: RunReport) -> list[tuple]:
    return [
        (str(b.aircraft_class), fmt6(b.lo_km), fmt6(b.hi_km), fmt6(b.center_km),
         b.n_aircraft, b.generated, b.received, fmt6(b.ratio))
        for b in report.distance_bins()
    ]


def run_dict(report: RunReport) -> dict:
    cfg, up = report.config, report.update
    kinds = [k.value for k in KIND_ORDER if k in cfg.enabled_kinds]
    return {
        "schema": SCHEMA_RUN,
        "seed": cfg.seed,
        "config": {**asdict(cfg), "enabled_kinds": kinds},
        "generated": report.generated_total,
        "received": report.received_total,
        "received_ratio": fmt6(report.received_ratio),
        "verdict_totals": dict(zip(VERDICT_COLUMNS[1:], report.counts.sum(axis=(0, 1)).tolist())),
        "per_class": {str(cls): fmt6(report.class_ratio(cls)) for cls in AirframeKind},
        "per_aircraft": [
            {"id": i, "class": str(CLASSES[kind]), "distance_km": fmt6(d), **dict(zip(VERDICT_COLUMNS, row))}
            for (i, kind, d, _power), row in zip(report.fleet.tolist(), verdict_rows(report.counts.sum(axis=1)))
        ],
        "tracked_aircraft": cfg.tracked_aircraft,
        "pos_loss_runs": {str(k): v for k, v in sorted(report.pos_loss_runs.items())},
        "update_probability": None if up is None else {
            **asdict(up), "deadline_s": fmt6(up.deadline_s), "probability": fmt6(up.probability)
        },
        "distance_bins": [dict(zip(DISTANCE_BIN_COLUMNS, r)) for r in distance_bin_rows(report)],
    }


def run_csv(report: RunReport) -> str:
    doc = run_dict(report)
    summary = [
        *((key, doc[key]) for key in ("seed", "generated", "received", "received_ratio")),
        *doc["verdict_totals"].items(),
        *((f"{cls}_received_ratio", ratio) for cls, ratio in doc["per_class"].items()),
    ]
    if doc["update_probability"] is not None:
        summary += [
            (f"update_{key}", doc["update_probability"][key])
            for key in ("probability", "window_k", "failed_windows", "total_windows")
        ]
    outcomes = [
        (a["id"], a["class"], a["distance_km"], str(kind), *row)
        for a, cells in zip(doc["per_aircraft"], verdict_rows(report.counts))
        for kind, row in zip(KIND_ORDER, cells)
        if row[0]
    ]
    return csv_text([
        ("run-summary", ("key", "value"), summary),
        ("aircraft-outcomes", ("aircraft_id", "class", "distance_km", "kind", *VERDICT_COLUMNS),
         outcomes),
        ("pos-loss-runs", ("consecutive_losses", "occurrences"), doc["pos_loss_runs"].items()),
        ("distance-bins", DISTANCE_BIN_COLUMNS, [b.values() for b in doc["distance_bins"]]),
    ])


# --- replications, sweeps and calibration ---


def summary_rows(summary: dict[str, dict[str, float]]) -> list[tuple]:
    return [(metric, fmt6(s["mean"]), fmt6(s["std"])) for metric, s in summary.items()]


def replication_rows(result: ReplicationResult) -> list[tuple]:
    return [
        (k, r.config.seed, fmt6(r.received_ratio),
         fmt6(None if r.update is None else r.update.probability))
        for k, r in enumerate(result.reports)
    ]


def replicated_to_dict(config: ScenarioConfig, result: ReplicationResult) -> dict:
    replications = [dict(zip(REPLICATION_COLUMNS[1:], r[1:])) for r in replication_rows(result)]
    return {
        "schema": SCHEMA_REPLICATED,
        "base_seed": config.seed,
        "n_reps": len(result.reports),
        "summary": {m: {"mean": mean, "std": std} for m, mean, std in summary_rows(result.summary)},
        "replications": replications,
    }


def replicated_csv(result: ReplicationResult) -> str:
    return csv_text([
        ("replicated-summary", ("metric", "mean", "std"), summary_rows(result.summary)),
        ("replications", REPLICATION_COLUMNS, replication_rows(result)),
    ])


def sweep_csv(param: str, points, summaries) -> str:
    """Points (value, *replication row) and per-value summaries (value, reps,
    mean, std) of a sweep over ``param``. The value cell is the parsed value's
    str, not rounded."""
    return csv_text([
        ("sweep-points", ("param", "value", *REPLICATION_COLUMNS),
         [(param, str(v), *rest) for v, *rest in points]),
        ("sweep-summary", ("param", "value", "reps", "mean_received_ratio", "std_received_ratio"),
         [(param, str(v), *rest) for v, *rest in summaries]),
    ])


def calibration_dict(result: CalibrationResult) -> dict:
    return {
        "schema": SCHEMA_CALIBRATION,
        "noise_floor_dbm": fmt6(result.noise_floor_dbm),
        "achieved_ratio": fmt6(result.achieved_ratio),
        "target_ratio": result.target_ratio,
        "n_reps": result.n_reps,
        "iterations": result.iterations,
    }


def calibration_line(result: CalibrationResult) -> str:
    """The line `calibrate --out` prints to stdout."""
    return (
        f"calibrated noise floor {result.noise_floor_dbm:.6g} dBm "
        f"(achieved ratio {result.achieved_ratio:.6g})"
    )
