"""Command-line front end.

Subcommands: run (single or replicated simulation), sweep (one parameter
over a value list), calibrate (noise-floor search against a target received
ratio) and presets (list bundled scenarios). Identical command lines and
input files produce byte-identical output files, formatted by
sim1090.report. SIM1090_OUTPUT_DIR, when set, anchors relative --out paths.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import resources
from pathlib import Path

from .engine import ReplicationResult, run, run_replicated
from .metrics import CalibrationError, calibrate_noise_floor
from .report import (
    calibration_dict,
    calibration_line,
    json_text,
    replicated_csv,
    replicated_to_dict,
    replication_rows,
    sweep_csv,
)
from .scenario import ScenarioConfig, ValidationError, load_scenario, loads_scenario, parse_value
from .seeding import stable_seed

OUTPUT_DIR_ENV = "SIM1090_OUTPUT_DIR"

SWEEP_PARAMS = ("n_planes", "n_uavs", "noise_floor_dbm", "deadline_s")


def _presets_dir():
    return resources.files("sim1090.presets")


def _preset_names() -> list[str]:
    return sorted(p.name for p in _presets_dir().iterdir() if p.name.endswith(".scn"))


def _resolve_scenario(args) -> ScenarioConfig:
    """Load --scenario from a path or else a bundled preset; apply --seed."""
    path = Path(args.scenario)
    name = args.scenario if args.scenario.endswith(".scn") else args.scenario + ".scn"
    if path.is_file():
        config = load_scenario(path)
    elif name in _preset_names():
        config = load_preset(name)
    else:
        raise FileNotFoundError(f"scenario not found: {args.scenario}")
    return config if args.seed is None else config.with_overrides(seed=args.seed)


def load_preset(name: str) -> ScenarioConfig:
    return loads_scenario((_presets_dir() / name).read_text(encoding="utf-8"))


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    path = Path(out)
    if not path.is_absolute():
        base = os.environ.get(OUTPUT_DIR_ENV)
        if base:
            path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def cmd_run(args) -> int:
    config = _resolve_scenario(args)
    if args.reps == 1:
        report = run(config)
        text = json_text(report.to_dict()) if args.format == "json" else report.to_csv()
    else:
        result = run_replicated(config, args.reps)
        if args.format == "json":
            text = json_text(replicated_to_dict(config, result))
        else:
            text = replicated_csv(result)
    _write_output(text, args.out)
    return 0


def cmd_sweep(args) -> int:
    base = _resolve_scenario(args)
    if args.param not in SWEEP_PARAMS:
        raise ValidationError(
            [f"unknown sweep parameter {args.param!r}; valid: {', '.join(sorted(SWEEP_PARAMS))}"]
        )
    try:
        values = tuple(parse_value(args.param, v) for v in args.values.split(","))
    except ValueError:
        return _fail(f"could not parse sweep values {args.values!r} for {args.param}")
    if args.reps < 1:
        raise ValidationError([f"replications must be >= 1, got {args.reps}"])

    points, summaries = [], []
    for value in values:  # formatted value by value, so reports never pile up across the sweep
        config = base.with_overrides(**{args.param: value})
        seeds = [stable_seed(base.seed, value, rep) for rep in range(args.reps)]
        result = ReplicationResult(tuple(run(config.with_overrides(seed=seed)) for seed in seeds))
        points += [(value, *row) for row in replication_rows(result)]
        s = result.summary.get("received_ratio", {"mean": None, "std": None})
        summaries.append((value, args.reps, s["mean"], s["std"]))
    _write_output(sweep_csv(args.param, points, summaries), args.out)
    return 0


def cmd_calibrate(args) -> int:
    base = _resolve_scenario(args)
    result = calibrate_noise_floor(args.target, base, n_reps=args.reps)
    _write_output(json_text(calibration_dict(result)), args.out)
    if args.out is not None:
        print(calibration_line(result))
    return 0


def cmd_presets(args) -> int:
    for name in _preset_names():
        first = (_presets_dir() / name).read_text(encoding="utf-8").splitlines()[0]
        description = first.lstrip("# ").strip() if first.startswith("#") else ""
        print(f"{name:14s} {description}")
    return 0


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sim1090",
        description="Monte Carlo simulator of the shared 1090 MHz surveillance broadcast channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the options run, sweep and calibrate share
    common.add_argument("--scenario", required=True, help="scenario file or bundled preset name")
    common.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    common.add_argument("--out", default=None, help="output file (default: stdout)")

    p_run = sub.add_parser("run", parents=[common], help="simulate one scenario")
    p_run.add_argument("--reps", type=int, default=1, help="independent replications")
    p_run.add_argument("--format", choices=("json", "csv"), default="json")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[common], help="sweep one config key over a value list")
    p_sweep.add_argument("--param", required=True, help=f"one of: {', '.join(sorted(SWEEP_PARAMS))}")
    p_sweep.add_argument("--values", required=True, help="comma-separated values")
    p_sweep.add_argument("--reps", type=int, default=1)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cal = sub.add_parser("calibrate", parents=[common],
                           help="find the noise floor matching a target received ratio")
    p_cal.add_argument("--target", type=float, required=True, help="target received ratio in (0, 1)")
    p_cal.add_argument("--reps", type=int, default=10)
    p_cal.set_defaults(func=cmd_calibrate)

    p_presets = sub.add_parser("presets", help="list bundled scenarios")
    p_presets.set_defaults(func=cmd_presets)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:  # FileNotFoundError included
        return _fail(str(exc))
    except ValueError as exc:  # ValidationError included
        return _fail(str(exc))
    except CalibrationError as exc:
        return _fail(f"calibration failed: {exc}")


if __name__ == "__main__":
    sys.exit(main())
