"""Experiment description and deterministic fleet generation.

A scenario is a flat `key = value` text document (``#`` starts a comment).
Every key except ``n_planes`` has a default. Example::

    # two hundred planes, full packet mix, channel errors on
    n_planes = 200
    n_uavs = 20
    seed = 1
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Iterable

import numpy as np

from .frames import AirframeKind
from .packets import SCHEDULES, PacketKind
from .seeding import MAX_SEED, fleet_rng

BER_MODES = ("approx_eq5", "exact_eq4", "per_bit")

ALL_KINDS = frozenset(PacketKind)

#: Largest expected packet count a config may ask for. A run peaks at about
#: 12 traced bytes per packet on fig7, whose resolve is cut into chunks of
#: about 32 K packets, and at about 52 on a fleet so dense that no gap cuts
#: it (20,000 planes over 20 s), where one chunk as long as the run peaks
#: inside collision_mask. So this keeps the packets of a run under 2.6 GB.
MAX_PACKETS = 50_000_000

#: Largest fleet a config may ask for. One run peaks at about 433 bytes per
#: aircraft with no packets (fleet, per-block tallies and their key space), so
#: this keeps the aircraft part of a run near 2 GB.
MAX_AIRCRAFT = 5_000_000


class ValidationError(ValueError):
    """Raised when a config violates its invariants; lists every violation."""

    def __init__(self, problems: Iterable[str]):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _has_declared_type(value, declared: str) -> bool:
    # numbers take no bool, and only a bool field takes one
    if declared == "frozenset[PacketKind]":
        return isinstance(value, frozenset) and all(isinstance(k, PacketKind) for k in value)
    cls = {"int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str}[declared]
    return isinstance(value, cls) and isinstance(value, bool) == (declared == "bool")


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one experiment."""

    n_planes: int
    n_uavs: int = 0
    plane_radius_km: float = 50.0
    uav_radius_km: float = 5.0
    plane_power_dbm: float = 44.0
    uav_power_dbm: float = 30.0
    sensitivity_dbm: float = -93.0
    freq_mhz: float = 1090.0
    noise_floor_dbm: float = -90.0
    duration_s: float = 500.0
    seed: int = 1
    enabled_kinds: frozenset[PacketKind] = ALL_KINDS
    channel_errors_enabled: bool = True
    ber_mode: str = "approx_eq5"
    deadline_s: float = 3.0
    tracked_aircraft: int = 0
    area_uniform: bool = False

    def problems(self) -> list[str]:
        """All invariant violations, empty when the config is valid."""
        out = [f"{f.name} must be {f.type}, got {getattr(self, f.name)!r}"
               for f in fields(self) if not _has_declared_type(getattr(self, f.name), f.type)]
        if out:  # values are checked once every field holds its declared type
            return out
        out = [
            f"{f.name} must be finite, got {getattr(self, f.name)}"
            for f in fields(self)
            if f.type == "float" and not math.isfinite(getattr(self, f.name))
        ]
        if self.n_planes < 0:
            out.append(f"n_planes must be >= 0, got {self.n_planes}")
        if self.n_uavs < 0:
            out.append(f"n_uavs must be >= 0, got {self.n_uavs}")
        if self.n_planes + self.n_uavs < 1:
            out.append("fleet must contain at least one aircraft")
        if not 0 < self.uav_radius_km <= self.plane_radius_km:
            out.append(
                "radii must satisfy 0 < uav_radius_km <= plane_radius_km, got "
                f"uav_radius_km={self.uav_radius_km} plane_radius_km={self.plane_radius_km}"
            )
        if self.duration_s <= 0:
            out.append(f"duration_s must be > 0, got {self.duration_s}")
        if self.freq_mhz <= 0:
            out.append(f"freq_mhz must be > 0, got {self.freq_mhz}")
        if not self.enabled_kinds:
            out.append("enabled_kinds must not be empty")
        if self.ber_mode not in BER_MODES:
            out.append(f"ber_mode must be one of {BER_MODES}, got {self.ber_mode!r}")
        if self.deadline_s <= 0:
            out.append(f"deadline_s must be > 0, got {self.deadline_s}")
        if not 0 <= self.seed <= MAX_SEED:
            out.append(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not 0 <= self.tracked_aircraft < max(1, self.n_planes + self.n_uavs):
            out.append(
                f"tracked_aircraft={self.tracked_aircraft} outside fleet "
                f"of {self.n_planes + self.n_uavs}"
            )
        # budgets are checked only on valid counts and duration, so that one bad
        # value gives one problem
        n_aircraft = self.n_planes + self.n_uavs
        valid_counts = self.n_planes >= 0 and self.n_uavs >= 0
        if valid_counts and n_aircraft > MAX_AIRCRAFT:
            out.append(f"{n_aircraft} aircraft exceed the limit of {MAX_AIRCRAFT:,} aircraft; shrink the fleet")
        if valid_counts and 0 < self.duration_s < math.inf:
            rate_hz = sum(SCHEDULES[k].rate_hz for k in PacketKind if k in self.enabled_kinds)
            per_aircraft = rate_hz * self.duration_s
            # divided, so that no aircraft count overflows a float
            if per_aircraft > 0 and n_aircraft > MAX_PACKETS / per_aircraft:
                out.append(
                    f"{n_aircraft} aircraft at about {per_aircraft:.3g} packets each exceed "
                    f"the limit of {MAX_PACKETS:,} packets; shorten duration_s or shrink the fleet"
                )
        return out

    def validate(self) -> "ScenarioConfig":
        problems = self.problems()
        if problems:
            raise ValidationError(problems)
        return self

    def with_overrides(self, **changes) -> "ScenarioConfig":
        return replace(self, **changes)


#: aircraft classes in fleet order; a fleet's ``kind`` column indexes this tuple
CLASSES: tuple[AirframeKind, ...] = tuple(AirframeKind)


def build_fleet(config: ScenarioConfig) -> np.recarray:
    """Deterministically generate the aircraft population of a config.

    One record per aircraft, indexed by its id: ``id``, ``kind`` (an index
    into CLASSES), ``distance_km`` and ``power_dbm``. Planes come first, then
    UAVs. Distances are uniform in d over (0, radius] per class (or uniform
    over the disk area with ``area_uniform``), drawn class by class from the
    fleet stream of the config seed.
    """
    config.validate()
    rng = fleet_rng(config.seed)
    counts = (config.n_planes, config.n_uavs)  # per class, in CLASSES order
    # u in [0,1) so distances land in the half-open (0, radius] range
    left = np.concatenate([1.0 - rng.uniform(0.0, 1.0, n) for n in counts])
    radius = np.repeat((config.plane_radius_km, config.uav_radius_km), counts)
    return np.rec.fromarrays(
        [
            np.arange(sum(counts)),
            np.repeat(np.arange(len(CLASSES), dtype=np.int8), counts),
            radius * (left ** 0.5 if config.area_uniform else left),
            np.repeat((config.plane_power_dbm, config.uav_power_dbm), counts),
        ],
        names="id,kind,distance_km,power_dbm",
    )


# --- scenario text parsing ---

_BOOL_WORDS = {
    "true": True, "yes": True, "on": True, "1": True,
    "false": False, "no": False, "off": False, "0": False,
}


def _parse_bool(raw: str) -> bool:
    if raw.lower() not in _BOOL_WORDS:
        raise ValueError(raw)
    return _BOOL_WORDS[raw.lower()]


def _parse_kinds(raw: str) -> frozenset[PacketKind]:
    names = raw.replace(",", " ").split()
    if not names:
        raise ValueError("empty kind list")
    return frozenset(PacketKind(name.upper()) for name in names)


_PARSER_BY_TYPE = {
    "int": int, "float": float, "bool": _parse_bool, "str": str,
    "frozenset[PacketKind]": _parse_kinds,
}

#: one parser per config key, chosen by the field's declared type
_PARSERS = {f.name: _PARSER_BY_TYPE[f.type] for f in fields(ScenarioConfig)}


def parse_value(key: str, raw: str):
    """Type the text of one config key (ValueError if it does not parse);
    ScenarioConfig.problems() checks the value itself."""
    return _PARSERS[key](raw)


def loads_scenario(text: str) -> ScenarioConfig:
    """Parse scenario text into a validated config."""
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValidationError([f"line {lineno}: expected 'key = value', got {stripped!r}"])
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _PARSERS:
            raise ValidationError([f"line {lineno}: unknown key {key!r}"])
        if key in values:
            raise ValidationError([f"line {lineno}: duplicate key {key!r}"])
        try:
            values[key] = parse_value(key, raw)
        except ValueError:
            raise ValidationError([f"line {lineno}: bad value for {key}: {raw!r}"]) from None
    if "n_planes" not in values:
        raise ValidationError(["missing required key n_planes"])
    return ScenarioConfig(**values).validate()


def load_scenario(path) -> ScenarioConfig:
    """Read and parse a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        return loads_scenario(fh.read())

