"""Simulation engine: merge all aircraft timelines, apply the channel,
resolve receiver-side collisions and distil the run report.

State only changes at packet boundaries and aircraft are quasi-static with
no retransmission, so the engine batch-generates every timeline and resolves
the merged schedule in start-time order in one sweep. This is
observationally equivalent to popping an incremental event queue.

Time is kept in whole nanoseconds: each start is rounded to nearest,
``np.rint(t * 1e9)``, and the on-air lengths (64 and 120 us) are whole
nanoseconds, so the half-open overlap rule is exact integer arithmetic.
Packets are ordered by one in-place sort of int64 keys
``tick << s | block << 1 | bad``: the start tick, the index of the packet's
(aircraft, kind) block in s - 1 bits and its corruption bit. Shifts and masks
give all three back. Packets with equal start ticks so fall in block order,
which is their aircraft-major concatenation order. No verdict depends on that
tie order either. Overlap clusters do not depend on how tied starts are
ordered, an exact tie between two emitters always collides, and the start
ticks of one (emitter, kind) are strictly increasing, so each aircraft's POS
outcomes stay in time order.

A run is a pure function of its config (seed included): reports serialize
to byte-identical JSON across repeated runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import metrics
from .aloha import Verdict, collision_mask
from .channel import LinkBudget, aircraft_link_state, corruption_probability
from .frames import AirframeKind
from .packets import KIND_INDEX, KIND_ORDER, PacketKind, packet_duration_s
from .report import json_bytes, run_csv, run_dict
from .scenario import CLASSES, ScenarioConfig, build_fleet
from .seeding import channel_rng, replication_seed, traffic_rng
from .traffic import emission_times

_N_KINDS = len(KIND_ORDER)
_N_VERDICTS = len(Verdict)
#: on-air time of one packet of each kind in whole nanoseconds, in KIND_ORDER
_BLOCK_DURATION_NS = np.array([round(packet_duration_s(k) * 1e9) for k in KIND_ORDER], dtype=np.int32)
_NO_PACKETS = np.empty(0)


def mean_std(values) -> dict[str, float]:
    """Mean and population std of a sequence; order-independent by fsum."""
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / n
    return {"mean": mean, "std": math.sqrt(var)}


@dataclass(frozen=True, eq=False)
class RunReport:
    """What one run measured: its tally and the tracked aircraft's POS flags.

    The tracked-aircraft metrics are computed from the flags on first read.
    Reports compare by serialized form: two runs agree iff their
    to_json_bytes() are equal.
    """

    config: ScenarioConfig
    #: one record per aircraft, indexed by id (see scenario.build_fleet)
    fleet: np.recarray = field(repr=False)
    #: int64 tally of shape (n_aircraft, n_kinds, n_verdicts)
    counts: np.ndarray = field(repr=False)
    #: time-ordered lost flags of the tracked aircraft's POS packets
    tracked_pos_lost: np.ndarray = field(repr=False)

    @cached_property
    def pos_loss_runs(self) -> dict[int, int]:
        """Runs of consecutive tracked POS losses: {run length: occurrences}."""
        hist = metrics.loss_run_histogram(~self.tracked_pos_lost)
        if sum(length * count for length, count in hist.items()) != int(self.tracked_pos_lost.sum()):
            raise AssertionError("loss-run histogram does not account for every lost packet")
        return hist

    @cached_property
    def update(self) -> metrics.UpdateProbabilityResult | None:
        """Tracked position-update probability; None with fewer tracked POS
        packets than one deadline window."""
        return metrics.update_probability(~self.tracked_pos_lost, self.config.deadline_s)

    @property
    def generated_total(self) -> int:
        return int(self.counts.sum())

    @property
    def received_total(self) -> int:
        return int(self.counts[:, :, Verdict.RECEIVED].sum())

    @property
    def received_ratio(self) -> float | None:
        """Received share of generated packets; None when none were generated."""
        return self.received_total / self.generated_total if self.generated_total else None

    def class_ratio(self, cls: AirframeKind) -> float | None:
        members = self.counts[self.fleet.kind == CLASSES.index(cls)]
        gen = int(members.sum())
        return int(members[:, :, Verdict.RECEIVED].sum()) / gen if gen else None

    def distance_bins(self) -> list[metrics.DistanceBin]:
        return metrics.distance_binned_ratio(
            self.fleet, self.counts.sum(axis=(1, 2)), self.counts[:, :, Verdict.RECEIVED].sum(axis=1)
        )

    # --- serialization (formats live in sim1090.report) ---

    def to_dict(self) -> dict:
        return run_dict(self)

    def to_json_bytes(self) -> bytes:
        return json_bytes(self.to_dict())

    def to_csv(self) -> str:
        """All report tables as one sectioned CSV document."""
        return run_csv(self)


def run(config: ScenarioConfig) -> RunReport:
    """Simulate one scenario: fleet, timelines, channel, collisions, tally."""
    config.validate()
    fleet = build_fleet(config)
    link = LinkBudget.from_config(config)
    errors_on = config.channel_errors_enabled
    n_aircraft = len(fleet)

    audible = np.ones(n_aircraft, dtype=bool)
    if errors_on:
        state = aircraft_link_state(fleet.distance_km, fleet.power_dbm, link)
        audible = ~state.below_sensitivity
        p_good = np.stack([1.0 - corruption_probability(state.pe_bit, k, link.ber_mode) for k in KIND_ORDER], axis=1)

    # one block of packets per (aircraft, kind in KIND_ORDER), aircraft-major
    # and in time order within a block; a disabled kind (None here) has an
    # empty block and draws nothing. A gated aircraft's packets never reach
    # the receiver, so its blocks are tallied but left empty, take no part in
    # ordering or collisions and draw nothing from the channel stream
    draws = [k if k in config.enabled_kinds else None for k in KIND_ORDER]
    starts, bad, generated = [], [], []
    for i in range(n_aircraft):
        t_rng = traffic_rng(config.seed, i)
        times = [_NO_PACKETS if kind is None else emission_times(kind, config.duration_s, t_rng)
                 for kind in draws]
        n_times = [t.size for t in times]
        generated.extend(n_times)
        if audible[i]:
            starts.extend(t for t in times if t.size)
            if errors_on:
                # one uniform per packet, in kind order: a packet is bad iff
                # its uniform is >= 1 - P_bad of its kind
                uniforms = channel_rng(config.seed, i).random(sum(n_times))
                bad.append(uniforms >= np.repeat(p_good[i], n_times))

    generated = np.array(generated, dtype=np.int64).reshape(n_aircraft, _N_KINDS)
    sizes = (generated * audible[:, None]).ravel()
    start = np.concatenate(starts or [_NO_PACKETS])
    del starts  # its slices pin the over-drawn emission_times buffers
    bad = np.concatenate(bad) if bad else np.zeros(start.size, dtype=bool)

    # packets are resolved in start-time order, ties in block order, by one
    # in-place sort of int64 keys tick << s | block << 1 | bad (see the module
    # docstring)
    np.rint(np.multiply(start, 1e9, out=start), out=start)  # in place: whole nanoseconds
    key = start.astype(np.int64)
    del start
    s = sizes.size.bit_length() + 1
    key <<= s
    key |= np.repeat(np.arange(sizes.size, dtype=np.int64) << 1, sizes)
    key |= bad
    del bad
    key.sort()
    # one verdict code per packet in start order; collision outranks corruption
    code = (key & 1).astype(np.int8)
    code *= np.int8(Verdict.LOST_CORRUPTED)
    # the narrowest unsigned type that holds every block index
    block = ((key >> 1) & ((1 << (s - 1)) - 1)).astype(np.min_scalar_type(sizes.size))
    start = np.right_shift(key, s, out=key)  # in place: the keys become start ticks
    del key
    # a run peaks in memory inside collision_mask, at about 28 bytes per
    # packet: start and its running end (int64), the duration (int32), the
    # block and emitter indices, the verdict code and the continuation indices
    duration = np.tile(_BLOCK_DURATION_NS, n_aircraft)[block]
    code[collision_mask(start, duration, block // _N_KINDS)] = Verdict.LOST_COLLISION
    del start, duration

    # one (aircraft, kind, verdict) tally over the key block * n_verdicts + code
    key = block.astype(np.intp)
    key *= _N_VERDICTS
    key += code
    counts = np.bincount(key, minlength=sizes.size * _N_VERDICTS).reshape(n_aircraft, _N_KINDS, _N_VERDICTS)
    counts[~audible, :, Verdict.LOST_BELOW_SENSITIVITY] = generated[~audible]

    # conservation: the verdict partition must reproduce the generated tallies
    if not np.array_equal(counts.sum(axis=2), generated):
        raise AssertionError("outcome partition does not match generated packet counts")

    tracked = config.tracked_aircraft
    pos = KIND_INDEX[PacketKind.POS]
    if audible[tracked]:
        tracked_pos_lost = code[block == tracked * _N_KINDS + pos] != Verdict.RECEIVED
    else:
        tracked_pos_lost = np.ones(generated[tracked, pos], dtype=bool)
    return RunReport(config=config, fleet=fleet, counts=counts, tracked_pos_lost=tracked_pos_lost)


@dataclass(frozen=True)
class ReplicationResult:
    """Reports of independent replications, and their summary (see summarize_reports)."""

    reports: tuple[RunReport, ...]

    @property
    def summary(self) -> dict[str, dict[str, float]]:
        return summarize_reports(self.reports)


def summarize_reports(reports) -> dict[str, dict[str, float]]:
    """Mean and population std of each metric (see mean_std).

    A metric that is undefined in any report (no packets, no aircraft of a
    class, too few tracked POS packets) is left out.
    """
    reports = list(reports)
    summary = {}
    ratios = {
        "received_ratio": [r.received_ratio for r in reports],
        "plane_received_ratio": [r.class_ratio(AirframeKind.PLANE) for r in reports],
        "uav_received_ratio": [r.class_ratio(AirframeKind.UAV) for r in reports],
    }
    for name, values in ratios.items():
        if all(v is not None for v in values):
            summary[name] = mean_std(values)
    updates = [r.update for r in reports]
    if all(u is not None for u in updates):
        summary["update_probability"] = mean_std([u.probability for u in updates])
    return summary


def run_replicated(config: ScenarioConfig, n_reps: int) -> ReplicationResult:
    """Run n_reps independent replications; replication k reseeds from (seed, k)."""
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
    config.validate()
    return ReplicationResult(tuple(
        run(config.with_overrides(seed=replication_seed(config.seed, k))) for k in range(n_reps)
    ))
