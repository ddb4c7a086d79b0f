"""Simulation engine: merge all aircraft timelines, apply the channel,
resolve receiver-side collisions and distil the run report.

State only changes at packet boundaries and aircraft are quasi-static with
no retransmission, so the engine batch-generates every timeline and resolves
the merged schedule in start-time order in one sweep. This is
observationally equivalent to popping an incremental event queue.

Every packet that reaches the receiver has one int64 key in a preallocated
buffer. No gap between two packets of a kind is shorter than its
``jitter_lo_s``, so ``traffic.max_emissions`` bounds an aircraft's packets
of each enabled kind, and the buffer holds that many per audible aircraft.
The aircraft draw in fixed groups of ``max(1, _KEY_GROUP // bound)``. Each
audible aircraft draws its starts in seconds straight into its key slots,
as float64 over the same memory, and with channel errors on one channel
uniform per packet into one scratch buffer of a group's slots; an aircraft
that draws more than its bound raises before it draws from its channel
stream. At the end of each group its keys are finished in place, each once,
by a few array passes whose fixed cost its aircraft share. A gated aircraft
takes no slot. Once every aircraft has drawn, the scratch is deleted and the
key buffer gives back the slots no packet took.

Time is kept in whole nanoseconds: each start is rounded to nearest,
``np.rint(t * 1e9)``, and the on-air lengths (64 and 120 us) are whole
nanoseconds, so the half-open overlap rule is exact integer arithmetic.
Packets are ordered by one in-place sort of the int64 keys
``tick << s | block << 1 | bad``: the start tick, the index of the packet's
(aircraft, kind) block in s - 1 bits and its corruption bit. Shifts and masks
give all three back. Packets with equal start ticks so fall in block order,
which is their aircraft-major concatenation order. No verdict depends on that
tie order either. Overlap clusters do not depend on how tied starts are
ordered, an exact tie between two emitters always collides, and the start
ticks of one (emitter, kind) are strictly increasing, so each aircraft's POS
outcomes stay in time order.

The sorted packets are resolved in chunks of at least ``_CHUNK``, cut only
before a packet that starts at least the longest on-air time after the
packet before it. Every packet up to that one has ended by its start, so no
overlap cluster spans a cut and each chunk is resolved exactly on its own; a
stretch with no such gap stays in one chunk, which in a dense enough fleet
is the whole run. The search for a cut scans a window of ``_CUT_WINDOW``
packets and doubles it until it finds such a gap, which on a sparse fleet
comes a few packets past the chunk's least size. A chunk's low key bits
``block << 1 | bad`` are read once into a low code of the narrowest
unsigned type that holds them, and its keys become its start ticks in
place. The emitter is the low code // (2 * the kind count) and the duration
is looked up by the rest, ``kind << 1 | bad``. So beside the keys a chunk
holds only its low codes, emitters and durations (8 bytes per packet up to
5,461 aircraft, 12 above) and ``collision_mask``'s temporaries. Each
packet's key is then overwritten with its tally code
``low << 1 | collided``, that is ``block << 2 | bad << 1 | collided``, and
one ``np.bincount`` over the buffer gives the tally: code 0 is received, 1
and 3 are collisions (collision outranks corruption) and 2 is corrupted.
The tracked aircraft's POS keys are copied before the sort and found again
after it by binary search (a block's ticks strictly increase, so every key
is unique); its lost flags are read from their tally codes.

A chunk whose mean start spacing, its tick span over its packet count, is
at least ``_SPARSE_SPACING`` longest on-air times is sparse, and only its
near packets, those that start less than the longest on-air time after the
packet before them or before the packet after them, reach
``collision_mask``. A packet that is not near shares no instant with any
other, and leaving it out splits no cluster of the rest, so the verdicts
are those of the whole chunk. Measured at seeds 1-3: the ``fig3_50`` fleets
of 25-200 planes (the density sweep) space their starts 151-19 longest
on-air times apart, with 1.2-10 % of packets near (7.2 % over the sweep);
``fig4`` and ``fig5`` 4.0 apart with 39 % near, ``fig6`` 3.7 and 42 %,
``fig7`` 3.3 and 45 %. Dense chunks keep the whole path for memory, not
time: with numpy 2.4.6 on a 2-core host the near-only resolve alone is not
slower on them (seeds 1-3 x 9 alternating passes, whole -> near-only:
``fig7`` 17.6 -> 17.4 ms, ``fig5`` 14.6 -> 12.9 ms), but its near index and
gathered copies lift the one-chunk dense fleet of
tests/test_engine.py::TestMemoryBudget from 42.87 to 60.84 traced bytes
per packet, above its bound of 48.

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
from .traffic import emission_times, max_emissions

_N_KINDS = len(KIND_ORDER)
_N_VERDICTS = len(Verdict)
#: on-air time of one packet of each kind in whole nanoseconds, in KIND_ORDER
_KIND_DURATION_NS = np.array([round(packet_duration_s(k) * 1e9) for k in KIND_ORDER], dtype=np.int32)
_LONGEST_NS = int(_KIND_DURATION_NS.max())
#: on-air time by a packet's low code modulo 2 * _N_KINDS, kind << 1 | bad
_LOW_DURATION_NS = np.repeat(_KIND_DURATION_NS, 2)
_NO_PACKETS = np.empty(0)
#: bits of a packet's tally code bad << 1 | collided below its block index.
#: The tally reads codes 0-2 as the verdicts of those values and folds code 3
#: (collided and corrupted) from the LOST_BELOW_SENSITIVITY column into
#: LOST_COLLISION, so it needs exactly these four verdicts with these values
_CODE_BITS = 2
if (Verdict.RECEIVED, Verdict.LOST_COLLISION, Verdict.LOST_CORRUPTED, Verdict.LOST_BELOW_SENSITIVITY) != tuple(range(_N_VERDICTS)):
    raise ImportError("the engine's tally codes need the verdicts RECEIVED, LOST_COLLISION, LOST_CORRUPTED, "
                      "LOST_BELOW_SENSITIVITY = 0, 1, 2, 3")
#: least packets per collision resolve
_CHUNK = 1 << 15
#: packet slots per fixed group of aircraft whose keys are finished together,
#: max(1, _KEY_GROUP // bound) aircraft. A fig7 aircraft's bound is 6,567, so
#: a group holds two; at 8 K each is alone and pays the group's fixed cost. A
#: larger group raises the peak: the scratch and the group's temporaries sit
#: beside the whole key buffer (see tests/test_engine.py::TestMemoryBudget)
_KEY_GROUP = 1 << 14
#: packets in the first window _cluster_free_cut scans for a gap
_CUT_WINDOW = 256
#: a chunk whose mean start spacing is at least this many longest on-air
#: times resolves only its near packets; a denser chunk keeps the whole path
#: for its lower memory peak (see the module docstring)
_SPARSE_SPACING = 8


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


def _cluster_free_cut(key: np.ndarray, s: int, b: int) -> int:
    """The first index >= b whose packet starts at least the longest on-air
    time after the packet before it, or key.size; key holds sorted packed
    keys with the start tick above bit s. The scan starts with a window of
    _CUT_WINDOW packets and doubles it until it finds such a gap."""
    window = _CUT_WINDOW
    while b < key.size:
        tick = key[b - 1 : b + window] >> s
        gap = np.flatnonzero(np.diff(tick) >= _LONGEST_NS)
        if gap.size:
            return b + int(gap[0])
        b += window
        window <<= 1
    return key.size


def _near(tick: np.ndarray) -> np.ndarray:
    """Indices of the sorted start ticks that lie less than the longest
    on-air time from the tick before or after them."""
    close = np.diff(tick) < _LONGEST_NS
    near = np.zeros(tick.size, dtype=bool)
    near[1:] = close
    near[:-1] |= close
    return np.flatnonzero(near)


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
    capacity = sum(max_emissions(k, config.duration_s) for k in draws if k is not None)

    # packets are resolved in start-time order, ties in block order, by one
    # in-place sort of int64 keys tick << s | block << 1 | bad. Each audible
    # aircraft draws its starts in seconds into its key slots and its channel
    # uniforms into a scratch buffer, and the keys of each group of
    # per_group aircraft are finished together (see the module docstring)
    n_blocks = n_aircraft * _N_KINDS
    s = n_blocks.bit_length() + 1
    key = np.empty(capacity * int(audible.sum()), dtype=np.int64)
    per_group = max(1, _KEY_GROUP // capacity)
    uniforms = np.empty(per_group * capacity if errors_on else 0)
    generated = np.empty((n_aircraft, _N_KINDS), dtype=np.int64)
    n = 0
    for first in range(0, n_aircraft, per_group):
        last = min(first + per_group, n_aircraft)
        g = n
        for i in range(first, last):
            t_rng = traffic_rng(config.seed, i)
            times = [_NO_PACKETS if kind is None else emission_times(kind, config.duration_s, t_rng)
                     for kind in draws]
            n_times = [t.size for t in times]
            generated[i] = n_times
            if audible[i]:
                m = sum(n_times)
                if m > capacity:
                    raise AssertionError(
                        f"aircraft {i} emitted {m} packets, above its bound of {capacity}: "
                        "traffic.max_emissions summed over the enabled kinds"
                    )
                np.concatenate(times, out=key.view(np.float64)[n : n + m])
                if errors_on:
                    # one uniform per packet, in kind order
                    channel_rng(config.seed, i).random(out=uniforms[n - g : n - g + m])
                n += m
        # the group's starts become ticks in place, then take their block
        # codes and corruption bits
        k = key[g:n]
        t = k.view(np.float64)
        t *= 1e9
        np.rint(t, out=k, casting="unsafe")
        k <<= s
        counts = (generated[first:last] * audible[first:last, None]).ravel()
        k |= np.repeat(np.arange(first * _N_KINDS, last * _N_KINDS) << 1, counts)
        if errors_on:
            # a packet is bad iff its uniform is >= 1 - P_bad of its kind
            k |= uniforms[: n - g] >= np.repeat(p_good[first:last].ravel(), counts)
    del uniforms, k, t
    # the tracked aircraft's POS keys follow the packets of the audible
    # aircraft before it and its own kinds before POS; a gated aircraft has
    # none. They are found again after the sort
    tracked = config.tracked_aircraft
    pos = KIND_INDEX[PacketKind.POS]
    tracked_block = tracked * _N_KINDS + pos
    start = int((generated[:tracked] * audible[:tracked, None]).sum() + generated[tracked, :pos].sum())
    tracked_keys = key[start : start + generated[tracked, pos] * audible[tracked]].copy()
    # give back the slots no packet took; no view of the buffer is left
    key.resize(n, refcheck=False)
    key.sort()
    tracked_at = key.searchsorted(tracked_keys)

    # resolve the sorted packets one cluster-free chunk at a time, from their
    # start ticks and low codes block << 1 | bad, and write each packet's
    # tally code low << 1 | collided over its key; a sparse chunk resolves
    # only its near packets (see the module docstring)
    # the narrowest unsigned type that holds every low code. It has at least
    # s bits, and a cast to it keeps a key's low bits, so a masked cast of
    # the key is its low code
    low_type = np.min_scalar_type(n_blocks << 1)
    a = 0
    while a < n:
        b = _cluster_free_cut(key, s, a + _CHUNK)
        k = key[a:b]
        low = k.astype(low_type)
        low &= (1 << s) - 1
        np.right_shift(k, s, out=k)
        near = _near(k) if int(k[-1] - k[0]) >= _SPARSE_SPACING * _LONGEST_NS * (b - a) else slice(None)
        low_near = low[near]
        emitter = low_near // (2 * _N_KINDS)
        duration = _LOW_DURATION_NS.take(low_near - emitter * (2 * _N_KINDS))
        collided = collision_mask(k[near], duration, emitter)
        # the tally code needs one bit more than the low code: widen first
        k[:] = low
        k <<= 1
        k[near] |= collided
        a = b
    # a tracked POS packet is lost unless its tally code is its block's
    # received code (verdict code 0); a gated aircraft has no packets here
    # and loses every one
    if audible[tracked]:
        tracked_pos_lost = key[tracked_at] != tracked_block << _CODE_BITS
    else:
        tracked_pos_lost = np.ones(generated[tracked, pos], dtype=bool)

    # one (aircraft, kind, code) tally, as many codes per block as there are
    # verdicts; code 3, collided and corrupted, is a collision, which outranks
    # corruption, and its column then takes the gated packets
    counts = np.bincount(key, minlength=n_blocks << _CODE_BITS).reshape(n_aircraft, _N_KINDS, _N_VERDICTS)
    counts[:, :, Verdict.LOST_COLLISION] += counts[:, :, Verdict.LOST_BELOW_SENSITIVITY]
    np.multiply(generated, ~audible[:, None], out=counts[:, :, Verdict.LOST_BELOW_SENSITIVITY])

    # conservation: the verdict partition must reproduce the generated tallies
    if not np.array_equal(counts.sum(axis=2), generated):
        raise AssertionError("outcome partition does not match generated packet counts")
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
    class, too few tracked POS packets) is left out, and so is every metric
    of no reports.
    """
    reports = list(reports)
    if not reports:
        return {}
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
