"""Engine tests: determinism, pinned report bytes, conservation,
equivalence with a per-packet reference, property tests over small configs
(JSON and CSV agreement included), zero-packet runs, replication
summaries, the width of the packed sort keys, the per-packet memory
budget, the packet buffer's capacity check, the chunked collision
resolve with its near-packet path for sparse chunks and the groups of
aircraft whose keys are written together."""

import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sim1090 import engine
from sim1090.aloha import Verdict, collision_mask
from sim1090.channel import LinkBudget, aircraft_link_state, corruption_probability
from sim1090.cli import load_preset
from sim1090.engine import ReplicationResult, run, run_replicated, summarize_reports
from sim1090.frames import AirframeKind
from sim1090.metrics import aloha_expected_ratio, loss_run_histogram, update_probability
from sim1090.packets import KIND_INDEX, KIND_ORDER, SCHEDULES, PacketKind, packet_duration_s
from sim1090.report import VERDICT_COLUMNS, replicated_csv, replicated_to_dict
from sim1090.scenario import (
    BER_MODES, MAX_AIRCRAFT, MAX_PACKETS, ScenarioConfig, ValidationError, build_fleet,
)
from sim1090.seeding import channel_rng, replication_seed, traffic_rng
from sim1090.traffic import emission_times, max_emissions


class TestRunBasics:
    def test_single_plane_without_errors_receives_everything(self):
        cfg = ScenarioConfig(n_planes=1, channel_errors_enabled=False, seed=3)
        report = run(cfg)
        assert report.received_ratio == 1.0
        assert int(report.counts[:, :, Verdict.LOST_COLLISION].sum()) == 0
        assert report.pos_loss_runs == {}
        assert report.update is not None and report.update.probability == 1.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            run(ScenarioConfig(n_planes=0, n_uavs=0))

    def test_over_budget_config_rejected_before_any_allocation(self):
        # about 2e12 packets: validate() must stop it before the fleet is built
        with pytest.raises(ValidationError, match="limit of 50,000,000 packets"):
            run(ScenarioConfig(n_planes=200, duration_s=1e9))

    def test_oversized_fleet_rejected_before_any_allocation(self, monkeypatch):
        # about 1e4 packets but 1e9 aircraft, some 430 GB of per-aircraft
        # arrays: the fleet must never be built
        monkeypatch.setattr(engine, "build_fleet", lambda cfg: pytest.fail("fleet built"))
        with pytest.raises(ValidationError, match="limit of 5,000,000 aircraft"):
            run(ScenarioConfig(n_planes=10**9, duration_s=1e-6))

    def test_deterministic_byte_identical(self):
        cfg = ScenarioConfig(n_planes=25, n_uavs=5, duration_s=60.0, seed=12)
        assert run(cfg).to_json_bytes() == run(cfg).to_json_bytes()

    def test_seed_changes_report(self):
        cfg = ScenarioConfig(n_planes=25, duration_s=60.0, seed=12)
        assert run(cfg).to_json_bytes() != run(cfg.with_overrides(seed=13)).to_json_bytes()

    def test_conservation_partition(self):
        cfg = ScenarioConfig(n_planes=30, n_uavs=10, duration_s=60.0, seed=4)
        report = run(cfg)
        doc = report.to_dict()
        assert sum(doc["verdict_totals"].values()) == doc["generated"]
        for row in doc["per_aircraft"]:
            assert (
                row["received"]
                + row["lost_collision"]
                + row["lost_corrupted"]
                + row["lost_below_sensitivity"]
                == row["generated"]
            )

    def test_histogram_accounts_for_all_tracked_losses(self):
        cfg = ScenarioConfig(n_planes=40, duration_s=120.0, seed=6)
        report = run(cfg)
        tracked_lost = int(report.tracked_pos_lost.sum())
        assert sum(l * c for l, c in report.pos_loss_runs.items()) == tracked_lost

    def test_update_window_uses_deadline(self):
        cfg = ScenarioConfig(n_planes=2, duration_s=120.0, seed=1, deadline_s=6.0)
        assert run(cfg).update.window_k == 12

    def test_deadline_past_float_range_leaves_update_undefined(self):
        cfg = ScenarioConfig(n_planes=2, duration_s=10.0, deadline_s=1e308)
        report = run(cfg)
        assert report.update is None
        assert json.loads(report.to_json_bytes())["update_probability"] is None

    @pytest.mark.parametrize("mode", BER_MODES)
    def test_noise_floor_past_float_range_corrupts_nothing(self, mode):
        # at -4000 dBm the linear SNR is past the float range: r = inf and
        # Pe = 0 in every BER mode
        cfg = ScenarioConfig(n_planes=20, n_uavs=5, duration_s=30.0, seed=3, noise_floor_dbm=-4000.0, ber_mode=mode)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run(cfg)
        generated = run(cfg.with_overrides(channel_errors_enabled=False)).counts.sum(axis=2)
        assert generated.sum() > 0
        assert np.array_equal(report.counts.sum(axis=2), generated)
        assert int(report.counts[:, :, Verdict.LOST_CORRUPTED].sum()) == 0


class TestPinnedReports:
    """SHA-256 of whole reports: presets at their preset seeds, and preset
    variants that take the channel paths the presets leave out.

    The preset hashes were taken before packets were ordered by start time
    alone (they were sorted by start, emitter and kind); the variant hashes
    before the link chain ran over the whole fleet and each aircraft drew its
    channel uniforms in one call. Equal hashes show the engine gives the same
    report byte for byte; a change that moves them must say which numbers
    moved and why. The two disabled-kind variants were pinned before the
    engine laid out all six kind blocks per aircraft whatever was enabled.
    All of them were re-taken for run-report v2, which drops
    ``config.bandwidth_hz`` and ``per_aircraft[].address``: each v2 report
    equalled its v1 report with those keys deleted and the schema renamed.
    The fig6-gated-tracked, fig6-id-smag-80dBm and fig7-seed2 hashes were
    re-taken when starts became whole nanoseconds: each run moved by one or
    two packet pairs whose float overlap was under 1 ns and became an exact
    boundary contact, so they no longer collide.
    """

    PINNED = {
        "fig4": "813dcc66da20ed6763773a3ad5509f144b6209c3f734cc69df610cb6091e4ccd",
        "fig3_200": "b83056ac04ead2a2f45d912f86d348cff371b0dd71a3e6c53f1de922da3610bd",
        "fig7": "26718b3488fa679c2b70acec62a093447e6ab497676972e7c359e5b7450fbef7",
    }

    #: name -> (preset, overrides, hash)
    VARIANTS = {
        "fig6-per_bit-78dBm": (
            "fig6", {"ber_mode": "per_bit", "noise_floor_dbm": -78.0},
            "9633c3142bc7abe1e571558b270aa8acfa17f54dc15c4aa9c9c8662c3e588b55",
        ),
        "fig6-exact_eq4": (
            "fig6", {"ber_mode": "exact_eq4"},
            "06c566867cce7aee2cbe3403364f5ac9589ff3beb1f8a5358c023e8ac9b022b3",
        ),
        # planes beyond about 127 km are gated, the tracked aircraft 5 among them
        "fig6-gated-tracked": (
            "fig6", {"plane_radius_km": 400.0, "noise_floor_dbm": -80.0, "tracked_aircraft": 5},
            "4bd6af4e0d6011d4d46479e6d3c141773ac32594eb08764181edbc808f979d22",
        ),
        "all-gated": (
            "fig5", {"n_planes": 3, "plane_radius_km": 5000.0},
            "f6ea680efa115c1b71d1d630b92eaaca75f6ffc5cda1abd8fa5a6a79ab77e8d6",
        ),
        # no POS block: tracked_pos_lost is empty and update is null
        "fig6-id-smag-80dBm": (
            "fig6",
            {"enabled_kinds": frozenset({PacketKind.ID, PacketKind.SMAG}), "noise_floor_dbm": -80.0},
            "12593ad0b6f64efddad1795abc7ca2bf792b3d73204516d6fcaf62d49624babc",
        ),
        # two of six kinds with the tracked aircraft gated
        "fig6-pos-tss-gated-tracked": (
            "fig6",
            {
                "enabled_kinds": frozenset({PacketKind.POS, PacketKind.TSS}),
                "ber_mode": "per_bit",
                "plane_radius_km": 400.0,
                "tracked_aircraft": 5,
            },
            "cc50d63b0136c95961265fcd97612c3e9b2d221e4fd490ea634690baedfb6148",
        ),
        # two packet pairs whose float times overlapped by under 1 ns meet
        # exactly in whole nanoseconds, so none of the four collides
        "fig7-seed2": (
            "fig7", {"seed": 2},
            "535aa0db70a9ecd0d222db0d432fe67f0c7446ac7517de7d3cdb967e4e10700e",
        ),
    }

    @pytest.mark.parametrize("preset", sorted(PINNED))
    def test_report_bytes_pinned(self, preset):
        report = run(load_preset(f"{preset}.scn"))
        assert hashlib.sha256(report.to_json_bytes()).hexdigest() == self.PINNED[preset]

    @pytest.mark.parametrize("name", sorted(VARIANTS))
    def test_variant_report_bytes_pinned(self, name):
        preset, overrides, digest = self.VARIANTS[name]
        report = run(load_preset(f"{preset}.scn").with_overrides(**overrides))
        assert hashlib.sha256(report.to_json_bytes()).hexdigest() == digest


def reference_packets(cfg):
    """One (start, emitter, kind, corrupted, gated) tuple per generated packet.

    Each aircraft's timeline is drawn kind by kind from its traffic stream,
    and its channel uniforms kind by kind from its channel stream, one per
    packet; a packet is corrupted iff its uniform is >= 1 - P_bad. Starts are
    in the model's clock: whole nanoseconds, rounded to nearest.
    """
    link = LinkBudget.from_config(cfg)
    kinds = [k for k in KIND_ORDER if k in cfg.enabled_kinds]
    fleet = build_fleet(cfg)
    state = aircraft_link_state(fleet.distance_km, fleet.power_dbm, link)
    packets = []
    for a in fleet:
        t_rng = traffic_rng(cfg.seed, a.id)
        times = {kind: np.rint(emission_times(kind, cfg.duration_s, t_rng) * 1e9) for kind in kinds}
        c_rng = channel_rng(cfg.seed, a.id)
        for kind in kinds:
            p_bad = corruption_probability(float(state.pe_bit[a.id]), kind, link.ber_mode)
            uniforms = c_rng.uniform(0.0, 1.0, times[kind].size)
            for start, u in zip(times[kind], uniforms):
                corrupted = cfg.channel_errors_enabled and bool(u >= 1.0 - p_bad)
                gated = cfg.channel_errors_enabled and bool(state.below_sensitivity[a.id])
                packets.append((int(start), a.id, kind, corrupted, gated))
    return packets


def assert_engine_matches_per_module_pipeline(cfg):
    # run() == per-packet reference: timelines -> channel -> sort -> collisions
    # among the packets that reach the receiver -> one verdict per packet
    report = run(cfg)

    packets = sorted(reference_packets(cfg), key=lambda p: (p[0], p[1], KIND_INDEX[p[2]]))
    audible = [p for p in packets if not p[4]]
    hits = iter(
        collision_mask(
            np.array([p[0] for p in audible], dtype=np.int64),
            np.array([round(packet_duration_s(p[2]) * 1e9) for p in audible], dtype=np.int64),
            np.array([p[1] for p in audible], dtype=np.int64),
        )
    )

    counts = np.zeros_like(report.counts)
    tracked_pos_lost = []
    for start, emitter, kind, corrupted, gated in packets:
        if gated:
            verdict = Verdict.LOST_BELOW_SENSITIVITY
        elif next(hits):
            verdict = Verdict.LOST_COLLISION
        elif corrupted:
            verdict = Verdict.LOST_CORRUPTED
        else:
            verdict = Verdict.RECEIVED
        counts[emitter, KIND_INDEX[kind], verdict] += 1
        if emitter == cfg.tracked_aircraft and kind is PacketKind.POS:
            tracked_pos_lost.append(verdict is not Verdict.RECEIVED)
    assert np.array_equal(counts, report.counts)
    assert report.tracked_pos_lost.tolist() == tracked_pos_lost
    return report


@st.composite
def channel_configs(draw):
    """Channel-on small configs at a -95 to -75 dBm floor, with planes out to
    400 km so that some fall below the sensitivity gate (about 127 km)."""
    cfg = draw(small_configs())
    return cfg.with_overrides(
        channel_errors_enabled=True,
        plane_radius_km=draw(st.floats(50.0, 400.0)),
        noise_floor_dbm=draw(st.floats(-95.0, -75.0)),
    )


class TestModuleCompositionEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(cfg=channel_configs())
    def test_engine_matches_per_module_pipeline_property(self, cfg):
        # the reference draws each kind's channel uniforms in its own call,
        # the engine one block per aircraft: the streams must agree
        assert_engine_matches_per_module_pipeline(cfg)

    def test_engine_matches_per_module_pipeline(self):
        cfg = ScenarioConfig(
            n_planes=6, n_uavs=2, duration_s=40.0, seed=77,
            noise_floor_dbm=-80.0,  # loud enough that corruption actually occurs
        )
        assert_engine_matches_per_module_pipeline(cfg)

    def test_engine_matches_per_module_pipeline_with_gated_aircraft(self):
        # planes beyond about 127 km fall below sensitivity; the UAVs do not
        cfg = ScenarioConfig(
            n_planes=6, n_uavs=2, duration_s=40.0, seed=77, plane_radius_km=400.0,
            noise_floor_dbm=-80.0,
        )
        report = assert_engine_matches_per_module_pipeline(cfg)
        assert 0 < int(report.counts[:, :, Verdict.LOST_BELOW_SENSITIVITY].sum()) < report.generated_total

    def test_gated_tracked_aircraft_loses_every_pos_packet(self):
        cfg = ScenarioConfig(
            n_planes=6, n_uavs=2, duration_s=40.0, seed=77, plane_radius_km=400.0,
            noise_floor_dbm=-80.0,
        )
        link = LinkBudget.from_config(cfg)
        fleet = build_fleet(cfg)
        gated = np.flatnonzero(aircraft_link_state(fleet.distance_km, fleet.power_dbm, link).below_sensitivity).tolist()
        report = assert_engine_matches_per_module_pipeline(cfg.with_overrides(tracked_aircraft=gated[0]))
        assert report.tracked_pos_lost.size > 0 and report.tracked_pos_lost.all()
        assert report.update is not None and report.update.probability == 0.0

    def test_every_aircraft_gated(self):
        cfg = ScenarioConfig(n_planes=3, duration_s=5.0, seed=3, plane_radius_km=5000.0)
        report = assert_engine_matches_per_module_pipeline(cfg)
        assert report.generated_total > 0
        assert int(report.counts[:, :, Verdict.LOST_BELOW_SENSITIVITY].sum()) == report.generated_total

    def test_collision_only_scenario_matches_analytic_oracle(self):
        cfg = ScenarioConfig(
            n_planes=50,
            enabled_kinds=frozenset({PacketKind.POS, PacketKind.ID}),
            channel_errors_enabled=False,
            seed=2,
        )
        report = run(cfg)
        assert report.received_ratio == pytest.approx(aloha_expected_ratio(cfg), abs=0.03)

    @pytest.mark.parametrize("n_planes", [21, 22, 42, 43, 5_461, 5_462, 10_922, 10_923])
    def test_engine_matches_per_module_pipeline_at_block_dtype_boundaries(self, n_planes):
        # the resolve holds each packet's low code block << 1 | bad in the
        # narrowest unsigned type that holds twice the block count, six
        # blocks per aircraft: 21 and 5,461 aircraft are the last fleets of
        # uint8 and uint16, 22 and 5,462 the first of uint16 and uint32. A
        # fleet at the top of a type is the one whose tally code, one bit
        # wider, would wrap if it were computed in that type. 42/43 and
        # 10,922/10,923 aircraft are the same boundaries for the block index
        # alone. SMAG is last in KIND_ORDER, so the last aircraft's SMAG
        # block is the highest index; POS feeds the tracked-aircraft metrics
        cfg = ScenarioConfig(
            n_planes=n_planes, duration_s=0.7, seed=5, noise_floor_dbm=-80.0,
            enabled_kinds=frozenset({PacketKind.POS, PacketKind.SMAG}), tracked_aircraft=n_planes - 1,
        )
        report = assert_engine_matches_per_module_pipeline(cfg)
        assert report.counts[-1, KIND_INDEX[PacketKind.SMAG]].sum() > 0
        assert report.tracked_pos_lost.size > 0


class TestMemoryBudget:
    """scenario.MAX_PACKETS rests on these traced peaks per packet."""

    @staticmethod
    def traced_peak_per_packet(cfg):
        run(cfg.with_overrides(duration_s=5.0))  # one-off allocations are not per packet
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            report = run(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return (peak - before) / report.generated_total

    def test_traced_peak_per_packet(self):
        # a fig7 run peaks with its packet keys, beside the uniform scratch
        # and one key group's temporaries before the buffer gives back its
        # free slots, or beside one resolve chunk's temporaries after: 11.33
        # traced bytes per packet here, in the draw loop (11.98 while the
        # starts were drawn into a scratch of their own, 13.64 with that
        # scratch at a _KEY_GROUP of 32 K slots and 11.25 at 8 K, where the
        # resolve was the peak; 11.30 while each aircraft wrote its own keys,
        # 11.74 while the starts were drawn into a run-sized float64 buffer,
        # 27.98 before the chunked resolve)
        cfg = load_preset("fig7.scn").with_overrides(duration_s=100.0, seed=3)
        assert self.traced_peak_per_packet(cfg) <= 16.0

    def test_dense_fleet_resolved_as_one_chunk(self, monkeypatch):
        # a fleet with no 120 us gap between starts is resolved as one chunk
        # as long as the run. It peaks inside collision_mask with the packet
        # keys, 8 bytes per packet of uint16 low codes and emitters and int32
        # durations, and the temporaries of the many packets that continue a
        # cluster: 42.87 traced bytes per packet here (615,156 packets; 60.84
        # with the chunk forced onto the near-only resolve)
        monkeypatch.setattr(engine, "_CHUNK", MAX_PACKETS)
        assert self.traced_peak_per_packet(ScenarioConfig(n_planes=3000, duration_s=20.0, seed=1)) <= 48.0


class TestPacketBufferCapacity:
    @pytest.mark.parametrize("errors_on", [False, True])
    @pytest.mark.parametrize("slack", [0, 1])
    @pytest.mark.parametrize("over", [0, 2])
    def test_over_capacity_aircraft_raises_before_writing(self, monkeypatch, over, slack, errors_on):
        # aircraft `over` emits one packet above the bound and the others
        # bound - slack. With no slack the last aircraft's packets would pass
        # the end of the buffer; with slack an unchecked run would shift the
        # later aircraft's packets and finish without an error. With channel
        # errors on, the corruption bits are written with the keys, so the
        # aircraft must not draw its channel stream either (all three planes
        # are audible at this seed)
        cfg = ScenarioConfig(
            n_planes=3, duration_s=10.0, seed=1, channel_errors_enabled=errors_on,
            enabled_kinds=frozenset({PacketKind.POS}),
        )
        bound = max_emissions(PacketKind.POS, cfg.duration_s)
        calls = []
        channel_draws = []

        def emission_times(kind, horizon_s, rng):
            calls.append(kind)
            size = bound + 1 if len(calls) == over + 1 else bound - slack
            return np.linspace(0.0, horizon_s, size, endpoint=False)

        def counted_channel_rng(seed, aircraft_id):
            channel_draws.append(aircraft_id)
            return channel_rng(seed, aircraft_id)

        monkeypatch.setattr(engine, "emission_times", emission_times)
        monkeypatch.setattr(engine, "channel_rng", counted_channel_rng)
        message = f"aircraft {over} emitted {bound + 1} packets, above its bound of {bound}: traffic.max_emissions"
        with pytest.raises(AssertionError, match=message):
            run(cfg)
        assert len(calls) == over + 1
        assert channel_draws == (list(range(over)) if errors_on else [])


class TestSortKeyWidth:
    def test_widest_valid_config_fits_in_int64(self):
        # run() sorts int64 keys tick << s | block << 1 | bad with
        # s = n_blocks.bit_length() + 1 and six blocks per aircraft. problems()
        # bounds the fleet by MAX_AIRCRAFT and its expected packets by
        # MAX_PACKETS, so the longest ticks for a block width come from the
        # smallest fleet of that width flying only the slowest kind. Under
        # today's constants the widest key is exactly 63 bits
        slowest = min(PacketKind, key=lambda k: SCHEDULES[k].rate_hz)
        n_kinds = len(KIND_ORDER)
        widest = 0
        for block_bits in range(n_kinds.bit_length(), (MAX_AIRCRAFT * n_kinds).bit_length() + 1):
            n_aircraft = -(-(1 << (block_bits - 1)) // n_kinds)
            assert (n_aircraft * n_kinds).bit_length() == block_bits and n_aircraft <= MAX_AIRCRAFT
            duration_s = MAX_PACKETS / (n_aircraft * SCHEDULES[slowest].rate_hz)
            cfg = ScenarioConfig(n_planes=n_aircraft, duration_s=duration_s, enabled_kinds=frozenset({slowest}))
            for _ in range(4):  # the quotient can round just above the bound
                if cfg.problems():
                    cfg = cfg.with_overrides(duration_s=float(np.nextafter(cfg.duration_s, 0.0)))
            assert cfg.problems() == []
            assert cfg.with_overrides(duration_s=duration_s * (1 + 1e-9)).problems() != []
            tick_bits = int(np.rint(cfg.duration_s * 1e9)).bit_length()
            widest = max(widest, tick_bits + block_bits + 1)
        assert widest <= 63


class TestZeroPackets:
    """A valid config whose horizon ends before the first ID squitter."""

    @pytest.mark.parametrize("errors_on", [False, True])
    def test_run_and_replicated_give_all_zero_counts(self, errors_on):
        cfg = load_preset("fig3_50.scn").with_overrides(
            duration_s=0.1,
            enabled_kinds=frozenset({PacketKind.ID}),
            channel_errors_enabled=errors_on,
        )
        report = run(cfg)
        assert report.counts.shape == (50, len(KIND_INDEX), len(Verdict))
        assert not report.counts.any()
        assert report.received_ratio is None
        assert report.update is None and report.pos_loss_runs == {}
        doc = report.to_dict()
        assert doc["generated"] == 0 and doc["received_ratio"] is None
        assert doc["per_class"] == {"plane": None, "uav": None}

        result = run_replicated(cfg, 3)
        assert all(not r.counts.any() for r in result.reports)
        assert result.summary == {}
        rows = replicated_to_dict(cfg, result)["replications"]
        assert [row["received_ratio"] for row in rows] == [None, None, None]

    def test_received_ratio_left_out_when_any_replication_is_empty(self):
        base = ScenarioConfig(n_planes=2, duration_s=10.0, channel_errors_enabled=False)
        empty = run(base.with_overrides(duration_s=0.1, enabled_kinds=frozenset({PacketKind.ID})))
        summary = summarize_reports([run(base), empty])
        assert "received_ratio" not in summary
        assert "plane_received_ratio" not in summary

    def test_no_reports_summarize_to_nothing(self):
        assert summarize_reports([]) == {}
        assert ReplicationResult(()).summary == {}


class TestReplication:
    CFG = ScenarioConfig(n_planes=10, duration_s=60.0, seed=5, channel_errors_enabled=False)

    def test_single_replication_summary_equals_report(self):
        result = run_replicated(self.CFG, 1)
        assert len(result.reports) == 1
        assert result.summary["received_ratio"]["mean"] == result.reports[0].received_ratio
        assert result.summary["received_ratio"]["std"] == 0.0

    def test_replication_seeds_are_derived_and_distinct(self):
        result = run_replicated(self.CFG, 4)
        seeds = [r.config.seed for r in result.reports]
        assert seeds == [replication_seed(self.CFG.seed, k) for k in range(4)]
        assert len(set(seeds)) == 4

    def test_summary_order_independent(self):
        result = run_replicated(self.CFG, 5)
        assert summarize_reports(reversed(result.reports)) == result.summary

    def test_uav_ratio_only_when_uavs_present(self):
        assert "uav_received_ratio" not in run_replicated(self.CFG, 1).summary
        with_uavs = run_replicated(self.CFG.with_overrides(n_uavs=3), 1)
        assert "uav_received_ratio" in with_uavs.summary

    def test_replication_count_validated(self):
        with pytest.raises(ValueError):
            run_replicated(self.CFG, 0)


class TestReportViews:
    def test_class_ratios(self):
        cfg = ScenarioConfig(n_planes=8, n_uavs=4, duration_s=60.0, seed=2)
        report = run(cfg)
        assert report.class_ratio(AirframeKind.PLANE) is not None
        assert report.class_ratio(AirframeKind.UAV) is not None
        plane_only = run(ScenarioConfig(n_planes=3, duration_s=30.0, seed=2))
        assert plane_only.class_ratio(AirframeKind.UAV) is None

    def test_distance_bins_cover_every_aircraft(self):
        cfg = ScenarioConfig(n_planes=40, n_uavs=10, duration_s=30.0, seed=8)
        report = run(cfg)
        rows = report.distance_bins()
        assert sum(r.n_aircraft for r in rows) == 50
        assert sum(r.generated for r in rows) == report.generated_total

    def test_csv_sections(self):
        cfg = ScenarioConfig(n_planes=3, n_uavs=1, duration_s=20.0, seed=2)
        text = run(cfg).to_csv()
        for header in (
            "# sim1090 run-summary v1",
            "# sim1090 aircraft-outcomes v1",
            "# sim1090 pos-loss-runs v1",
            "# sim1090 distance-bins v1",
        ):
            assert header in text

    def test_json_schema_field(self):
        cfg = ScenarioConfig(n_planes=1, duration_s=10.0, seed=2)
        doc = run(cfg).to_dict()
        assert doc["schema"] == "sim1090/run-report/v2"


@st.composite
def small_configs(draw):
    """Valid configs of at most 12 aircraft and 20 s, channel on or off."""
    n_planes = draw(st.integers(0, 8))
    n_uavs = draw(st.integers(0 if n_planes else 1, 4))
    return ScenarioConfig(
        n_planes=n_planes,
        n_uavs=n_uavs,
        plane_radius_km=draw(st.floats(5.0, 400.0)),
        uav_radius_km=draw(st.floats(0.5, 5.0)),
        noise_floor_dbm=draw(st.floats(-110.0, -70.0)),
        duration_s=draw(st.floats(0.1, 20.0)),
        seed=draw(st.integers(0, 2**63)),
        enabled_kinds=frozenset(draw(st.sets(st.sampled_from(KIND_ORDER), min_size=1))),
        channel_errors_enabled=draw(st.booleans()),
        ber_mode=draw(st.sampled_from(BER_MODES)),
        tracked_aircraft=draw(st.integers(0, n_planes + n_uavs - 1)),
        area_uniform=draw(st.booleans()),
    )


class TestEngineProperties:
    @settings(max_examples=40, deadline=None)
    @given(cfg=small_configs())
    def test_verdicts_partition_generated_packets(self, cfg):
        report = run(cfg)
        doc = report.to_dict()
        assert sum(doc["verdict_totals"].values()) == doc["generated"]
        kinds = [k for k in KIND_ORDER if k in cfg.enabled_kinds]
        for row in doc["per_aircraft"]:
            t_rng = traffic_rng(cfg.seed, row["id"])
            generated = sum(emission_times(k, cfg.duration_s, t_rng).size for k in kinds)
            assert row["generated"] == generated
            lost = row["lost_collision"] + row["lost_corrupted"] + row["lost_below_sensitivity"]
            assert row["received"] + lost == generated
        # the tracked aircraft's POS flags agree with its tally row, and the
        # tracked metrics follow from the flags
        flags = report.tracked_pos_lost
        tally = report.counts[cfg.tracked_aircraft, KIND_INDEX[PacketKind.POS]]
        assert flags.size == tally.sum()
        assert flags.sum() == tally.sum() - tally[Verdict.RECEIVED]
        assert report.pos_loss_runs == loss_run_histogram(~flags)
        assert report.update == update_probability(~flags, cfg.deadline_s)

    @settings(max_examples=25, deadline=None)
    @given(cfg=small_configs())
    def test_report_bytes_deterministic(self, cfg):
        assert run(cfg).to_json_bytes() == run(cfg).to_json_bytes()

    @settings(max_examples=25, deadline=None)
    @given(cfg=small_configs())
    def test_channel_errors_off_corrupts_and_gates_nothing(self, cfg):
        for radius_km in (cfg.plane_radius_km, 400.0):
            report = run(cfg.with_overrides(channel_errors_enabled=False, plane_radius_km=radius_km))
            assert int(report.counts[:, :, Verdict.LOST_CORRUPTED].sum()) == 0
            assert int(report.counts[:, :, Verdict.LOST_BELOW_SENSITIVITY].sum()) == 0

    @settings(max_examples=40, deadline=None)
    @given(cfg=small_configs(), k=st.integers(1, 4))
    def test_appended_aircraft_leave_the_prefix_no_better_off(self, cfg, k):
        # every stream is keyed by (seed, role, aircraft id) and the fleet
        # stream draws planes before UAVs, so aircraft appended to the id
        # order (UAVs, or planes when there are none) leave the first n
        # aircraft's draws alone; their packets can only join overlap
        # clusters, so no packet of the first n goes from lost to received
        appended = {"n_uavs": cfg.n_uavs + k} if cfg.n_uavs else {"n_planes": cfg.n_planes + k}
        base, more = run(cfg), run(cfg.with_overrides(**appended))
        n = len(base.fleet)
        assert np.array_equal(more.fleet.distance_km[:n], base.fleet.distance_km)
        assert np.array_equal(more.counts[:n].sum(axis=2), base.counts.sum(axis=2))
        assert np.all(more.counts[:n, :, Verdict.RECEIVED] <= base.counts[:, :, Verdict.RECEIVED])
        assert more.tracked_pos_lost.size == base.tracked_pos_lost.size
        assert np.all(more.tracked_pos_lost[base.tracked_pos_lost])

    @settings(max_examples=60, deadline=None)
    @given(cfg=small_configs(), rise_db=st.floats(0.0, 3.0))
    def test_received_ratio_non_increasing_in_noise_floor(self, cfg, rise_db):
        # common random numbers: one seed gives the same timelines, channel
        # uniforms and gate at every floor; only P_bad grows with the floor
        quiet = run(cfg.with_overrides(channel_errors_enabled=True))
        loud = run(cfg.with_overrides(channel_errors_enabled=True, noise_floor_dbm=cfg.noise_floor_dbm + rise_db))
        assert loud.generated_total == quiet.generated_total
        if quiet.generated_total:
            assert loud.received_ratio <= quiet.received_ratio


@st.composite
def packed_keys(draw):
    """Sorted packed keys tick << s | low with random low bits, made of
    stretches whose starts follow each other by less than the longest on-air
    time, joined by gaps of about that time, and a start b for the cut
    search: anywhere from the second packet to past the last one. Stretches
    may be longer than the cut's first window and longer than _CHUNK."""
    longest = engine._LONGEST_NS
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = draw(st.integers(1, 24))
    lengths = draw(st.lists(st.one_of(
        st.integers(1, 3 * engine._CUT_WINDOW),
        st.integers(engine._CHUNK, engine._CHUNK + 4 * engine._CUT_WINDOW),
    ), min_size=1, max_size=4))
    gaps = []
    for i, length in enumerate(lengths):
        inside = rng.integers(0, longest, length)
        inside[rng.random(length) < 0.1] = longest - 1
        inside[0] = draw(st.sampled_from([longest, longest + 1, 50 * longest])) if i else rng.integers(0, 1 << 20)
        gaps.append(inside)
    tick = np.cumsum(np.concatenate(gaps))
    key = np.sort(tick << s | rng.integers(0, 1 << s, tick.size))
    b = draw(st.one_of(st.just(key.size - 1), st.integers(1, key.size + engine._CHUNK)))
    return key, s, max(b, 1)


def chunked_run(cfg, chunk, spacing):
    """run(cfg) with engine._CHUNK = chunk and engine._SPARSE_SPACING =
    spacing, and the (start ticks, emitters) of each chunk that reached
    collision_mask."""
    chunks = []

    def spy(starts, durations, emitters):
        chunks.append((np.array(starts), emitters))
        return collision_mask(starts, durations, emitters)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_CHUNK", chunk)
        mp.setattr(engine, "_SPARSE_SPACING", spacing)
        mp.setattr(engine, "collision_mask", spy)
        return run(cfg), chunks


def near_audible_packets(cfg) -> list[tuple[int, int]]:
    """Sorted (start tick, emitter) of the audible packets of reference_packets
    whose start lies less than the longest on-air time from the start before
    or after it in start order."""
    audible = sorted((p[0], p[1]) for p in reference_packets(cfg) if not p[4])
    ticks = [t for t, _ in audible]
    return [
        packet for i, packet in enumerate(audible)
        if (i > 0 and ticks[i] - ticks[i - 1] < engine._LONGEST_NS)
        or (i + 1 < len(ticks) and ticks[i + 1] - ticks[i] < engine._LONGEST_NS)
    ]


def seen_packets(chunks) -> list[tuple[int, int]]:
    """Sorted (start tick, emitter) of every packet collision_mask saw."""
    return sorted((int(t), int(e)) for starts, emitters in chunks for t, e in zip(starts, emitters))


class TestChunkedResolve:
    """The resolve cuts the sorted packets only where a start follows the one
    before it by at least the longest on-air time, so no overlap cluster
    spans two chunks and the chunk size never moves a report byte. A chunk
    whose mean start spacing is at least _SPARSE_SPACING longest on-air times
    resolves only its near packets, and that never moves a byte either.

    Each case runs on both paths: forced whole (no chunk is sparse), where
    collision_mask sees every audible packet, and forced sparse (every chunk
    is), where it sees exactly the audible packets whose start lies within
    the longest on-air time of a neighbour's."""

    CHUNKS = (1, 2, 7, 64)
    PATHS = {"whole": math.inf, "sparse": 0}

    def assert_chunk_free(self, cfg):
        whole = run(cfg)
        audible = int(whole.counts[:, :, :Verdict.LOST_BELOW_SENSITIVITY].sum())
        near = near_audible_packets(cfg)
        chunks = {}
        for path, spacing in self.PATHS.items():
            for chunk in self.CHUNKS:
                report, seen = chunked_run(cfg, chunk, spacing)
                assert report.to_json_bytes() == whole.to_json_bytes()
                assert np.array_equal(report.counts, whole.counts)
                assert np.array_equal(report.tracked_pos_lost, whole.tracked_pos_lost)
                if path == "whole":
                    assert sum(e.size for _, e in seen) == audible
                else:
                    assert seen_packets(seen) == near
                chunks[path, chunk] = [e for _, e in seen]
        return whole, chunks

    @settings(max_examples=30, deadline=None)
    @given(cfg=small_configs())
    def test_chunk_size_keeps_report_bytes(self, cfg):
        self.assert_chunk_free(cfg)

    def test_dense_fleet_grows_chunks_to_a_gap(self):
        # 3,000 planes over 0.5 s: over 9,000 packets, about 20-30 us apart
        # in the busy stretches, where no 120 us gap comes for hundreds of
        # packets
        report, chunks = self.assert_chunk_free(ScenarioConfig(n_planes=3000, duration_s=0.5, seed=1))
        assert report.generated_total > 9000
        for path in self.PATHS:
            for chunk in self.CHUNKS:
                assert len(chunks[path, chunk]) > 1
                assert max(e.size for e in chunks[path, chunk]) > 64

    def test_tracked_pos_packets_span_many_chunks(self):
        cfg = ScenarioConfig(n_planes=20, n_uavs=5, duration_s=30.0, seed=9, noise_floor_dbm=-80.0, tracked_aircraft=22)
        report, chunks = self.assert_chunk_free(cfg)
        assert report.tracked_pos_lost.size > 50
        assert 0 < report.tracked_pos_lost.sum() < report.tracked_pos_lost.size
        # its packets reach collision_mask in 120 of the 121 chunks on the
        # whole path, and its near packets in 20 on the sparse path
        assert sum(bool(np.any(e == cfg.tracked_aircraft)) for e in chunks["whole", 64]) > 20
        assert sum(bool(np.any(e == cfg.tracked_aircraft)) for e in chunks["sparse", 64]) > 10

    def test_gated_tracked_aircraft(self):
        cfg = ScenarioConfig(
            n_planes=6, n_uavs=2, duration_s=40.0, seed=77, plane_radius_km=400.0, noise_floor_dbm=-80.0,
        )
        fleet = build_fleet(cfg)
        gated = aircraft_link_state(fleet.distance_km, fleet.power_dbm, LinkBudget.from_config(cfg)).below_sensitivity
        report, _ = self.assert_chunk_free(cfg.with_overrides(tracked_aircraft=int(np.flatnonzero(gated)[0])))
        assert report.tracked_pos_lost.size > 0 and report.tracked_pos_lost.all()

    def test_chunk_spacing_picks_the_path(self):
        # at the default spacing a fleet of 25 POS and ID senders (starts
        # about 150 longest on-air times apart) resolves only its near
        # packets, and 3,000 planes over 0.5 s (about half of one) every
        # audible packet
        sparse = load_preset("fig3_50.scn").with_overrides(n_planes=25, duration_s=20.0)
        _, seen = chunked_run(sparse, engine._CHUNK, engine._SPARSE_SPACING)
        assert 0 < len(seen_packets(seen)) < run(sparse).generated_total
        assert seen_packets(seen) == near_audible_packets(sparse)
        dense = ScenarioConfig(n_planes=3000, duration_s=0.5, seed=1)
        report, seen = chunked_run(dense, engine._CHUNK, engine._SPARSE_SPACING)
        assert sum(e.size for _, e in seen) == report.generated_total

    @settings(max_examples=200, deadline=None)
    @given(
        start=st.integers(0, 2**40),
        gaps=st.lists(st.one_of(
            st.sampled_from([0, 1, engine._LONGEST_NS - 1, engine._LONGEST_NS, engine._LONGEST_NS + 1]),
            st.integers(0, 3 * engine._LONGEST_NS),
        ), max_size=30),
    )
    def test_near_packets_at_the_edge(self, start, gaps):
        tick = start + np.cumsum([0, *gaps], dtype=np.int64)
        brute = [
            i for i in range(tick.size)
            if any(j != i and abs(int(tick[j]) - int(tick[i])) < engine._LONGEST_NS for j in range(tick.size))
        ]
        assert engine._near(tick).tolist() == brute
        assert engine._near(tick[:0]).size == 0

    def test_zero_packets(self):
        cfg = load_preset("fig3_50.scn").with_overrides(duration_s=0.1, enabled_kinds=frozenset({PacketKind.ID}))
        report, chunks = self.assert_chunk_free(cfg)
        assert report.generated_total == 0
        assert all(seen == [] for seen in chunks.values())

    @settings(max_examples=60, deadline=None)
    @given(case=packed_keys())
    def test_cut_is_the_first_gap_at_or_after_its_start(self, case):
        key, s, b = case
        gap = np.flatnonzero(np.diff(key >> s) >= engine._LONGEST_NS) + 1
        later = gap[gap >= b]
        assert engine._cluster_free_cut(key, s, b) == (int(later[0]) if later.size else key.size)


@st.composite
def key_group_configs(draw):
    """small_configs, some stretched to a horizon at which one aircraft's
    packet bound is a third of the default key group (a few aircraft to a
    group) or above it (one aircraft to a group)."""
    cfg = draw(small_configs())
    share = draw(st.sampled_from([None, 0.3, 1.1]))
    if share is None:
        return cfg
    per_second = sum(1 / SCHEDULES[k].jitter_lo_s for k in cfg.enabled_kinds)
    return cfg.with_overrides(duration_s=share * engine._KEY_GROUP / per_second)


#: six planes and two UAVs of about 5,200 packets each, whose packet bound
#: over the six kinds, 6,567, puts two aircraft in each default key group:
#: 0-1, 2-3, 4-5 and 6-7. With channel errors on, aircraft 1 and 3 are
#: gated, each the last in its group; the tracked aircraft 1 is gated
MIXED_FLEET = ScenarioConfig(
    n_planes=6, n_uavs=2, duration_s=500.0, seed=71, plane_radius_km=400.0, noise_floor_dbm=-80.0, tracked_aircraft=1,
)
#: the same fleet over 400 s, whose bound, 5,254, puts three aircraft in a
#: group, so the last group, 6-7, is partial; aircraft 7 is tracked
PARTIAL_GROUP = MIXED_FLEET.with_overrides(duration_s=400.0, tracked_aircraft=7)
#: three planes whose packet bound, 18,379 over the six kinds, is above the
#: default key group, so each is a group alone
LONG_HORIZON = ScenarioConfig(n_planes=3, duration_s=1400.0, seed=1, tracked_aircraft=1)


def packet_bound(cfg):
    return sum(max_emissions(k, cfg.duration_s) for k in cfg.enabled_kinds)


class TestKeyGroups:
    """run() draws the aircraft in fixed groups of max(1, _KEY_GROUP // bound)
    and finishes each group's keys together. The group size never moves a
    report byte, and the tracked POS flags are the tracked aircraft's own."""

    @settings(max_examples=30, deadline=None)
    @given(cfg=key_group_configs())
    @example(cfg=MIXED_FLEET)
    # tracked first in its group, after the gated aircraft 3
    @example(cfg=MIXED_FLEET.with_overrides(tracked_aircraft=4))
    # tracked first in its group, after the audible aircraft 1
    @example(cfg=MIXED_FLEET.with_overrides(channel_errors_enabled=False, tracked_aircraft=2))
    @example(cfg=PARTIAL_GROUP)
    @example(cfg=LONG_HORIZON)
    def test_group_size_keeps_report_bytes(self, cfg):
        # 1 puts each aircraft in a group alone and MAX_PACKETS all in one
        reports = []
        for group in (1, engine._KEY_GROUP, MAX_PACKETS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(engine, "_KEY_GROUP", group)
                reports.append(run(cfg))
        assert reports[0].to_json_bytes() == reports[1].to_json_bytes() == reports[2].to_json_bytes()
        # the flags are read from the tracked slots whatever the group size:
        # they must agree with the tracked aircraft's tally row
        flags = reports[1].tracked_pos_lost
        tally = reports[1].counts[cfg.tracked_aircraft, KIND_INDEX[PacketKind.POS]]
        assert flags.size == tally.sum()
        assert flags.sum() == tally.sum() - tally[Verdict.RECEIVED]

    def test_examples_reach_the_group_edges(self):
        assert engine._KEY_GROUP // packet_bound(MIXED_FLEET) == 2
        assert engine._KEY_GROUP // packet_bound(PARTIAL_GROUP) == 3
        assert (PARTIAL_GROUP.n_planes + PARTIAL_GROUP.n_uavs) % 3 == 2
        assert packet_bound(LONG_HORIZON) > engine._KEY_GROUP
        for cfg in (MIXED_FLEET, PARTIAL_GROUP):
            gated = run(cfg).counts[:, :, Verdict.LOST_BELOW_SENSITIVITY].sum(axis=1) > 0
            assert gated.tolist() == [False, True, False, True, False, False, False, False]


def rendered(value) -> str:
    """A JSON report value as its CSV cell: 6 significant digits, null as empty."""
    if value is None:
        return ""
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def csv_sections(text: str) -> dict[str, list[list[str]]]:
    """Rows of a sectioned CSV document by section name, column line first."""
    sections = {}
    for line in text.splitlines():
        if line.startswith("# sim1090 "):
            rows = sections[line.split()[2]] = []
        else:
            rows.append(line.split(","))
    return sections


class TestJsonCsvAgree:
    """Every cell of a CSV table equals the matching JSON value."""

    @settings(max_examples=40, deadline=None)
    @given(cfg=small_configs())
    def test_run_csv_matches_to_dict(self, cfg):
        report = run(cfg)
        doc, sections = report.to_dict(), csv_sections(report.to_csv())

        columns, *rows = sections["distance-bins"]
        assert rows == [[rendered(b[c]) for c in columns] for b in doc["distance_bins"]]

        update = doc["update_probability"]
        expected = {
            **{key: doc[key] for key in ("seed", "generated", "received", "received_ratio")},
            **doc["verdict_totals"],
            **{f"{cls}_received_ratio": ratio for cls, ratio in doc["per_class"].items()},
            **{
                f"update_{key}": update[key]
                for key in ("probability", "window_k", "failed_windows", "total_windows")
                if update is not None
            },
        }
        columns, *rows = sections["run-summary"]
        assert columns == ["key", "value"]
        assert {key for key, _ in rows} == set(expected)
        for key, cell in rows:
            assert cell == rendered(expected[key]), key

        # the (aircraft, kind) cells: non-empty only, kinds in KIND_ORDER, and
        # summed per aircraft they give the JSON per-aircraft rows
        columns, *rows = sections["aircraft-outcomes"]
        assert columns == ["aircraft_id", "class", "distance_km", "kind", *VERDICT_COLUMNS]
        kind_positions, summed = {}, {}
        for aircraft_id, cls, distance, kind, *tally in rows:
            assert int(tally[0]) > 0
            key = (aircraft_id, cls, distance)
            kind_positions.setdefault(key, []).append([str(k) for k in KIND_ORDER].index(kind))
            summed[key] = [a + int(b) for a, b in zip(summed.get(key, [0] * len(tally)), tally)]
        assert all(p == sorted(set(p)) for p in kind_positions.values())
        expected = {
            (str(a["id"]), a["class"], rendered(a["distance_km"])): [a[c] for c in VERDICT_COLUMNS]
            for a in doc["per_aircraft"]
            if a["generated"]
        }
        assert list(summed.items()) == list(expected.items())

    @settings(max_examples=20, deadline=None)
    @given(cfg=small_configs(), n_reps=st.integers(1, 3))
    def test_replicated_csv_matches_replicated_to_dict(self, cfg, n_reps):
        result = run_replicated(cfg, n_reps)
        doc = replicated_to_dict(cfg, result)
        sections = csv_sections(replicated_csv(result))

        columns, *rows = sections["replications"]
        assert columns == ["rep", "seed", "received_ratio", "update_probability"]
        assert rows == [
            [str(k), *(rendered(row[c]) for c in columns[1:])]
            for k, row in enumerate(doc["replications"])
        ]
        columns, *rows = sections["replicated-summary"]
        summary = doc["summary"]
        assert rows == [[m, rendered(s["mean"]), rendered(s["std"])] for m, s in summary.items()]
