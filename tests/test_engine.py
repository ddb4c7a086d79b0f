"""Engine tests: determinism, pinned report bytes, conservation,
module-composition equivalence, zero-packet runs, replication summaries and
the event queue."""

import hashlib

import numpy as np
import pytest

from sim1090.aloha import Verdict, resolve
from sim1090.channel import LinkBudget, aircraft_link_state, classify_timeline
from sim1090.cli import load_preset
from sim1090.engine import EventQueue, replicated_to_dict, run, run_replicated, summarize_reports
from sim1090.frames import AirframeKind
from sim1090.metrics import aloha_expected_ratio
from sim1090.packets import KIND_INDEX, PacketKind
from sim1090.scenario import ScenarioConfig, ValidationError, build_fleet
from sim1090.seeding import channel_rng, replication_seed, traffic_rng
from sim1090.traffic import generate_timeline


class TestRunBasics:
    def test_single_plane_without_errors_receives_everything(self):
        cfg = ScenarioConfig(n_planes=1, channel_errors_enabled=False, seed=3)
        report = run(cfg)
        assert report.received_ratio == 1.0
        assert report.verdict_total(Verdict.LOST_COLLISION) == 0
        assert report.pos_loss_runs == {}
        assert report.update is not None and report.update.probability == 1.0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            run(ScenarioConfig(n_planes=0, n_uavs=0))

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


class TestPinnedReports:
    """SHA-256 of whole preset reports at their preset seeds.

    The hashes were taken before packets were ordered by start time alone
    (they were sorted by start, emitter and kind). Equal hashes show the
    ordering, assembly and collision code give the same report byte for
    byte; a change that moves them must say which numbers moved and why.
    """

    PINNED = {
        "fig4": "476d55ab33c68d1f1d341897b510d3bc04e8e27108a5f982af2684d2fab70895",
        "fig3_200": "4869636dd1fd52ec994570f88e1b9fc6335ddf679baf2256c2c7e4b86326547a",
        "fig7": "60ec05ec9fd95f801b344b13ad2a7b7d615805512e6b60ea542dc15f0b896b34",
    }

    @pytest.mark.parametrize("preset", sorted(PINNED))
    def test_report_bytes_pinned(self, preset):
        report = run(load_preset(f"{preset}.scn"))
        assert hashlib.sha256(report.to_json_bytes()).hexdigest() == self.PINNED[preset]


def assert_engine_matches_per_module_pipeline(cfg):
    # batch engine == build fleet -> timelines -> channel -> sort -> resolve
    report = run(cfg)

    fleet = build_fleet(cfg)
    link = LinkBudget.from_config(cfg)
    merged = []
    for a in fleet:
        timeline = generate_timeline(a, cfg.enabled_kinds, cfg.duration_s, traffic_rng(cfg.seed, a.id))
        merged.extend(classify_timeline(timeline, a, link, channel_rng(cfg.seed, a.id)))
    merged.sort(key=lambda t: (t.start_s, t.emitter_id, KIND_INDEX[t.kind]))
    audible = [t for t in merged if not t.below_sensitivity]
    outcomes = resolve(audible)

    counts = np.zeros_like(report.counts)
    for oc in outcomes:
        t = oc.transmission
        counts[t.emitter_id, KIND_INDEX[t.kind], oc.verdict] += 1
    for t in merged:
        if t.below_sensitivity:
            counts[t.emitter_id, KIND_INDEX[t.kind], Verdict.LOST_BELOW_SENSITIVITY] += 1
    assert np.array_equal(counts, report.counts)

    received = {id(oc.transmission) for oc in outcomes if oc.verdict == Verdict.RECEIVED}
    tracked_pos_lost = [
        id(t) not in received
        for t in merged
        if t.emitter_id == cfg.tracked_aircraft and t.kind == PacketKind.POS
    ]
    assert report.tracked_pos_lost.tolist() == tracked_pos_lost
    return report


class TestModuleCompositionEquivalence:
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
        assert 0 < report.verdict_total(Verdict.LOST_BELOW_SENSITIVITY) < report.generated_total

    def test_gated_tracked_aircraft_loses_every_pos_packet(self):
        cfg = ScenarioConfig(
            n_planes=6, n_uavs=2, duration_s=40.0, seed=77, plane_radius_km=400.0,
            noise_floor_dbm=-80.0,
        )
        link = LinkBudget.from_config(cfg)
        gated = [a.id for a in build_fleet(cfg) if aircraft_link_state(a, link).below_sensitivity]
        report = assert_engine_matches_per_module_pipeline(cfg.with_overrides(tracked_aircraft=gated[0]))
        assert report.tracked_pos_lost.size > 0 and report.tracked_pos_lost.all()
        assert report.update is not None and report.update.probability == 0.0

    def test_every_aircraft_gated(self):
        cfg = ScenarioConfig(n_planes=3, duration_s=5.0, seed=3, plane_radius_km=5000.0)
        report = assert_engine_matches_per_module_pipeline(cfg)
        assert report.generated_total > 0
        assert report.verdict_total(Verdict.LOST_BELOW_SENSITIVITY) == report.generated_total

    def test_collision_only_scenario_matches_analytic_oracle(self):
        cfg = ScenarioConfig(
            n_planes=50,
            enabled_kinds=frozenset({PacketKind.POS, PacketKind.ID}),
            channel_errors_enabled=False,
            seed=2,
        )
        report = run(cfg)
        assert report.received_ratio == pytest.approx(aloha_expected_ratio(cfg), abs=0.03)


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


class TestReplication:
    CFG = ScenarioConfig(n_planes=10, duration_s=60.0, seed=5, channel_errors_enabled=False)

    def test_single_replication_summary_equals_report(self):
        result = run_replicated(self.CFG, 1)
        assert len(result.reports) == 1
        assert result.summary["received_ratio"]["mean"] == result.reports[0].received_ratio
        assert result.summary["received_ratio"]["std"] == 0.0

    def test_replication_seeds_are_derived_and_distinct(self):
        result = run_replicated(self.CFG, 4)
        seeds = [r.seed for r in result.reports]
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
        assert doc["schema"] == "sim1090/run-report/v1"


class TestEventQueue:
    def test_pops_in_time_order_with_tiebreak(self):
        q = EventQueue()
        q.push(2.0, 1, PacketKind.POS)
        q.push(1.0, 9, PacketKind.SMAG)
        q.push(1.0, 2, PacketKind.VEL)
        q.push(1.0, 2, PacketKind.POS)
        popped = [q.pop() for _ in range(len(q))]
        assert popped == [
            (1.0, 2, PacketKind.POS),
            (1.0, 2, PacketKind.VEL),
            (1.0, 9, PacketKind.SMAG),
            (2.0, 1, PacketKind.POS),
        ]

    def test_len_and_peek(self):
        q = EventQueue()
        q.push(4.0, 0, PacketKind.ID)
        q.push(3.0, 0, PacketKind.ID)
        assert len(q) == 2
        assert q.peek_time() == 3.0
