"""Metric tests: ratios, loss runs, update windows, bins, calibration."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sim1090.aloha import Verdict
from sim1090.engine import RunReport
from sim1090.frames import AirframeKind
from sim1090.metrics import (
    CALIBRATION_MAX_EVALS,
    DISTANCE_BIN_KM,
    CalibrationError,
    DistanceBin,
    aloha_expected_ratio,
    calibrate_noise_floor,
    distance_binned_ratio,
    loss_run_histogram,
    update_probability,
)
from sim1090.packets import KIND_INDEX, PacketKind
from sim1090.scenario import CLASSES, ScenarioConfig, build_fleet


def failed_windows_from_runs(hist: dict[int, int], window_k: int) -> int:
    """Failed-window count implied by a loss-run histogram: an oracle for
    update_probability's direct window scan.

    A run of length L contributes max(0, L - K + 1) all-lost windows.
    """
    return sum(max(0, length - window_k + 1) * count for length, count in hist.items())


def flags(pattern: str) -> list[bool]:
    """'R' = received, 'L' = lost."""
    return [c == "R" for c in pattern]


def scan_histogram(lost_flags):
    """Independent run-length scan via itertools.groupby."""
    hist = {}
    for key, group in itertools.groupby(lost_flags):
        if key:
            n = len(list(group))
            hist[n] = hist.get(n, 0) + 1
    return hist


def fleet_of(*aircraft) -> np.recarray:
    """A fleet record array from (class, distance_km, power_dbm) rows, ids in row order."""
    kinds, distances, powers = zip(*aircraft) if aircraft else ((), (), ())
    return np.rec.fromarrays(
        [
            np.arange(len(aircraft)),
            np.array([CLASSES.index(k) for k in kinds], dtype=np.int8),
            np.array(distances, dtype=float),
            np.array(powers, dtype=float),
        ],
        names="id,kind,distance_km,power_dbm",
    )


def report_with(received: int, lost: int) -> RunReport:
    """A one-plane report of `received` received and `lost` collided POS packets.

    The plane is the tracked aircraft; its POS flags are the received packets
    followed by the lost ones.
    """
    cfg = ScenarioConfig(n_planes=1)
    counts = np.zeros((1, len(KIND_INDEX), len(Verdict)), dtype=np.int64)
    counts[0, KIND_INDEX[PacketKind.POS], Verdict.RECEIVED] = received
    counts[0, KIND_INDEX[PacketKind.POS], Verdict.LOST_COLLISION] = lost
    tracked_pos_lost = np.repeat([False, True], [received, lost])
    return RunReport(config=cfg, fleet=build_fleet(cfg), counts=counts, tracked_pos_lost=tracked_pos_lost)


class TestReceivedRatio:
    def test_run_scale_counts(self):
        assert report_with(632, 372).received_ratio == pytest.approx(0.6295, abs=2e-4)

    def test_all_received(self):
        assert report_with(10, 0).received_ratio == 1.0

    def test_recount_oracle(self):
        rng = np.random.default_rng(3)
        sample = rng.random(997) < 0.37
        received = int(sample.sum())
        assert report_with(received, 997 - received).received_ratio == sample.sum() / 997

    def test_empty_rejected(self):
        # no packets, no ratio: the report gives None rather than a number
        assert report_with(0, 0).received_ratio is None


class TestReportTrackedMetrics:
    def test_metrics_follow_the_tracked_flags(self):
        # K = 6 at the default 3 s deadline: the closing run of 7 losses
        # fails 2 of the 9 windows
        report = report_with(7, 7)
        assert report.pos_loss_runs == {7: 1}
        assert report.update == update_probability(~report.tracked_pos_lost, report.config.deadline_s)
        assert (report.update.window_k, report.update.failed_windows, report.update.total_windows) == (6, 2, 9)

    def test_fewer_flags_than_one_window_give_no_update(self):
        report = report_with(2, 3)
        assert report.pos_loss_runs == {3: 1}
        assert report.update is None


class TestLossRunHistogram:
    def test_single_loss(self):
        assert loss_run_histogram(flags("RLR")) == {1: 1}

    def test_mixed_runs(self):
        assert loss_run_histogram(flags("RLLLRLR")) == {3: 1, 1: 1}

    def test_leading_and_trailing_runs(self):
        assert loss_run_histogram(flags("LLRLL")) == {2: 2}

    def test_no_losses(self):
        assert loss_run_histogram(flags("RRRR")) == {}

    def test_matches_independent_scan(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            lost = list(rng.random(1000) < rng.uniform(0.1, 0.9))
            hist = loss_run_histogram([not x for x in lost])
            assert hist == scan_histogram(lost)

    def test_mass_conservation(self):
        rng = np.random.default_rng(12)
        lost = list(rng.random(5000) < 0.4)
        hist = loss_run_histogram([not x for x in lost])
        assert sum(length * count for length, count in hist.items()) == sum(lost)


def synth_outcomes(runs: dict[int, int], total: int) -> list[bool]:
    """Received-flag sequence realising a loss-run histogram, padded to size."""
    seq: list[bool] = []
    for length in sorted(runs):
        for _ in range(runs[length]):
            seq.append(True)
            seq.extend([False] * length)
    seq.extend([True] * (total - len(seq)))
    assert len(seq) == total
    return seq


class TestUpdateProbability:
    def test_no_losses(self):
        result = update_probability([True] * 100, deadline_s=3.0)
        assert result.probability == 1.0
        assert result.failed_windows == 0
        assert result.window_k == 6
        assert result.total_windows == 95

    def test_all_lost(self):
        result = update_probability([False] * 100, deadline_s=3.0)
        assert result.probability == 0.0
        assert result.failed_windows == result.total_windows == 95

    def test_reference_histogram_column(self):
        # runs {1:144,2:50,3:25,4:5,5:1,6:1,7:2,8:1} over 1004 packets:
        # failed windows = 1 (run of 6) + 2*2 (runs of 7) + 3 (run of 8) = 8
        runs = {1: 144, 2: 50, 3: 25, 4: 5, 5: 1, 6: 1, 7: 2, 8: 1}
        outcomes = synth_outcomes(runs, 1004)
        assert loss_run_histogram(outcomes) == runs
        result = update_probability(outcomes, deadline_s=3.0)
        assert result.failed_windows == 8
        assert result.total_windows == 999
        assert result.probability == pytest.approx(1.0 - 8 / 999)

    def test_histogram_identity_matches_direct_scan(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            outcomes = list(rng.random(800) < rng.uniform(0.2, 0.9))
            hist = loss_run_histogram(outcomes)
            direct = update_probability(outcomes, deadline_s=3.0)
            assert failed_windows_from_runs(hist, direct.window_k) == direct.failed_windows

    def test_en_route_deadline_doubles_window(self):
        assert update_probability([True] * 20, deadline_s=6.0).window_k == 12

    def test_monotone_under_single_recovery(self):
        # flipping any lost packet to received never lowers the probability
        rng = np.random.default_rng(31)
        outcomes = list(rng.random(300) < 0.5)
        base = update_probability(outcomes, deadline_s=3.0).probability
        lost_positions = [i for i, ok in enumerate(outcomes) if not ok]
        for i in rng.choice(lost_positions, size=25, replace=False):
            flipped = list(outcomes)
            flipped[i] = True
            assert update_probability(flipped, deadline_s=3.0).probability >= base

    def test_insufficient_data(self):
        assert update_probability([True] * 5, deadline_s=3.0) is None

    def test_deadline_past_float_range_is_insufficient_data(self):
        # 1e308 s over a 0.5 s interval is inf slots: too few packets, not an
        # OverflowError from ceil(inf)
        assert update_probability([True] * 10, deadline_s=1e308) is None

    def test_window_is_ceiling_of_deadline_slots(self):
        # 3.1 s is 6.2 intervals: 7 packets are needed and 6 are too few
        assert update_probability([True] * 7, deadline_s=3.1).window_k == 7
        assert update_probability([True] * 6, deadline_s=3.1) is None

    def test_bad_deadline(self):
        for deadline in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="deadline_s"):
                update_probability([True] * 10, deadline_s=deadline)


def binned_oracle(fleet, generated_by_aircraft, received_by_aircraft):
    """Per-class distance bins by a per-aircraft loop: an oracle for
    distance_binned_ratio's one vectorised pass."""
    w = DISTANCE_BIN_KM
    rows = []
    for cls in AirframeKind:
        buckets = {}
        for a in fleet:
            if CLASSES[a.kind] is cls:
                # bins are half-open (lo, hi]
                buckets.setdefault(math.ceil(a.distance_km / w) - 1, []).append(a)
        for idx in sorted(buckets):
            group = buckets[idx]
            gen = int(sum(generated_by_aircraft[a.id] for a in group))
            rec = int(sum(received_by_aircraft[a.id] for a in group))
            if gen == 0:
                continue
            rows.append(DistanceBin(
                cls, idx * w, (idx + 1) * w, (idx + 0.5) * w, len(group), gen, rec,
            ))
    return rows


@st.composite
def binned_cases(draw):
    """[(class, distance_km, generated, received)]: classes in any order or
    absent, distances often on bin edges, some aircraft with nothing
    generated."""
    distance = st.floats(1e-3, 60.0) | st.integers(1, 30).map(lambda k: k * DISTANCE_BIN_KM)
    aircraft = draw(st.lists(
        st.tuples(st.sampled_from(CLASSES), distance, st.integers(0, 40), st.integers(0, 40)),
        max_size=20,
    ))
    return [(cls, d, gen, min(rec, gen)) for cls, d, gen, rec in aircraft]


class TestDistanceBins:
    def test_single_plane_row(self):
        fleet = fleet_of((AirframeKind.PLANE, 10.0, 44.0))
        rows = distance_binned_ratio(fleet, np.array([100]), np.array([62]))
        assert len(rows) == 1
        row = rows[0]
        assert row.aircraft_class is AirframeKind.PLANE
        assert row.lo_km == 7.5 and row.hi_km == 10.0
        assert row.lo_km < 10.0 <= row.hi_km
        assert row.ratio == pytest.approx(0.62)

    def test_classes_kept_separate(self):
        fleet = fleet_of((AirframeKind.PLANE, 4.0, 44.0), (AirframeKind.UAV, 4.0, 30.0))
        rows = distance_binned_ratio(fleet, np.array([10, 10]), np.array([5, 7]))
        assert {r.aircraft_class for r in rows} == {AirframeKind.PLANE, AirframeKind.UAV}

    def test_empty_bins_omitted(self):
        fleet = fleet_of((AirframeKind.PLANE, 1.0, 44.0), (AirframeKind.PLANE, 49.0, 44.0))
        rows = distance_binned_ratio(fleet, np.array([10, 10]), np.array([9, 3]))
        assert len(rows) == 2
        assert rows[0].center_km == pytest.approx(1.25)
        assert rows[1].center_km == pytest.approx(48.75)

    def test_bad_distance_rejected(self):
        # each bad distance beside a good one, which the message lists first
        for d in (math.inf, math.nan, 0.0, -5.0):
            fleet = fleet_of((AirframeKind.PLANE, 10.0, 44.0), (AirframeKind.PLANE, d, 44.0))
            with pytest.raises(ValueError, match=r"distances must be finite and > 0, got d=\[10\."):
                distance_binned_ratio(fleet, np.array([100, 100]), np.array([62, 62]))

    @settings(max_examples=200, deadline=None)
    @given(binned_cases())
    @example([(AirframeKind.PLANE, 2.5, 10, 3), (AirframeKind.PLANE, 5.0, 0, 0),
              (AirframeKind.PLANE, 7.5, 4, 4), (AirframeKind.PLANE, 7.4, 6, 1)])
    def test_matches_per_aircraft_oracle(self, aircraft):
        fleet = fleet_of(*((cls, d, 44.0) for cls, d, _, _ in aircraft))
        generated = np.array([a[2] for a in aircraft], dtype=np.int64)
        received = np.array([a[3] for a in aircraft], dtype=np.int64)
        rows = distance_binned_ratio(fleet, generated, received)
        assert rows == binned_oracle(fleet, generated, received)
        for row in rows:  # plain Python numbers, as the JSON report needs
            assert {type(v) for v in (row.lo_km, row.hi_km, row.center_km)} == {float}
            assert {type(v) for v in (row.n_aircraft, row.generated, row.received)} == {int}


class TestAnalyticAlohaRatio:
    def test_single_aircraft_is_lossless(self):
        cfg = ScenarioConfig(n_planes=1, channel_errors_enabled=False)
        assert aloha_expected_ratio(cfg) == 1.0

    def test_two_aircraft_pos_only_hand_value(self):
        # one interferer at 2 packets/s, vulnerable window 240 us
        cfg = ScenarioConfig(n_planes=2, enabled_kinds=frozenset({PacketKind.POS}))
        assert aloha_expected_ratio(cfg) == pytest.approx(np.exp(-2 * 240e-6))

    def test_decreasing_in_fleet_size(self):
        kinds = frozenset({PacketKind.POS, PacketKind.ID})
        ratios = [
            aloha_expected_ratio(ScenarioConfig(n_planes=n, enabled_kinds=kinds))
            for n in (50, 100, 150, 200)
        ]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_per_kind_short_packets_survive_better(self):
        cfg = ScenarioConfig(n_planes=100)
        assert aloha_expected_ratio(cfg, PacketKind.SMAG) > aloha_expected_ratio(cfg, PacketKind.POS)


def fake_engine(monkeypatch, ratio_of_floor) -> list[float]:
    """Replace the engine's run_replicated with a replicated mean received
    ratio computed by ratio_of_floor; return the floors it is called at."""
    floors = []

    def run_replicated(cfg, n_reps):
        floors.append(cfg.noise_floor_dbm)
        ratio = ratio_of_floor(cfg.noise_floor_dbm)
        return SimpleNamespace(summary={"received_ratio": {"mean": ratio}})

    monkeypatch.setattr("sim1090.engine.run_replicated", run_replicated)
    return floors


class TestCalibration:
    SMALL = ScenarioConfig(n_planes=20, duration_s=60.0, seed=9)

    def test_infeasible_target_reports_bracket(self):
        with pytest.raises(CalibrationError, match=r"-120"):
            calibrate_noise_floor(0.999, self.SMALL, n_reps=2)

    def test_converges_to_reachable_target(self):
        from sim1090.engine import run_replicated

        quiet = run_replicated(self.SMALL.with_overrides(noise_floor_dbm=-120.0), 2)
        loud = run_replicated(self.SMALL.with_overrides(noise_floor_dbm=-75.0), 2)
        target = 0.5 * (
            quiet.summary["received_ratio"]["mean"] + loud.summary["received_ratio"]["mean"]
        )
        result = calibrate_noise_floor(target, self.SMALL, n_reps=2)
        assert abs(result.achieved_ratio - target) <= 0.005
        assert -120.0 <= result.noise_floor_dbm <= -75.0
        floors = [f for f, _ in result.evaluations]
        ratios = [r for _, r in result.evaluations]
        order = np.argsort(floors)
        assert all(np.diff(np.array(ratios)[order]) <= 1e-12)
        assert result.iterations == len(result.evaluations)

    def test_quiet_end_returned_for_collision_only_target(self):
        from sim1090.engine import run_replicated

        quiet = run_replicated(self.SMALL.with_overrides(noise_floor_dbm=-120.0), 2)
        target = quiet.summary["received_ratio"]["mean"]
        result = calibrate_noise_floor(target, self.SMALL, n_reps=2)
        assert result.noise_floor_dbm == -120.0
        assert result.iterations == len(result.evaluations) == 1

    def test_loud_end_returned_after_quiet_end(self):
        from sim1090.engine import run_replicated

        loud = run_replicated(self.SMALL.with_overrides(noise_floor_dbm=-75.0), 2)
        target = loud.summary["received_ratio"]["mean"]
        result = calibrate_noise_floor(target, self.SMALL, n_reps=2)
        assert result.noise_floor_dbm == -75.0
        assert result.achieved_ratio == target
        assert [f for f, _ in result.evaluations] == [-120.0, -75.0]
        assert result.iterations == len(result.evaluations) == 2

    @pytest.mark.parametrize(
        "ratios, message",
        [
            # the loud end already breaks monotonicity
            ({-120.0: 0.2, -75.0: 0.8}, "ratio(-120.0)=0.200000 < ratio(-75.0)=0.800000"),
            # a midpoint below the loud end's ratio: the new floor is the quieter of the pair
            ({-120.0: 0.9, -75.0: 0.1, -97.5: 0.05}, "ratio(-97.5)=0.050000 < ratio(-75.0)=0.100000"),
            # a midpoint above two earlier, quieter floors: the first-evaluated one is named
            (
                {-120.0: 0.9, -75.0: 0.1, -97.5: 0.5, -86.25: 0.95},
                "ratio(-120.0)=0.900000 < ratio(-86.25)=0.950000",
            ),
        ],
    )
    def test_non_monotone_ratio_names_the_pair(self, monkeypatch, ratios, message):
        floors = fake_engine(monkeypatch, ratios.__getitem__)
        with pytest.raises(CalibrationError) as err:
            calibrate_noise_floor(0.3, self.SMALL, n_reps=2)
        assert str(err.value) == f"received ratio is not monotone in the noise floor: {message}"
        assert floors == list(ratios)

    def test_step_ratio_stops_at_adjacent_floors(self, monkeypatch):
        # the ratio steps across the target between two adjacent doubles: the
        # bisection stops there, without evaluating any floor twice
        floors = fake_engine(monkeypatch, lambda f: 0.9 if f < -100.0 else 0.1)
        with pytest.raises(CalibrationError) as err:
            calibrate_noise_floor(0.5, self.SMALL, n_reps=2)
        assert len(set(floors)) == len(floors) < CALIBRATION_MAX_EVALS
        quiet = max(f for f in floors if f < -100.0)
        loud = min(f for f in floors if f >= -100.0)
        assert np.nextafter(quiet, 0.0) == loud
        assert str(err.value) == (
            f"no floor within 0.5 points of 0.5000 after {len(floors)} evaluations: "
            f"ratio({quiet})=0.9000, ratio({loud})=0.1000"
        )

    def test_unreachable_target_message(self, monkeypatch):
        floors = fake_engine(monkeypatch, lambda f: 0.9 if f < -100.0 else 0.6)
        with pytest.raises(CalibrationError) as err:
            calibrate_noise_floor(0.3, self.SMALL, n_reps=2)
        assert str(err.value) == (
            "target ratio 0.3000 unreachable in bracket [-120.0, -75.0] dBm: "
            "ratio(-120.0)=0.9000, ratio(-75.0)=0.6000"
        )
        assert floors == [-120.0, -75.0]

    def test_bad_target_domain(self):
        with pytest.raises(ValueError):
            calibrate_noise_floor(1.0, self.SMALL)
