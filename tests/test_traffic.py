"""Emission timeline tests: jitter bounds, the per-kind count bound the
engine sizes its packet buffer by, the exact draws from the stream, rates,
determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sim1090.engine import run
from sim1090.packets import KIND_INDEX, KIND_ORDER, SCHEDULES, PacketKind, packet_duration_s
from sim1090.scenario import ScenarioConfig, build_fleet
from sim1090.seeding import traffic_rng
from sim1090.traffic import emission_times, max_emissions

ALL_KINDS = frozenset(PacketKind)


def _aircraft(seed=1):
    return build_fleet(ScenarioConfig(n_planes=1, seed=seed))[0]


def timeline(aircraft, kinds, horizon_s, seed):
    """Emission times per kind, drawn in KIND_ORDER from one traffic stream."""
    rng = traffic_rng(seed, aircraft.id)
    return {kind: emission_times(kind, horizon_s, rng) for kind in KIND_ORDER if kind in kinds}


class TestEmissionTimes:
    def test_counts_bounded_by_jitter_extremes(self):
        # 500/0.6 <= n <= 500/0.4 for POS
        for seed in range(50):
            times = emission_times(PacketKind.POS, 500.0, np.random.default_rng(seed))
            assert 833 <= times.size <= 1250

    def test_mean_count_near_nominal(self):
        counts = [
            emission_times(PacketKind.POS, 500.0, np.random.default_rng(s)).size
            for s in range(300)
        ]
        assert np.mean(counts) == pytest.approx(1000, rel=0.01)

    def test_gaps_inside_interval(self):
        for kind in PacketKind:
            sched = SCHEDULES[kind]
            times = emission_times(kind, 2000.0, np.random.default_rng(7))
            gaps = np.diff(np.concatenate([[0.0], times]))
            assert np.all(gaps >= sched.jitter_lo_s)
            assert np.all(gaps <= sched.jitter_hi_s)

    def test_mean_gap_matches_schedule_midpoint(self):
        # 10^5 gaps per kind, within 1% of the interval midpoint
        for kind in PacketKind:
            sched = SCHEDULES[kind]
            rng = np.random.default_rng(11)
            horizon = sched.mean_interval_s * 1000
            gaps = []
            for _ in range(110):
                times = emission_times(kind, horizon, rng)
                gaps.append(np.diff(np.concatenate([[0.0], times])))
            gaps = np.concatenate(gaps)
            assert gaps.size >= 100_000
            assert np.mean(gaps) == pytest.approx(sched.mean_interval_s, rel=0.01)

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError):
            emission_times(PacketKind.POS, 0.0, np.random.default_rng(0))

    @settings(max_examples=300, deadline=None)
    @given(case=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_count_within_capacity_bound(self, case, seed):
        # engine.run sizes its packet buffer by max_emissions; a stream whose
        # every gap is jitter_lo_s is the worst case
        kind = case.draw(st.sampled_from(KIND_ORDER))
        horizon = case.draw(horizons(SCHEDULES[kind].jitter_lo_s))
        bound = max_emissions(kind, horizon)
        assert emission_times(kind, horizon, np.random.default_rng(seed)).size <= bound
        assert emission_times(kind, horizon, ShortestGaps()).size <= bound

    @settings(max_examples=200, deadline=None)
    @given(case=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_draws_one_uniform_block_from_the_stream(self, case, seed):
        # timelines, and so every report, rest on this exact use of the
        # stream: max_emissions + 1 uniform gaps in one call, summed in
        # order, cut at the horizon, and nothing more drawn
        kind = case.draw(st.sampled_from(KIND_ORDER))
        sched = SCHEDULES[kind]
        horizon = case.draw(horizons(sched.jitter_lo_s))
        rng, rng2 = np.random.default_rng(seed), np.random.default_rng(seed)
        times = emission_times(kind, horizon, rng)
        expected = np.cumsum(rng2.uniform(sched.jitter_lo_s, sched.jitter_hi_s, max_emissions(kind, horizon) + 1))
        expected = expected[expected < horizon]
        assert times.dtype == expected.dtype and times.tobytes() == expected.tobytes()
        assert rng.random() == rng2.random()


def horizons(lo):
    """Horizons below the shortest gap lo, at exact multiples of it and long ones."""
    return st.one_of(
        st.floats(0.0, lo, exclude_min=True),
        st.integers(1, 20_000).map(lambda m: m * lo),
        st.floats(lo, 5_000.0),
    )


class ShortestGaps:
    """A stream whose every jittered gap is the shortest one."""

    def uniform(self, low, high, size):
        return np.full(size, low)


class TestGenerateTimeline:
    def test_sorted_and_durations_match_kind(self):
        # ascending inside the horizon, and a packet ends before the next
        # packet of its kind starts
        a = _aircraft()
        for kind, times in timeline(a, ALL_KINDS, 100.0, seed=1).items():
            assert times.size > 0
            assert 0 <= times[0] and times[-1] < 100.0
            assert np.all(times[1:] >= times[:-1] + packet_duration_s(kind))

    def test_only_enabled_kinds_present(self):
        report = run(ScenarioConfig(n_planes=1, duration_s=50.0, enabled_kinds=frozenset({PacketKind.POS})))
        per_kind = report.counts.sum(axis=(0, 2))
        assert per_kind.sum() == per_kind[KIND_INDEX[PacketKind.POS]] > 0

    def test_deterministic_per_aircraft_and_seed(self):
        a = _aircraft()
        t1 = timeline(a, ALL_KINDS, 200.0, seed=5)
        t2 = timeline(a, ALL_KINDS, 200.0, seed=5)
        assert all(np.array_equal(t1[k], t2[k]) for k in KIND_ORDER)
        t3 = timeline(a, ALL_KINDS, 200.0, seed=6)
        assert not any(np.array_equal(t1[k], t3[k]) for k in KIND_ORDER)

    def test_short_horizon_before_first_phase_is_empty(self):
        # the first POS phase is one full jitter gap (>= 0.4 s) past t=0
        a = _aircraft()
        assert timeline(a, {PacketKind.POS}, 0.3, seed=1)[PacketKind.POS].size == 0

    def test_long_run_rate_near_aggregate(self):
        # six kinds emit 2+2+0.2+0.4+0.8+5 = 10.4 packets/s in the long run
        counts = []
        for seed in range(40):
            a = _aircraft(seed)
            counts.append(sum(t.size for t in timeline(a, ALL_KINDS, 500.0, seed).values()))
        assert np.mean(counts) / 500.0 == pytest.approx(10.4, rel=0.005)
