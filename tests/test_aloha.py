"""Receiver-side collision resolution against a brute-force pairwise oracle,
and the verdict rule of the engine: corruption never changes a collision."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sim1090.aloha import Verdict, collision_mask
from sim1090.engine import run
from sim1090.scenario import ScenarioConfig

US = 1e-6


def mask_of(packets):
    """collision_mask over start-sorted (start_us, duration_us, emitter) packets."""
    arr = np.array(packets, dtype=float).reshape(-1, 3)
    return collision_mask(arr[:, 0] * US, arr[:, 1] * US, arr[:, 2].astype(np.int64)).tolist()


def brute_force_components(starts, ends):
    """O(n^2) oracle: connected components of the pairwise-overlap graph,
    numbered 0, 1, 2, ... by their first member in input order."""
    starts, ends = np.asarray(starts), np.asarray(ends)
    overlap = (starts[:, None] < ends[None, :]) & (starts[None, :] < ends[:, None])
    np.fill_diagonal(overlap, False)
    n = starts.size
    comp = [-1] * n
    current = 0
    for root in range(n):
        if comp[root] != -1:
            continue
        stack = [root]
        comp[root] = current
        while stack:
            node = stack.pop()
            for neighbour in np.flatnonzero(overlap[node]).tolist():
                if comp[neighbour] == -1:
                    comp[neighbour] = current
                    stack.append(neighbour)
        current += 1
    return comp


def brute_force_collisions(starts, ends, emitters):
    """A packet dies iff its overlap component spans two or more emitters."""
    comp = brute_force_components(starts, ends)
    emitters_by_comp = {}
    for e, c in zip(emitters, comp):
        emitters_by_comp.setdefault(c, set()).add(e)
    return [len(emitters_by_comp[c]) >= 2 for c in comp]


def random_instance(rng, n, span_s, n_emitters=8):
    """Start-sorted (starts, durations, emitters, corrupted) arrays of POS- and SMAG-length packets."""
    starts = np.sort(rng.uniform(0.0, span_s, n))
    durations = np.where(rng.random(n) < 0.5, 120 * US, 64 * US)
    emitters = rng.integers(0, n_emitters, n)
    corrupted = rng.random(n) < 0.2
    return starts, durations, emitters, corrupted


#: twelve planes within 50 km stay above sensitivity, and a -80 dBm floor
#: corrupts many of their packets
LOUD = ScenarioConfig(n_planes=12, duration_s=30.0, seed=9, noise_floor_dbm=-80.0)


class TestResolveExamples:
    def test_direct_overlap_kills_both(self):
        assert mask_of([(0, 120, 1), (60, 120, 2)]) == [True, True]

    def test_half_open_touch_is_not_overlap(self):
        assert mask_of([(0, 120, 1), (120, 120, 2)]) == [False, False]

    def test_corrupted_packet_still_jams(self):
        # corrupted packets still occupy the air, and a collided packet is a
        # collision loss whether or not it was corrupted, so the same seed
        # gives the same collision losses with channel errors on and off
        on, off = run(LOUD), run(LOUD.with_overrides(channel_errors_enabled=False))
        assert int(on.counts[:, :, Verdict.LOST_CORRUPTED].sum()) > 0
        assert int(on.counts[:, :, Verdict.LOST_BELOW_SENSITIVITY].sum()) == 0
        collided = on.counts[:, :, Verdict.LOST_COLLISION]
        assert collided.sum() > 0
        assert np.array_equal(collided, off.counts[:, :, Verdict.LOST_COLLISION])

    def test_lone_corrupted_is_corruption_loss(self):
        # outside collisions a corrupted packet is a corruption loss and an
        # intact one is received
        on, off = run(LOUD), run(LOUD.with_overrides(channel_errors_enabled=False))
        lone = on.counts[:, :, Verdict.RECEIVED] + on.counts[:, :, Verdict.LOST_CORRUPTED]
        assert np.array_equal(lone, off.counts[:, :, Verdict.RECEIVED])

    def test_same_emitter_overlap_does_not_collide(self):
        # one transmitter cannot jam itself; contention is between aircraft
        assert mask_of([(0, 120, 3), (60, 120, 3)]) == [False, False]

    def test_mixed_cluster_kills_every_member(self):
        assert mask_of([(0, 120, 3), (60, 120, 3), (100, 120, 4)]) == [True] * 3

    def test_single_transmitter_without_errors_loses_nothing(self):
        packets = [(i * 90, 120, 7) for i in range(50)]  # overlapping chain
        assert mask_of(packets) == [False] * 50

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            mask_of([(100, 120, 0), (0, 120, 0)])

    def test_empty_input(self):
        hit = collision_mask(np.empty(0), np.empty(0), np.empty(0, dtype=np.int64))
        assert hit.dtype == bool and hit.size == 0

    @pytest.mark.parametrize(
        "packets",
        [
            [(0, 120, 1), (math.nan, 120, 2), (10, 120, 3)],  # NaN start
            [(0, 120, 1), (1000, math.nan, 2), (2000, 120, 3)],  # NaN duration
            [(math.nan, 120, 1)],  # a lone NaN packet
        ],
    )
    def test_nan_rejected(self, packets):
        with pytest.raises(ValueError, match="NaN"):
            mask_of(packets)


class TestClusters:
    def test_transitive_chain(self):
        # the first and last packets are disjoint, but the middle one joins them
        chain = [(0, 120, 1), (100, 120, 1), (200, 120, 2)]
        assert mask_of(chain) == [True] * 3
        assert mask_of([(start, length, 1) for start, length, _ in chain]) == [False] * 3

    def test_disjoint_singletons(self):
        assert mask_of([(0, 120, 1), (1_000_000, 120, 2)]) == [False, False]


class TestResolveProperties:
    def test_verdicts_partition_input(self):
        starts, durations, emitters, corrupted = random_instance(np.random.default_rng(23), 500, 0.05)
        hit = collision_mask(starts, durations, emitters)
        # a cluster loses every member or none
        comp = np.array(brute_force_components(starts, starts + durations))
        assert np.array_equal(hit, np.bincount(comp, weights=hit)[comp] > 0)
        verdict = np.where(
            hit, int(Verdict.LOST_COLLISION),
            np.where(corrupted, int(Verdict.LOST_CORRUPTED), int(Verdict.RECEIVED)),
        )
        totals = np.bincount(verdict, minlength=len(Verdict))
        assert totals.sum() == starts.size
        assert totals[Verdict.LOST_BELOW_SENSITIVITY] == 0

    def test_collision_verdicts_match_brute_force(self):
        rng = np.random.default_rng(31)
        instances = [random_instance(rng, int(rng.integers(2, 300)), float(rng.uniform(0.001, 0.1)))
                     for _ in range(30)]
        # long clusters in dense spans, and mostly singletons in a 1 s span
        rng = np.random.default_rng(17)
        instances += [random_instance(rng, n, span) for n, span in ((50, 0.002), (200, 0.02), (400, 0.04), (300, 1.0))]
        instances.append(random_instance(np.random.default_rng(5), 400, 0.05))
        for starts, durations, emitters, _ in instances:
            expected_hit = brute_force_collisions(starts, starts + durations, emitters)
            assert list(collision_mask(starts, durations, emitters)) == expected_hit


#: (start, duration, emitter) packets on an integer-microsecond grid. Times
#: stay in microseconds: integers are exact in float64, so packets that meet
#: at a boundary meet exactly, and a 400 us span makes exact start ties common.
grid_packets = st.lists(
    st.tuples(st.integers(0, 400), st.sampled_from([64, 120]), st.integers(0, 3)),
    min_size=1,
    max_size=40,
)

#: (start, duration) dtypes the grid runs in: float64, and the engine's integer
#: clock (int64 starts, int32 durations)
GRID_DTYPES = [(np.float64, np.float64), (np.int64, np.int32)]


def grid_mask(packets, order, dtypes):
    """collision_mask over `packets` taken in `order`, with (start, duration)
    `dtypes`, mapped back to input order."""
    start_dtype, duration_dtype = dtypes
    hit = collision_mask(
        np.array([packets[i][0] for i in order], dtype=start_dtype),
        np.array([packets[i][1] for i in order], dtype=duration_dtype),
        np.array([packets[i][2] for i in order]),
    )
    out = [False] * len(packets)
    for pos, i in enumerate(order):
        out[i] = bool(hit[pos])
    return out


class TestCollisionMaskOnGrid:
    @pytest.mark.parametrize(
        "packets, expected",
        [
            ([(0, 120, 0), (0, 64, 1)], [True, True]),  # exact cross-emitter tie
            ([(0, 120, 0), (120, 120, 0)], [False, False]),  # same emitter, back to back
            ([(0, 120, 0), (60, 64, 0)], [False, False]),  # same emitter, overlapping
            ([(0, 120, 0), (120, 64, 1)], [False, False]),  # meet exactly at a boundary
            ([(10, 120, 2), (10, 64, 2), (130, 64, 3)], [False, False, False]),
            ([(10, 120, 2), (10, 64, 2), (129, 64, 3)], [True, True, True]),
        ],
    )
    def test_ties_and_boundaries(self, packets, expected):
        order = sorted(range(len(packets)), key=lambda i: packets[i][0])
        for dtypes in GRID_DTYPES:
            assert grid_mask(packets, order, dtypes) == expected

    @settings(max_examples=300, deadline=None)
    @given(packets=grid_packets, rnd=st.randoms(use_true_random=False))
    @example(packets=[(0, 120, 0), (0, 64, 1), (0, 120, 1)], rnd=random.Random(0))
    @example(packets=[(0, 120, 0), (120, 64, 1), (184, 120, 0), (184, 64, 0)], rnd=random.Random(1))
    def test_matches_oracle_for_any_order_of_tied_starts(self, packets, rnd):
        tie_key = [rnd.random() for _ in packets]
        by_index_order = sorted(range(len(packets)), key=lambda i: (packets[i][0], i))
        shuffled_order = sorted(range(len(packets)), key=lambda i: (packets[i][0], tie_key[i]))
        for start_dtype, duration_dtype in GRID_DTYPES:
            by_index = grid_mask(packets, by_index_order, (start_dtype, duration_dtype))
            shuffled = grid_mask(packets, shuffled_order, (start_dtype, duration_dtype))
            starts = np.array([p[0] for p in packets], dtype=start_dtype)
            ends = starts + np.array([p[1] for p in packets], dtype=duration_dtype)
            oracle = brute_force_collisions(starts, ends, [p[2] for p in packets])
            assert by_index == oracle
            assert shuffled == by_index
