"""Receiver-side collision resolution against a brute-force pairwise oracle."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sim1090.aloha import (
    Verdict,
    cluster_ids,
    collision_mask,
    outcomes_to_csv,
    overlap_clusters,
    resolve,
)
from sim1090.packets import PacketKind
from sim1090.traffic import Transmission

US = 1e-6


def tx(start_us, dur_us=120, corrupted=False, emitter=0, kind=PacketKind.POS, gated=False):
    return Transmission(
        emitter_id=emitter,
        kind=kind,
        start_s=start_us * US,
        duration_s=dur_us * US,
        corrupted=corrupted,
        below_sensitivity=gated,
    )


def brute_force_components(transmissions):
    """O(n^2) oracle: connected components of the pairwise-overlap graph."""
    n = len(transmissions)
    starts = [t.start_s for t in transmissions]
    ends = [t.start_s + t.duration_s for t in transmissions]
    adjacency = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if starts[i] < ends[j] and starts[j] < ends[i]:
                adjacency[i].append(j)
                adjacency[j].append(i)
    comp = [-1] * n
    current = 0
    for root in range(n):
        if comp[root] != -1:
            continue
        stack = [root]
        comp[root] = current
        while stack:
            node = stack.pop()
            for neighbour in adjacency[node]:
                if comp[neighbour] == -1:
                    comp[neighbour] = current
                    stack.append(neighbour)
        current += 1
    return comp


def brute_force_collisions(transmissions):
    """A packet dies iff its overlap component spans two or more emitters."""
    comp = brute_force_components(transmissions)
    emitters_by_comp = {}
    for t, c in zip(transmissions, comp):
        emitters_by_comp.setdefault(c, set()).add(t.emitter_id)
    return [len(emitters_by_comp[c]) >= 2 for c in comp]


def random_instance(rng, n, span_s, n_emitters=8):
    starts = np.sort(rng.uniform(0.0, span_s, n))
    kinds = rng.choice([PacketKind.POS, PacketKind.SMAG], n)
    return [
        tx(
            starts[i] / US,
            120 if kinds[i] is PacketKind.POS else 64,
            kind=kinds[i],
            corrupted=bool(rng.random() < 0.2),
            emitter=int(rng.integers(0, n_emitters)),
        )
        for i in range(n)
    ]


class TestResolveExamples:
    def test_direct_overlap_kills_both(self):
        outcomes = resolve([tx(0, emitter=1), tx(60, emitter=2)])
        assert [o.verdict for o in outcomes] == [Verdict.LOST_COLLISION] * 2

    def test_half_open_touch_is_not_overlap(self):
        outcomes = resolve([tx(0, emitter=1), tx(120, emitter=2)])
        assert [o.verdict for o in outcomes] == [Verdict.RECEIVED] * 2

    def test_corrupted_packet_still_jams(self):
        # the corrupted packet destroys the intact one; both count as collision
        outcomes = resolve([tx(0, corrupted=True, emitter=1), tx(100, emitter=2)])
        assert [o.verdict for o in outcomes] == [Verdict.LOST_COLLISION] * 2

    def test_lone_corrupted_is_corruption_loss(self):
        outcomes = resolve([tx(0, corrupted=True, emitter=1), tx(500, emitter=2)])
        assert [o.verdict for o in outcomes] == [Verdict.LOST_CORRUPTED, Verdict.RECEIVED]

    def test_same_emitter_overlap_does_not_collide(self):
        # one transmitter cannot jam itself; contention is between aircraft
        outcomes = resolve([tx(0, emitter=3), tx(60, emitter=3)])
        assert [o.verdict for o in outcomes] == [Verdict.RECEIVED] * 2

    def test_mixed_cluster_kills_every_member(self):
        outcomes = resolve([tx(0, emitter=3), tx(60, emitter=3), tx(100, emitter=4)])
        assert [o.verdict for o in outcomes] == [Verdict.LOST_COLLISION] * 3

    def test_single_transmitter_without_errors_loses_nothing(self):
        packets = [tx(i * 90, emitter=7) for i in range(50)]  # overlapping chain
        assert all(o.verdict is Verdict.RECEIVED for o in resolve(packets))

    def test_unsorted_input_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            resolve([tx(100), tx(0)])

    def test_gated_input_rejected(self):
        with pytest.raises(ValueError, match="sensitivity"):
            resolve([tx(0, gated=True)])

    def test_empty_input(self):
        assert resolve([]) == []


class TestClusters:
    def test_transitive_chain(self):
        packets = [tx(0, emitter=1), tx(100, emitter=2), tx(200, emitter=3)]
        clusters = overlap_clusters(packets)
        assert [len(c) for c in clusters] == [3]

    def test_disjoint_singletons(self):
        packets = [tx(0), tx(1_000_000)]
        clusters = overlap_clusters(packets)
        assert [len(c) for c in clusters] == [1, 1]

    def test_clusters_partition_input(self):
        rng = np.random.default_rng(5)
        packets = random_instance(rng, 400, 0.05)
        clusters = overlap_clusters(packets)
        flattened = [t for cluster in clusters for t in cluster]
        assert sorted(flattened, key=lambda t: t.start_s) == sorted(packets, key=lambda t: t.start_s)

    def test_matches_brute_force_components(self):
        rng = np.random.default_rng(17)
        for n, span in ((50, 0.002), (200, 0.02), (400, 0.04), (300, 1.0)):
            packets = random_instance(rng, n, span)
            ids = cluster_ids(
                np.array([t.start_s for t in packets]),
                np.array([t.end_s for t in packets]),
            )
            assert list(ids) == brute_force_components(packets)


class TestResolveProperties:
    def test_verdicts_partition_input(self):
        rng = np.random.default_rng(23)
        packets = random_instance(rng, 500, 0.05)
        outcomes = resolve(packets)
        totals = {v: 0 for v in Verdict}
        for o in outcomes:
            totals[o.verdict] += 1
        assert sum(totals.values()) == len(packets)
        assert totals[Verdict.LOST_BELOW_SENSITIVITY] == 0

    def test_collision_verdicts_match_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            n = int(rng.integers(2, 300))
            packets = random_instance(rng, n, float(rng.uniform(0.001, 0.1)))
            expected_hit = brute_force_collisions(packets)
            got = collision_mask(
                np.array([t.start_s for t in packets]),
                np.array([t.duration_s for t in packets]),
                np.array([t.emitter_id for t in packets]),
            )
            assert list(got) == expected_hit

    def test_csv_export(self):
        outcomes = resolve([tx(0, emitter=1), tx(60, emitter=2)])
        text = outcomes_to_csv(outcomes)
        lines = text.strip().splitlines()
        assert lines[0].startswith("# sim1090 outcomes")
        assert lines[2].endswith("lost_collision")


#: (start, duration, emitter) packets on an integer-microsecond grid. Times
#: stay in microseconds: integers are exact in float64, so packets that meet
#: at a boundary meet exactly, and a 400 us span makes exact start ties common.
grid_packets = st.lists(
    st.tuples(st.integers(0, 400), st.sampled_from([64, 120]), st.integers(0, 3)),
    min_size=1,
    max_size=40,
)


def grid_mask(packets, order):
    """collision_mask over `packets` taken in `order`, mapped back to input order."""
    hit = collision_mask(
        np.array([float(packets[i][0]) for i in order]),
        np.array([float(packets[i][1]) for i in order]),
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
        assert grid_mask(packets, order) == expected

    @settings(max_examples=300, deadline=None)
    @given(packets=grid_packets, rnd=st.randoms(use_true_random=False))
    @example(packets=[(0, 120, 0), (0, 64, 1), (0, 120, 1)], rnd=random.Random(0))
    @example(packets=[(0, 120, 0), (120, 64, 1), (184, 120, 0), (184, 64, 0)], rnd=random.Random(1))
    def test_matches_oracle_for_any_order_of_tied_starts(self, packets, rnd):
        tie_key = [rnd.random() for _ in packets]
        by_index = grid_mask(packets, sorted(range(len(packets)), key=lambda i: (packets[i][0], i)))
        shuffled = grid_mask(packets, sorted(range(len(packets)), key=lambda i: (packets[i][0], tie_key[i])))
        oracle = brute_force_collisions(
            [Transmission(e, PacketKind.POS, float(start), float(dur)) for start, dur, e in packets]
        )
        assert by_index == oracle
        assert shuffled == by_index
