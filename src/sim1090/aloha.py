"""Receiver-side unslotted-ALOHA resolution.

Any time overlap between packets from different emitters destroys every
packet in the overlap cluster; there is no capture. Overlap is transitive:
a chain A-B, B-C dies as one cluster even if A and C are disjoint. A
cluster whose packets all share one emitter loses nothing, since one
transmitter cannot jam itself (contention is between aircraft). Intervals
are half-open, so packets meeting exactly at a boundary do not collide.
Verdict precedence is below-sensitivity > collision > corrupted, so each
packet lands in exactly one loss bucket.
"""

from __future__ import annotations

import enum

import numpy as np


class Verdict(enum.IntEnum):
    RECEIVED = 0
    LOST_COLLISION = 1
    LOST_CORRUPTED = 2
    LOST_BELOW_SENSITIVITY = 3

    def __str__(self) -> str:
        return self.name.lower()


def cluster_ids(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Cluster index per packet for start-sorted half-open intervals.

    A packet joins the current cluster while its start precedes the running
    maximum end; otherwise it opens a new cluster.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    if np.any(starts[1:] < starts[:-1]):
        raise ValueError("transmissions must be sorted by start time")
    running_end = np.maximum.accumulate(ends)
    new_cluster = np.empty(starts.size, dtype=bool)
    new_cluster[0] = True
    new_cluster[1:] = starts[1:] >= running_end[:-1]
    return np.cumsum(new_cluster) - 1


def collision_mask(starts: np.ndarray, durations: np.ndarray, emitters: np.ndarray) -> np.ndarray:
    """True for every packet whose cluster spans at least two emitters."""
    starts = np.asarray(starts, dtype=float)
    emitters = np.asarray(emitters)
    ids = cluster_ids(starts, starts + np.asarray(durations, dtype=float))
    if ids.size == 0:
        return np.empty(0, dtype=bool)
    # a cluster spans two emitters iff two neighbours inside it differ
    mixed = np.zeros(int(ids[-1]) + 1, dtype=bool)
    mixed[ids[1:][(emitters[1:] != emitters[:-1]) & (ids[1:] == ids[:-1])]] = True
    return mixed[ids]

