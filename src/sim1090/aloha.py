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


def collision_mask(starts: np.ndarray, durations: np.ndarray, emitters: np.ndarray) -> np.ndarray:
    """True for every packet whose overlap cluster spans at least two emitters.

    Packets are sorted by start. Packet j + 1 continues packet j's cluster iff it
    starts before the running maximum end; a run of consecutive such j is one cluster.
    Starts and durations may be float or integer, in one unit; integer time is
    resolved exactly.
    """
    starts = np.asarray(starts)
    emitters = np.asarray(emitters)
    if np.any(starts[1:] < starts[:-1]):
        raise ValueError("transmissions must be sorted by start time")
    running_end = starts + np.asarray(durations)
    np.maximum.accumulate(running_end, out=running_end)
    # the running maximum carries a NaN start or duration to its last element
    if np.isnan(running_end[-1:]).any():
        raise ValueError("transmission starts and durations must not be NaN")
    j = np.flatnonzero(starts[1:] < running_end[:-1])
    del running_end  # the rest of the resolve holds only arrays the size of j
    cluster = np.cumsum(np.diff(j, prepend=-2) != 1) - 1
    # a cluster is mixed iff one of its pairs has two different emitters
    mixed = np.bincount(cluster, weights=emitters[j] != emitters[j + 1]) > 0
    j = j[mixed[cluster]]
    hit = np.zeros(starts.size, dtype=bool)
    hit[j] = hit[j + 1] = True
    return hit
