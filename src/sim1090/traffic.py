"""Per-aircraft packet emission timelines.

Each enabled packet kind recurs with a gap drawn uniformly from its shaking
interval [lo, hi]. The first emission is one such gap past t=0, so a fleet
starts with its phases of a kind inside that window, not spread over the
interval. Timelines are a pure function of the per-aircraft traffic stream:
the engine draws each aircraft's kinds from that stream in KIND_ORDER.
"""

from __future__ import annotations

import numpy as np

from .packets import PacketKind, SCHEDULES


def emission_times(kind: PacketKind, horizon_s: float, rng: np.random.Generator) -> np.ndarray:
    """All emission start times of one kind in [0, horizon_s), ascending.

    The jittered gaps are drawn as one block from the stream; the draw count
    depends only on kind and horizon.
    """
    if horizon_s <= 0:
        raise ValueError(f"horizon_s must be > 0, got {horizon_s}")
    sched = SCHEDULES[kind]
    # gaps >= jitter_lo_s, so this many draws always reach the horizon
    n = int(horizon_s / sched.jitter_lo_s) + 2
    times = np.cumsum(rng.uniform(sched.jitter_lo_s, sched.jitter_hi_s, n))
    # gaps are positive, so the times below the horizon are a prefix
    return times[: np.searchsorted(times, horizon_s)]
