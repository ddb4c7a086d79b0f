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


def max_emissions(kind: PacketKind, horizon_s: float) -> int:
    """An upper bound on the emissions of one kind in [0, horizon_s).

    No gap is shorter than jitter_lo_s; the + 1 covers the float rounding of
    the gaps' running sum at exact multiples of it.
    """
    return int(horizon_s / SCHEDULES[kind].jitter_lo_s) + 1


def emission_times(kind: PacketKind, horizon_s: float, rng: np.random.Generator) -> np.ndarray:
    """All emission start times of one kind in [0, horizon_s), ascending.

    The jittered gaps are drawn as one block from the stream; the draw count
    depends only on kind and horizon.
    """
    if horizon_s <= 0:
        raise ValueError(f"horizon_s must be > 0, got {horizon_s}")
    sched = SCHEDULES[kind]
    # one draw past the bound always reaches the horizon
    n = max_emissions(kind, horizon_s) + 1
    times = rng.uniform(sched.jitter_lo_s, sched.jitter_hi_s, n)
    times.cumsum(out=times)
    # gaps are positive, so the times below the horizon are a prefix
    return times[: times.searchsorted(horizon_s)]
