"""Deterministic random-stream derivation.

Every stream is keyed by the scenario seed plus a fixed role tag (and the
aircraft id where applicable), so a run is a pure function of its config
and independent subsystems never share a stream. Fleet geometry, traffic
timing and channel noise draws each get their own stream; toggling channel
errors therefore never perturbs the generated timelines.
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np

_FLEET_TAG = 1
_TRAFFIC_TAG = 2
_CHANNEL_TAG = 3
_REPLICATION_TAG = 4

MAX_SEED = 2**64 - 1


def fleet_rng(seed: int) -> np.random.Generator:
    """Stream that draws aircraft distances."""
    return np.random.default_rng(np.random.SeedSequence((seed, _FLEET_TAG)))


def _aircraft_rng(seed: int, tag: int, aircraft_id: int) -> np.random.Generator:
    """The stream of ``default_rng(SeedSequence((seed, tag, aircraft_id)))``.

    SeedSequence reads a tuple of ints as the 32-bit little-endian words of
    each, at least one per int, concatenated. Handing it those words as one
    uint32 array skips its per-int coercion and gives the same state. An
    aircraft id is one word.
    """
    seed = operator.index(seed)
    if seed < 0 or not 0 <= aircraft_id <= 0xFFFFFFFF:
        raise ValueError(f"seed and aircraft id must be non-negative, the id below 2**32: {seed}, {aircraft_id}")
    words = [seed & 0xFFFFFFFF]
    while seed := seed >> 32:
        words.append(seed & 0xFFFFFFFF)
    words += (tag, aircraft_id)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.array(words, dtype=np.uint32))))


def traffic_rng(seed: int, aircraft_id: int) -> np.random.Generator:
    """Per-aircraft stream for emission gaps."""
    return _aircraft_rng(seed, _TRAFFIC_TAG, aircraft_id)


def channel_rng(seed: int, aircraft_id: int) -> np.random.Generator:
    """Per-aircraft stream for packet corruption draws."""
    return _aircraft_rng(seed, _CHANNEL_TAG, aircraft_id)


def replication_seed(seed: int, k: int) -> int:
    """Seed of replication k, a pure function of (seed, k)."""
    ss = np.random.SeedSequence((seed, _REPLICATION_TAG, int(k)))
    return int(ss.generate_state(1, np.uint64)[0])


def stable_seed(*parts: object) -> int:
    """Platform-stable 63-bit seed derived from a tuple of values.

    Used for sweep points so that adding values or replications never
    perturbs the seeds of existing ones.
    """
    text = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1
