"""Seeding tests: each aircraft's traffic and channel streams are the
streams of ``SeedSequence((seed, tag, aircraft id))``, for Python and numpy
integer ids alike."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sim1090 import seeding
from sim1090.scenario import MAX_AIRCRAFT
from sim1090.seeding import MAX_SEED, channel_rng, traffic_rng

STREAMS = [(traffic_rng, seeding._TRAFFIC_TAG), (channel_rng, seeding._CHANNEL_TAG)]
#: ids as the engine passes them, and as np.int64, the dtype of the fleet's
#: id column, which the benchmark's packet count passes as it is
IDS = [0, 1, MAX_AIRCRAFT - 1]


def assert_same_stream(stream, tag, seed, aircraft_id):
    expected = np.random.default_rng(np.random.SeedSequence((seed, tag, aircraft_id)))
    assert np.array_equal(stream(seed, aircraft_id).random(16), expected.random(16))


@pytest.mark.parametrize("stream, tag", STREAMS)
@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, MAX_SEED])
@pytest.mark.parametrize("aircraft_id", IDS + [np.int64(i) for i in IDS])
def test_stream_is_the_seed_sequence_of_seed_tag_id(stream, tag, seed, aircraft_id):
    assert_same_stream(stream, tag, seed, aircraft_id)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, MAX_SEED), aircraft_id=st.integers(0, MAX_AIRCRAFT - 1), as_numpy=st.booleans())
def test_stream_matches_seed_sequence_for_any_seed(seed, aircraft_id, as_numpy):
    for stream, tag in STREAMS:
        assert_same_stream(stream, tag, seed, np.int64(aircraft_id) if as_numpy else aircraft_id)


@pytest.mark.parametrize("seed, aircraft_id", [(-1, 0), (0, -1), (0, np.int64(-1)), (0, 2**32)])
def test_out_of_range_seed_or_id_is_rejected(seed, aircraft_id):
    for stream, _tag in STREAMS:
        with pytest.raises(ValueError):
            stream(seed, aircraft_id)
