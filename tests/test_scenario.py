"""Scenario parsing, validation and deterministic fleet generation."""

import math
from dataclasses import fields

import numpy as np
import pytest
from scipy import stats

from sim1090.frames import AirframeKind
from sim1090.packets import PacketKind
from sim1090.scenario import (
    CLASSES,
    MAX_AIRCRAFT,
    MAX_PACKETS,
    ScenarioConfig,
    ValidationError,
    build_fleet,
    loads_scenario,
    parse_value,
)
from sim1090.seeding import fleet_rng

FLOAT_KEYS = (
    "plane_radius_km",
    "uav_radius_km",
    "plane_power_dbm",
    "uav_power_dbm",
    "sensitivity_dbm",
    "freq_mhz",
    "noise_floor_dbm",
    "duration_s",
    "deadline_s",
)


class TestLoadScenario:
    def test_empty_document_requires_n_planes(self):
        with pytest.raises(ValidationError, match="n_planes"):
            loads_scenario("")

    def test_defaults(self):
        cfg = loads_scenario("n_planes = 200")
        assert cfg.n_uavs == 0
        assert cfg.plane_radius_km == 50.0
        assert cfg.uav_radius_km == 5.0
        assert cfg.plane_power_dbm == 44.0
        assert cfg.uav_power_dbm == 30.0
        assert cfg.sensitivity_dbm == -93.0
        assert cfg.freq_mhz == 1090.0
        assert cfg.duration_s == 500.0
        assert cfg.deadline_s == 3.0
        assert cfg.tracked_aircraft == 0
        assert cfg.enabled_kinds == frozenset(PacketKind)
        assert cfg.ber_mode == "approx_eq5"

    def test_uav_fleet_document(self):
        cfg = loads_scenario("n_planes = 200\nn_uavs = 20\n")
        assert (cfg.n_planes, cfg.n_uavs) == (200, 20)

    def test_comments_and_blank_lines(self):
        cfg = loads_scenario("# a comment\n\nn_planes = 1  # trailing\n")
        assert cfg.n_planes == 1

    def test_unknown_key_named(self):
        with pytest.raises(ValidationError, match="bogus_key"):
            loads_scenario("n_planes = 1\nbogus_key = 3\n")

    def test_bandwidth_key_is_unknown(self):
        # no model step reads a receiver bandwidth, so the key was removed
        with pytest.raises(ValidationError, match="line 2: unknown key 'bandwidth_hz'"):
            loads_scenario("n_planes = 1\nbandwidth_hz = 1e6\n")

    def test_type_mismatch_named(self):
        with pytest.raises(ValidationError, match="n_planes"):
            loads_scenario("n_planes = many")

    def test_negative_duration_rejected(self):
        with pytest.raises(ValidationError, match="duration_s"):
            loads_scenario("n_planes = 1\nduration_s = -1\n")

    def test_kind_list_parsing(self):
        cfg = loads_scenario("n_planes = 1\nenabled_kinds = POS,ID\n")
        assert cfg.enabled_kinds == frozenset({PacketKind.POS, PacketKind.ID})

    def test_bad_kind_rejected(self):
        with pytest.raises(ValidationError, match="enabled_kinds"):
            loads_scenario("n_planes = 1\nenabled_kinds = POS,XYZ\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            loads_scenario("n_planes = 1\nn_planes = 2\n")

    def test_float_keys_are_the_float_fields(self):
        assert tuple(f.name for f in fields(ScenarioConfig) if f.type == "float") == FLOAT_KEYS
        for key in FLOAT_KEYS:
            assert parse_value(key, "2.5") == 2.5

    def test_parse_value_types(self):
        assert parse_value("n_uavs", "7") == 7
        assert parse_value("ber_mode", "per_bit") == "per_bit"
        assert parse_value("area_uniform", "Yes") is True
        assert parse_value("channel_errors_enabled", "off") is False
        assert parse_value("enabled_kinds", "pos smag") == frozenset({PacketKind.POS, PacketKind.SMAG})
        for key, raw in (("n_uavs", "1.5"), ("area_uniform", "maybe"), ("enabled_kinds", " ")):
            with pytest.raises(ValueError):
                parse_value(key, raw)

    def test_bad_value_names_line_and_key(self):
        with pytest.raises(ValidationError, match="line 2: bad value for area_uniform: 'maybe'"):
            loads_scenario("n_planes = 1\narea_uniform = maybe\n")

    def test_unknown_ber_mode_rejected_by_validation(self):
        with pytest.raises(ValidationError, match="ber_mode must be one of"):
            loads_scenario("n_planes = 1\nber_mode = fast\n")


class TestValidation:
    def test_empty_fleet_rejected(self):
        with pytest.raises(ValidationError, match="at least one aircraft"):
            ScenarioConfig(n_planes=0, n_uavs=0).validate()

    def test_radius_ordering(self):
        with pytest.raises(ValidationError, match="radii"):
            ScenarioConfig(n_planes=1, uav_radius_km=60.0).validate()

    def test_empty_kinds_rejected(self):
        with pytest.raises(ValidationError, match="enabled_kinds"):
            ScenarioConfig(n_planes=1, enabled_kinds=frozenset()).validate()

    def test_all_problems_listed(self):
        with pytest.raises(ValidationError) as err:
            ScenarioConfig(n_planes=-1, n_uavs=0, duration_s=0).validate()
        text = str(err.value)
        assert "n_planes" in text and "duration_s" in text

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_rejected(self, key, bad):
        with pytest.raises(ValidationError) as err:
            ScenarioConfig(n_planes=1, **{key: bad}).validate()
        assert f"{key} must be finite, got {bad}" in err.value.problems

    def test_every_non_finite_key_listed(self):
        problems = ScenarioConfig(n_planes=1, **{key: math.nan for key in FLOAT_KEYS}).problems()
        for key in FLOAT_KEYS:
            assert f"{key} must be finite, got nan" in problems

    def test_packet_budget(self):
        problems = ScenarioConfig(n_planes=200, duration_s=1e9).problems()
        assert problems == [
            "200 aircraft at about 1.04e+10 packets each exceed the limit of 50,000,000 "
            "packets; shorten duration_s or shrink the fleet"
        ]

    def test_packet_budget_boundary(self):
        # one aircraft sending POS only: 2 packets/s
        at_limit = ScenarioConfig(n_planes=1, enabled_kinds=frozenset({PacketKind.POS}),
                                  duration_s=MAX_PACKETS / 2)
        assert at_limit.problems() == []
        assert len(at_limit.with_overrides(duration_s=MAX_PACKETS / 2 + 1).problems()) == 1

    def test_aircraft_budget(self):
        # about 1e4 packets, well under MAX_PACKETS: only the fleet is too big
        assert ScenarioConfig(n_planes=10**9, duration_s=1e-6).problems() == [
            "1000000000 aircraft exceed the limit of 5,000,000 aircraft; shrink the fleet"
        ]

    def test_aircraft_budget_boundary(self):
        at_limit = ScenarioConfig(n_planes=MAX_AIRCRAFT - 1, n_uavs=1, duration_s=1e-3)
        assert at_limit.problems() == []
        assert len(at_limit.with_overrides(n_uavs=2).problems()) == 1

    @pytest.mark.parametrize("changes", [
        {"duration_s": math.inf}, {"duration_s": math.nan}, {"duration_s": -1.0},
        {"n_planes": -1, "n_uavs": 10**9},
    ])
    def test_packet_budget_not_derived_from_invalid_values(self, changes):
        problems = ScenarioConfig(**{"n_planes": 200, **changes}).problems()
        assert problems and not any("limit" in p for p in problems)

    def test_huge_fleet_over_budget_without_overflow(self):
        problems = ScenarioConfig(n_planes=10**400).problems()
        assert any("limit of 50,000,000 packets" in p for p in problems)

    def test_non_finite_value_in_scenario_text_rejected(self):
        with pytest.raises(ValidationError, match="noise_floor_dbm must be finite"):
            loads_scenario("n_planes = 2\nnoise_floor_dbm = nan\n")

    @pytest.mark.parametrize("key, value", [
        ("channel_errors_enabled", "no"),
        ("enabled_kinds", frozenset({"POS"})),
        ("duration_s", "5"),
        ("n_planes", 2.5),
        ("n_planes", True),
        ("seed", 1.5),
        ("tracked_aircraft", 0.5),
    ])
    def test_value_of_wrong_type_rejected(self, key, value):
        # a string, a bool as a number or a float as a count is one problem
        # naming its key, never a crash or a config that runs
        with pytest.raises(ValidationError) as err:
            ScenarioConfig(**{"n_planes": 2, key: value}).validate()
        assert len(err.value.problems) == 1 and err.value.problems[0].startswith(f"{key} must be ")


class TestBuildFleet:
    def test_plane_only_fleet(self):
        cfg = ScenarioConfig(n_planes=200, n_uavs=0, seed=1)
        fleet = build_fleet(cfg)
        assert len(fleet) == 200
        assert all(CLASSES[a.kind] is AirframeKind.PLANE for a in fleet)
        assert all(0 < a.distance_km <= 50.0 for a in fleet)
        assert all(a.power_dbm == 44.0 for a in fleet)

    def test_single_uav_boundary_fleet(self):
        fleet = build_fleet(ScenarioConfig(n_planes=0, n_uavs=1))
        assert len(fleet) == 1
        uav = fleet[0]
        assert CLASSES[uav.kind] is AirframeKind.UAV
        assert 0 < uav.distance_km <= 5.0
        assert uav.power_dbm == 30.0

    def test_deterministic_element_by_element(self):
        cfg = ScenarioConfig(n_planes=50, n_uavs=10, seed=7)
        assert np.array_equal(build_fleet(cfg), build_fleet(cfg))

    def test_different_seeds_differ(self):
        a = build_fleet(ScenarioConfig(n_planes=50, seed=1))
        b = build_fleet(ScenarioConfig(n_planes=50, seed=2))
        assert not np.array_equal(a, b)

    def test_ids_sequential(self):
        fleet = build_fleet(ScenarioConfig(n_planes=3, n_uavs=2, seed=3))
        assert [a.id for a in fleet] == [0, 1, 2, 3, 4]

    def test_invalid_config_rejected(self):
        with pytest.raises(ValidationError):
            build_fleet(ScenarioConfig(n_planes=0, n_uavs=0))

    def test_one_record_array_indexed_by_id(self):
        fleet = build_fleet(ScenarioConfig(n_planes=3, n_uavs=2, seed=3))
        assert fleet.dtype.names == ("id", "kind", "distance_km", "power_dbm")
        assert fleet.kind.dtype == np.int8
        assert [CLASSES[k] for k in fleet.kind] == [AirframeKind.PLANE] * 3 + [AirframeKind.UAV] * 2
        assert fleet.power_dbm.tolist() == [44.0] * 3 + [30.0] * 2
        assert fleet[4].id == 4 and fleet[4].distance_km == fleet.distance_km[4]

    @pytest.mark.parametrize("area_uniform", [False, True])
    def test_distances_are_the_class_draws_in_order(self, area_uniform):
        # planes' uniforms first, then the UAVs', from the one fleet stream
        cfg = ScenarioConfig(n_planes=4, n_uavs=3, seed=9, area_uniform=area_uniform)
        rng = fleet_rng(cfg.seed)
        left = np.concatenate([1.0 - rng.uniform(0.0, 1.0, 4), 1.0 - rng.uniform(0.0, 1.0, 3)])
        if area_uniform:
            left = left ** 0.5
        assert np.array_equal(build_fleet(cfg).distance_km, np.repeat([50.0, 5.0], [4, 3]) * left)

    def test_distance_distribution_uniform(self):
        # Kolmogorov-Smirnov at 1% significance over 10^5 pooled draws
        draws = []
        for seed in range(500):
            fleet = build_fleet(ScenarioConfig(n_planes=200, seed=seed))
            draws.extend(fleet.distance_km)
        pooled = np.array(draws) / 50.0
        assert len(pooled) == 100_000
        assert stats.kstest(pooled, "uniform").pvalue > 0.01

    def test_area_uniform_option(self):
        # area-uniform distances concentrate toward the rim: CDF is (d/R)^2
        draws = []
        for seed in range(100):
            fleet = build_fleet(ScenarioConfig(n_planes=200, seed=seed, area_uniform=True))
            draws.extend(fleet.distance_km)
        pooled = (np.array(draws) / 50.0) ** 2
        assert stats.kstest(pooled, "uniform").pvalue > 0.01
