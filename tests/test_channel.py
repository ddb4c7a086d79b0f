"""Link budget and bit-error model tests.

Expected values are frozen from independent evaluations: direct formula
arithmetic for the link budget, the BPSK closed form and a Monte Carlo
phase-decision experiment for the exact PSK integral.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import erfc

import subprocess
import sys
from pathlib import Path

import sim1090
from sim1090.aloha import Verdict
from sim1090.channel import (
    LinkBudget,
    PSK_ORDER,
    aircraft_link_state,
    ber_mpsk_approx,
    ber_mpsk_exact,
    corruption_probability,
    path_loss_db,
    snr_linear,
)
from sim1090.cli import load_preset
from sim1090.engine import run
from sim1090.packets import KIND_ORDER, PacketKind
from sim1090.scenario import ScenarioConfig, build_fleet
from sim1090.seeding import channel_rng


class TestPathLoss:
    def test_unit_point_leaves_constant(self):
        assert path_loss_db(1.0, 1.0) == pytest.approx(32.44)

    def test_plane_edge(self):
        assert path_loss_db(50.0, 1090.0) == pytest.approx(127.1679, abs=1e-3)

    def test_uav_edge(self):
        assert path_loss_db(5.0, 1090.0) == pytest.approx(107.1679, abs=1e-3)

    def test_vectorised(self):
        out = path_loss_db(np.array([5.0, 50.0]), 1090.0)
        assert out == pytest.approx([107.1679, 127.1679], abs=1e-3)

    def test_strictly_increasing_in_distance_and_frequency(self):
        d = np.linspace(0.1, 60.0, 300)
        assert np.all(np.diff(path_loss_db(d, 1090.0)) > 0)
        f = np.linspace(100.0, 2000.0, 300)
        assert np.all(np.diff(path_loss_db(10.0, f)) > 0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            path_loss_db(0.0, 1090.0)
        with pytest.raises(ValueError):
            path_loss_db(10.0, -1.0)

    def test_nan_rejected(self):
        # a NaN distance would otherwise fail later, as a NaN SNR ratio
        for d, f in ((math.nan, 1090.0), (10.0, math.nan), (np.array([5.0, math.nan]), 1090.0)):
            with pytest.raises(ValueError, match="must be positive"):
                path_loss_db(d, f)
        with pytest.raises(ValueError, match="must be positive"):
            aircraft_link_state([math.nan], [44.0], _link())


class TestReceivedPowerAndGate:
    """S = P - L and the inclusive gate S >= A, on the engine's array path."""

    def test_plane_edge_power(self):
        assert aircraft_link_state([50.0], [44.0], _link()).rx_power_dbm[0] == pytest.approx(-83.168, abs=1e-3)

    def test_uav_edge_power(self):
        assert aircraft_link_state([5.0], [30.0], _link()).rx_power_dbm[0] == pytest.approx(-77.168, abs=1e-3)

    def test_gate_inclusive_boundary(self):
        # an aircraft whose S equals the sensitivity is heard; one ulp above, gated
        for d, p in ((50.0, 44.0), (5.0, 30.0)):
            s = float(aircraft_link_state([d], [p], _link()).rx_power_dbm[0])
            at = replace(_link(), sensitivity_dbm=s)
            above = replace(_link(), sensitivity_dbm=float(np.nextafter(s, math.inf)))
            assert not aircraft_link_state([d], [p], at).below_sensitivity[0]
            assert aircraft_link_state([d], [p], above).below_sensitivity[0]


class TestSnr:
    def test_equal_powers(self):
        assert snr_linear(-90.0, -90.0) == pytest.approx(1.0)

    def test_decade(self):
        assert snr_linear(-80.0, -90.0) == pytest.approx(10.0)

    def test_plane_edge_vs_default_floor(self):
        assert snr_linear(-83.17, -90.0) == pytest.approx(4.8195, abs=1e-3)


def _phase_error_density(theta: float, r: float) -> float:
    # density of the received-phase error at offset theta for linear SNR r;
    # 0.5 * erfc(-sqrt(r) * c) is the normal CDF at sqrt(2r) * c
    c = math.cos(theta)
    return (
        math.exp(-r)
        + math.sqrt(4.0 * math.pi * r) * c * math.exp(-r * math.sin(theta) ** 2) * 0.5 * math.erfc(-math.sqrt(r) * c)
    ) / (2.0 * math.pi)


def quadrature_ber(r: float, m: int) -> float:
    """Oracle: the phase-error density integrated over the decision-failure
    region |theta| > pi/M by adaptive quadrature, to 1e-6 absolute."""
    half, abserr = integrate.quad(_phase_error_density, math.pi / m, math.pi, args=(r,), epsabs=5e-8, limit=200)
    assert 2.0 * abserr <= 1e-6
    return 2.0 * half


class _BerContract:
    """Array and domain contract shared by both BER functions (`ber`)."""

    def test_domain(self):
        with pytest.raises(ValueError):
            self.ber(-0.1, 8)
        with pytest.raises(ValueError):
            self.ber(1.0, 1)
        # NaN fails the domain check rather than passing through as a NaN rate
        with pytest.raises(ValueError, match="snr ratio must be >= 0, got nan"):
            self.ber(math.nan, 8)
        with pytest.raises(ValueError, match="snr ratio must be >= 0"):
            self.ber(np.array([1.0, math.nan]), 8)

    def test_array_equals_scalar_calls(self):
        # equal, not approximately equal: the fleet chain evaluates an array,
        # the scalar chain one aircraft at a time
        grid = np.concatenate([np.linspace(0.0, 60.0, 241), [1e-300, 4.82, 1e6, math.inf]])
        values = self.ber(grid, 8)
        assert values.dtype == np.float64
        assert all(v == self.ber(r, 8) for v, r in zip(values.tolist(), grid.tolist()))

    def test_shape_and_scalar_type(self):
        out = self.ber(np.full((3, 4), 2.0), 8)
        assert out.shape == (3, 4) and out.dtype == np.float64
        assert type(self.ber(2.0, 8)) is float
        assert type(self.ber(np.float64(2.0), 8)) is float
        assert type(self.ber(np.array(2.0), 8)) is float
        assert self.ber(np.empty((0, 2)), 8).shape == (0, 2)


class TestBerApprox(_BerContract):
    ber = staticmethod(ber_mpsk_approx)

    def test_zero_snr(self):
        assert ber_mpsk_approx(0.0, 8) == 1.0

    def test_plane_edge_value(self):
        # erfc(sqrt(4.82) * sin(pi/8)) = erfc(0.84016...)
        assert ber_mpsk_approx(4.82, 8) == pytest.approx(0.234767, abs=1e-5)

    def test_high_snr_vanishes(self):
        # erfc(10 * sin(pi/8)) = 6.23e-8 at r=100; at high SNR the closed
        # form is the asymptote of the exact phase integral
        assert ber_mpsk_approx(100.0, 8) < 1e-7
        for r in (50.0, 100.0):
            assert ber_mpsk_approx(r, 8) == pytest.approx(ber_mpsk_exact(r, 8), rel=1e-4)

    def test_monotone_non_increasing(self):
        grid = np.linspace(0.0, 50.0, 500)
        values = ber_mpsk_approx(grid, 8)
        assert np.all(np.diff(values) <= 0)

    def test_matches_scipy_erfc(self):
        # math.erfc and scipy.special.erfc differ in the last bits; on this
        # grid the largest relative gap measured 2.5e-15
        grid = np.linspace(0.0, 200.0, 20001)
        expected = erfc(np.sqrt(grid) * math.sin(math.pi / 8))
        np.testing.assert_allclose(ber_mpsk_approx(grid, 8), expected, rtol=1e-14, atol=0.0)


class TestBerExact(_BerContract):
    ber = staticmethod(ber_mpsk_exact)

    def test_zero_snr_is_uniform_phase_decision(self):
        # the exact form must reproduce 1 - 1/M at zero SNR
        assert ber_mpsk_exact(0.0, 8) == pytest.approx(0.875, abs=1e-9)
        assert ber_mpsk_exact(0.0, 4) == pytest.approx(0.75, abs=1e-9)

    def test_zero_snr_matches_monte_carlo_phase_oracle(self):
        # independent oracle: at zero SNR the received phase is uniform and
        # the decision fails whenever it leaves the +/- pi/M sector
        rng = np.random.default_rng(424242)
        phases = rng.uniform(-math.pi, math.pi, 1_000_000)
        mc = np.mean(np.abs(phases) > math.pi / 8)
        assert ber_mpsk_exact(0.0, 8) == pytest.approx(mc, abs=3 * 3.3e-4)

    def test_bpsk_closed_form(self):
        # independent oracle: for M=2 the integral equals 0.5 erfc(sqrt(r))
        for r in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
            assert ber_mpsk_exact(r, 2) == pytest.approx(0.5 * erfc(math.sqrt(r)), rel=1e-8)

    def test_high_snr_asymptote(self):
        # at high SNR the integral approaches erfc(sqrt(r) sin(pi/M)); at
        # r = inf both are their limit 0
        for r in (50.0, 100.0, math.inf):
            asymptote = erfc(math.sqrt(r) * math.sin(math.pi / 8))
            assert ber_mpsk_exact(r, 8) == pytest.approx(asymptote, rel=1e-4)

    def test_monotone_non_increasing(self):
        grid = np.linspace(0.0, 30.0, 121)
        values = [ber_mpsk_exact(r, 8) for r in grid]
        assert np.all(np.diff(values) <= 1e-12)

    @pytest.mark.parametrize("m", [2, 4, 8, 16])
    def test_matches_quadrature_oracle(self, m):
        grid = np.concatenate([[0.0, 1e-300], np.logspace(-12, 4, 161)])
        expected = [quadrature_ber(r, m) for r in grid.tolist()]
        np.testing.assert_allclose(ber_mpsk_exact(grid, m), expected, rtol=0.0, atol=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(
        r=st.floats(0.0, 1e4) | st.sampled_from([0.0, 1e-300, math.inf]),
        m=st.sampled_from([2, 4, 8, 16]),
    )
    def test_closed_form_is_upper_bound(self, r, m):
        # exact = approx/2 + tail with 0 <= tail <= approx/2; the one slack is
        # a subnormal approx, whose half rounds by one unit of the last place
        exact, approx = ber_mpsk_exact(r, m), ber_mpsk_approx(r, m)
        ulp = np.finfo(float).smallest_subnormal
        assert exact <= approx + ulp
        assert approx <= 2.0 * exact + ulp


class TestCorruptionProbability:
    def test_zero_is_zero_in_every_mode(self):
        for mode in ("approx_eq5", "exact_eq4", "per_bit"):
            out = corruption_probability(0.0, PacketKind.POS, mode)
            assert out == 0.0 and type(out) is float

    def test_packet_level_modes_pass_through(self):
        assert corruption_probability(0.0548, PacketKind.POS, "approx_eq5") == 0.0548
        assert corruption_probability(0.0548, PacketKind.ID, "exact_eq4") == 0.0548

    def test_per_bit_scales_with_length(self):
        assert corruption_probability(0.001, PacketKind.POS, "per_bit") == pytest.approx(
            1.0 - 0.999**120
        )
        assert corruption_probability(0.001, PacketKind.SMAG, "per_bit") == pytest.approx(
            1.0 - 0.999**64
        )

    def test_domain(self):
        with pytest.raises(ValueError):
            corruption_probability(1.5, PacketKind.POS, "approx_eq5")
        with pytest.raises(ValueError):
            corruption_probability(0.5, PacketKind.POS, "bogus")
        for bad in ([0.1, math.nan], [0.1, 1.5]):
            with pytest.raises(ValueError, match="pe_bit must be in"):
                corruption_probability(np.array(bad), PacketKind.POS, "per_bit")


def _link(noise=-90.0, mode="approx_eq5"):
    return LinkBudget(freq_mhz=1090.0, noise_floor_dbm=noise, sensitivity_dbm=-93.0, ber_mode=mode)


class TestLinkBudget:
    def test_from_config(self):
        cfg = ScenarioConfig(n_planes=1, noise_floor_dbm=-85.0)
        link = LinkBudget.from_config(cfg)
        assert link == LinkBudget(1090.0, -85.0, -93.0, "approx_eq5")

    @pytest.mark.parametrize("field", ["freq_mhz", "noise_floor_dbm", "sensitivity_dbm"])
    def test_non_finite_rejected(self, field):
        # a NaN sensitivity would gate every aircraft without a word
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                replace(_link(), **{field: bad})

    def test_far_finite_floor_is_valid(self):
        assert _link(noise=-4000.0).noise_floor_dbm == -4000.0


class TestClassify:
    def test_chain_for_edge_plane(self):
        # a plane at 50 km sending 44 dBm
        state = aircraft_link_state([50.0], [44.0], _link())
        assert state.rx_power_dbm[0] == pytest.approx(-83.168, abs=1e-3)
        assert not state.below_sensitivity[0]
        # r = 10^((-83.168 + 90) / 10) = 4.8195, erfc(sqrt(r) * sin(pi/8))
        assert state.pe_bit[0] == pytest.approx(0.234681, abs=1e-5)

    def test_far_low_power_emitter_is_gated(self):
        # a UAV at 40 km sending 30 dBm
        state = aircraft_link_state([40.0], [30.0], _link())
        assert state.rx_power_dbm[0] < -93.0
        assert state.below_sensitivity[0]

    def test_pe_constant_across_a_run(self):
        # quasi-static distance means one Pe per aircraft, every packet alike:
        # the engine judges each uniform of the channel stream against it
        cfg = ScenarioConfig(
            n_planes=1, duration_s=60.0, seed=3, noise_floor_dbm=-80.0,
            enabled_kinds=frozenset({PacketKind.POS}),
        )
        report = run(cfg)
        fleet = build_fleet(cfg)
        pe = aircraft_link_state(fleet.distance_km, fleet.power_dbm, LinkBudget.from_config(cfg)).pe_bit[0]
        draws = channel_rng(cfg.seed, 0).uniform(0.0, 1.0, report.generated_total)
        expected = int(np.count_nonzero(draws >= 1.0 - pe))
        assert 0 < expected < report.generated_total
        assert int(report.counts[:, :, Verdict.LOST_CORRUPTED].sum()) == expected

    def test_corruption_frequency_matches_probability(self):
        # 10^5 draws within 3 sigma binomial bounds of the chained Pe
        pe = float(aircraft_link_state([50.0], [44.0], _link()).pe_bit[0])
        rng = channel_rng(8, 0)
        draws = rng.uniform(0.0, 1.0, 100_000)
        freq = np.mean(draws >= 1.0 - pe)
        sigma = math.sqrt(pe * (1 - pe) / draws.size)
        assert abs(freq - pe) < 3 * sigma

    def test_channel_errors_disabled_is_clean(self):
        # planes out to 400 km at a -80 dBm floor: gated and corrupted
        # packets with channel errors on, none with them off
        cfg = ScenarioConfig(n_planes=6, duration_s=30.0, seed=1, plane_radius_km=400.0, noise_floor_dbm=-80.0)
        on = run(cfg)
        assert int(on.counts[:, :, Verdict.LOST_BELOW_SENSITIVITY].sum()) > 0
        assert int(on.counts[:, :, Verdict.LOST_CORRUPTED].sum()) > 0
        off = run(cfg.with_overrides(channel_errors_enabled=False))
        assert int(off.counts[:, :, Verdict.LOST_BELOW_SENSITIVITY].sum()) == 0
        assert int(off.counts[:, :, Verdict.LOST_CORRUPTED].sum()) == 0

    def test_uav_class_holds_six_db_link_margin(self):
        # at matched radius quantiles the UAV class sits exactly 6 dB above
        # the plane class: 10x distance costs 20 dB, the power gap is 14 dB
        link = _link()
        for q in (0.1, 0.5, 1.0):
            s_plane, s_uav = aircraft_link_state([50.0 * q, 5.0 * q], [44.0, 30.0], link).rx_power_dbm
            assert s_uav - s_plane == pytest.approx(6.0, abs=1e-9)


class TestFleetIntegration:
    def test_every_default_aircraft_clears_the_gate(self):
        cfg = ScenarioConfig(n_planes=50, n_uavs=20, seed=5)
        link = LinkBudget.from_config(cfg)
        fleet = build_fleet(cfg)
        assert not aircraft_link_state(fleet.distance_km, fleet.power_dbm, link).below_sensitivity.any()

    @pytest.mark.parametrize(
        "cfg",
        [
            load_preset("fig5.scn"),
            load_preset("fig7.scn"),
            ScenarioConfig(n_planes=6, n_uavs=3, seed=4, plane_radius_km=200.0, noise_floor_dbm=-80.0, ber_mode="exact_eq4"),
            load_preset("fig6.scn").with_overrides(noise_floor_dbm=-78.0, ber_mode="per_bit"),
        ],
        ids=["fig5", "fig7", "exact_eq4", "per_bit"],
    )
    def test_fleet_arrays_equal_scalar_chain(self, cfg):
        # equal, not approximately equal: the engine's verdicts compare
        # uniforms against these values
        link = LinkBudget.from_config(cfg)
        fleet = build_fleet(cfg)
        state = aircraft_link_state(fleet.distance_km, fleet.power_dbm, link)
        p_bad = {k: corruption_probability(state.pe_bit, k, link.ber_mode) for k in KIND_ORDER}
        # per_bit takes the closed form; corruption_probability length-scales it
        ber = ber_mpsk_exact if link.ber_mode == "exact_eq4" else ber_mpsk_approx
        for a in fleet:
            s = a.power_dbm - path_loss_db(a.distance_km, link.freq_mhz)
            assert state.rx_power_dbm[a.id] == s
            assert state.below_sensitivity[a.id] == (not s >= link.sensitivity_dbm)
            pe = ber(snr_linear(s, link.noise_floor_dbm), PSK_ORDER)
            assert state.pe_bit[a.id] == pe
            for k in KIND_ORDER:
                assert p_bad[k][a.id] == corruption_probability(pe, k, link.ber_mode)


def test_no_mode_loads_scipy():
    # scipy costs a cold start about a quarter second and numpy.polynomial a
    # few milliseconds: the CLI loads neither, and no BER mode loads scipy
    src = Path(sim1090.__file__).resolve().parents[1]
    code = """
import json, sys
import sim1090.cli
from sim1090.aloha import Verdict
from sim1090.engine import run
from sim1090.scenario import ScenarioConfig

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

after_import = scipy_modules()
polynomial_loaded = "numpy.polynomial" in sys.modules
cfg = ScenarioConfig(n_planes=5, n_uavs=2, duration_s=10.0, seed=3, noise_floor_dbm=-80.0)
modes = ("approx_eq5", "per_bit", "exact_eq4")
reports = [run(cfg.with_overrides(ber_mode=m)) for m in modes]
corrupted = [int(r.counts[:, :, Verdict.LOST_CORRUPTED].sum()) for r in reports]
print(json.dumps([after_import, polynomial_loaded, scipy_modules(), corrupted]))
"""
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True, check=True, timeout=60
    )
    after_import, polynomial_loaded, after_runs, corrupted = json.loads(out.stdout)
    assert after_import == []
    assert not polynomial_loaded
    assert after_runs == []
    assert min(corrupted) > 0  # the channel step really ran in every mode
