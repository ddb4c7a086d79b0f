"""Free-space link budget and PSK bit-error model.

Powers are carried in dBm and losses in dB; signal-to-noise ratios are
linear. The per-packet corruption decision follows the good/bad draw rule:
a packet is recorded bad with probability equal to the bit error rate
(modes ``approx_eq5`` and ``exact_eq4``), or with the length-scaled
probability 1-(1-Pe)^bits in the physically-motivated ``per_bit`` mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .packets import PacketKind, on_air_bits
from .scenario import BER_MODES, ScenarioConfig


#: modulation order M of the M-PSK bit-error model
PSK_ORDER = 8

# math.erfc elementwise: a fleet holds a few hundred aircraft, too few to pay
# for importing an array erfc, which would cost every command a quarter second
_erfc = np.frompyfunc(math.erfc, 1, 1)

# Gauss-Legendre nodes of the exact BER's tail integral: for 8-PSK, against a
# 400-node rule wherever P > 1e-160, 32 stay within 7e-10 relative, 16 drift
# to 4e-4
_CRAIG_NODES = 32


@dataclass(frozen=True)
class LinkBudget:
    """Receiver-side radio parameters shared by every packet of a run."""

    freq_mhz: float
    noise_floor_dbm: float
    sensitivity_dbm: float
    ber_mode: str

    def __post_init__(self) -> None:
        for name in ("freq_mhz", "noise_floor_dbm", "sensitivity_dbm"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.freq_mhz <= 0:
            raise ValueError(f"freq_mhz must be > 0, got {self.freq_mhz}")
        if self.ber_mode not in BER_MODES:
            raise ValueError(f"ber_mode must be one of {BER_MODES}, got {self.ber_mode!r}")

    @classmethod
    def from_config(cls, config: ScenarioConfig) -> "LinkBudget":
        return cls(
            freq_mhz=config.freq_mhz,
            noise_floor_dbm=config.noise_floor_dbm,
            sensitivity_dbm=config.sensitivity_dbm,
            ber_mode=config.ber_mode,
        )


def path_loss_db(d_km, f_mhz):
    """Free-space propagation loss: 32.44 + 20 lg d + 20 lg f (km, MHz)."""
    d = np.asarray(d_km, dtype=float)
    f = np.asarray(f_mhz, dtype=float)
    if not (np.all(d > 0) and np.all(f > 0)):  # a NaN is not > 0
        raise ValueError(f"distance and frequency must be positive, got d={d_km} f={f_mhz}")
    out = 32.44 + 20.0 * np.log10(d) + 20.0 * np.log10(f)
    return float(out) if out.ndim == 0 else out


def snr_linear(s_dbm, n_dbm):
    """Linear signal-to-noise power ratio from dBm inputs; a ratio past the
    float range is inf."""
    with np.errstate(over="ignore"):
        out = np.power(10.0, (np.asarray(s_dbm, dtype=float) - n_dbm) / 10.0)
    return float(out) if out.ndim == 0 else out


def ber_mpsk_approx(r, m: int = 8):
    """Closed-form M-PSK bit-error approximation: erfc(sqrt(r)*sin(pi/M)).

    The standard high-SNR approximation of the phase integral that
    ``ber_mpsk_exact`` evaluates, and an upper bound on it: exact =
    approx/2 + tail with 0 <= tail <= approx/2, so exact <= approx <=
    2*exact for every r >= 0. The two agree to within 0.003 for r >= 2.
    Below r = 0.0845 it exceeds 1 - 1/M = 0.875, the largest 8-PSK error:
    it gives 1.0 at r = 0 against the exact 0.875, and 0.5884 against 0.5769
    at r = 1. It is not capped at 1 - 1/M, since that would move reports.
    """
    r = np.asarray(r, dtype=float)
    if not np.all(r >= 0):
        raise ValueError(f"snr ratio must be >= 0, got {r}")
    if m < 2:
        raise ValueError(f"psk order must be >= 2, got {m}")
    out = np.clip(np.asarray(_erfc(np.sqrt(r) * math.sin(math.pi / m)), dtype=float), 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def ber_mpsk_exact(r, m: int = 8):
    """Exact M-PSK error probability in Craig's finite-range form.

    P = (1/pi) int_0^{(M-1)pi/M} exp(-c/sin^2 phi) dphi with c = r sin^2(pi/M).
    The part over (0, pi/2] is exactly approx/2; by the symmetry of sin the
    tail left is the same integrand over [pi/M, pi/2], where it is bounded
    and smooth, so fixed Gauss-Legendre nodes sum it for all of `r` at once.
    """
    # imported here: numpy.polynomial is not otherwise loaded by the CLI
    from numpy.polynomial.legendre import leggauss

    half = 0.5 * ber_mpsk_approx(r, m)
    x, w = leggauss(_CRAIG_NODES)
    lo = math.pi / m
    scale = (math.pi / 2 - lo) / 2
    c = np.asarray(r, dtype=float)[..., None] * math.sin(lo) ** 2
    # summed per row, not by a matrix product, so that one aircraft and a
    # fleet round alike; the tail integrates over a sub-range of the half,
    # so capping it there only removes the rule's last-bit excess at high SNR
    tail = (np.exp(-c / np.sin(lo + scale * (x + 1.0)) ** 2) * w).sum(axis=-1) * (scale / math.pi)
    out = half + np.minimum(tail, half)
    return float(out) if out.ndim == 0 else out


def corruption_probability(pe_bit, kind: PacketKind, mode: str):
    """Probability that one packet of `kind` is recorded bad, elementwise over `pe_bit`.

    The good/bad draw modes use Pe directly; per_bit scales by packet length.
    """
    pe = np.asarray(pe_bit, dtype=float)
    if not np.all((pe >= 0.0) & (pe <= 1.0)):
        raise ValueError(f"pe_bit must be in [0, 1], got {pe_bit}")
    if mode not in BER_MODES:
        raise ValueError(f"unknown ber mode {mode!r}")
    out = 1.0 - np.power(1.0 - pe, on_air_bits(kind)) if mode == "per_bit" else pe
    return float(out) if out.ndim == 0 else out


class LinkState(NamedTuple):
    """Channel constants of a fleet, one entry per aircraft in fleet order
    (quasi-static for the whole run)."""

    rx_power_dbm: np.ndarray
    below_sensitivity: np.ndarray
    pe_bit: np.ndarray


def aircraft_link_state(distance_km, power_dbm, link: LinkBudget) -> LinkState:
    """Chain loss -> received power -> sensitivity gate -> SNR -> Pe over a
    fleet's distance and transmit power columns."""
    s = np.asarray(power_dbm, dtype=float) - path_loss_db(distance_km, link.freq_mhz)  # S = P - L
    # the per_bit mode takes the closed form, which corruption_probability
    # length-scales later
    ber = ber_mpsk_exact if link.ber_mode == "exact_eq4" else ber_mpsk_approx
    return LinkState(
        rx_power_dbm=s,
        below_sensitivity=~(s >= link.sensitivity_dbm),  # inclusive gate S >= A; a NaN S fails it
        pe_bit=ber(snr_linear(s, link.noise_floor_dbm), PSK_ORDER),
    )
