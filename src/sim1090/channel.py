"""Free-space link budget and PSK bit-error model.

Powers are carried in dBm and losses in dB; signal-to-noise ratios are
linear. The per-packet corruption decision follows the good/bad draw rule:
a packet is recorded bad with probability equal to the bit error rate
(modes ``approx_eq5`` and ``exact_eq4``), or with the length-scaled
probability 1-(1-Pe)^bits in the physically-motivated ``per_bit`` mode.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .packets import PacketKind, on_air_bits
from .scenario import BER_MODES, ScenarioConfig


#: modulation order M of the M-PSK bit-error model
PSK_ORDER = 8

# math.erfc elementwise: a fleet holds a few hundred aircraft, and importing
# scipy.special for its erfc would cost every command a quarter second
_erfc = np.frompyfunc(math.erfc, 1, 1)


class QuadratureError(RuntimeError):
    """Raised when the exact bit-error integral fails to converge."""


@dataclass(frozen=True)
class LinkBudget:
    """Receiver-side radio parameters shared by every packet of a run."""

    freq_mhz: float
    noise_floor_dbm: float
    sensitivity_dbm: float
    ber_mode: str = "approx_eq5"

    def __post_init__(self) -> None:
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
    if np.any(d <= 0) or np.any(f <= 0):
        raise ValueError(f"distance and frequency must be positive, got d={d_km} f={f_mhz}")
    out = 32.44 + 20.0 * np.log10(d) + 20.0 * np.log10(f)
    return float(out) if out.ndim == 0 else out


def received_power_dbm(tx_power_dbm, loss_db):
    """Demodulator input power: transmit power minus propagation loss."""
    return tx_power_dbm - loss_db


def passes_sensitivity(s_dbm, a_dbm):
    """Inclusive gate: a packet enters the receiver iff S >= A."""
    return s_dbm >= a_dbm


def snr_linear(s_dbm, n_dbm):
    """Linear signal-to-noise power ratio from dBm inputs; a ratio past the
    float range is inf."""
    with np.errstate(over="ignore"):
        out = np.power(10.0, (np.asarray(s_dbm, dtype=float) - n_dbm) / 10.0)
    return float(out) if out.ndim == 0 else out


def ber_mpsk_approx(r, m: int = 8):
    """Closed-form M-PSK bit-error approximation: erfc(sqrt(r)*sin(pi/M)).

    The standard high-SNR approximation of the phase-error integral that
    ``ber_mpsk_exact`` evaluates; the two agree to within 0.003 for r >= 2.
    """
    r = np.asarray(r, dtype=float)
    if not np.all(r >= 0):
        raise ValueError("snr ratio must be >= 0")
    if m < 2:
        raise ValueError(f"psk order must be >= 2, got {m}")
    out = np.clip(np.asarray(_erfc(np.sqrt(r) * math.sin(math.pi / m)), dtype=float), 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def _phase_error_density(theta: float, r: float) -> float:
    # density of the received-phase error at offset theta for linear SNR r;
    # 0.5 * erfc(-sqrt(r) * c) is the normal CDF at sqrt(2r) * c
    c = math.cos(theta)
    return (
        math.exp(-r)
        + math.sqrt(4.0 * math.pi * r) * c * math.exp(-r * math.sin(theta) ** 2) * 0.5 * math.erfc(-math.sqrt(r) * c)
    ) / (2.0 * math.pi)


def ber_mpsk_exact(r: float, m: int = 8) -> float:
    """Exact M-PSK error probability by adaptive quadrature.

    Integrates the received-phase error density over the decision-failure
    region |theta| > pi/M (the complement form avoids cancellation at high
    SNR). Absolute tolerance 1e-6; non-convergence raises QuadratureError.
    """
    # imported here: no preset uses this mode, and scipy is slow to import
    from scipy import integrate

    if not r >= 0:
        raise ValueError(f"snr ratio must be >= 0, got {r}")
    if m < 2:
        raise ValueError(f"psk order must be >= 2, got {m}")
    if r == math.inf:
        return 0.0  # the limit; the integrand is NaN there
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            half, abserr = integrate.quad(
                _phase_error_density, math.pi / m, math.pi, args=(float(r),),
                epsabs=5e-8, limit=200,
            )
        except integrate.IntegrationWarning as exc:
            raise QuadratureError(f"phase-density quadrature did not converge for r={r}, m={m}: {exc}") from exc
    if 2.0 * abserr > 1e-6:
        raise QuadratureError(
            f"phase-density quadrature error {2.0 * abserr:.3g} exceeds 1e-6 for r={r}, m={m}"
        )
    return min(max(2.0 * half, 0.0), 1.0)


def bit_error_rate(r, link: LinkBudget):
    """Per-bit error probability under the link's configured mode."""
    if link.ber_mode == "exact_eq4":
        pe = np.reshape([ber_mpsk_exact(x, PSK_ORDER) for x in np.ravel(r).tolist()], np.shape(r))
        return float(pe) if pe.ndim == 0 else pe
    # the per_bit mode length-scales the closed-form bit error rate
    return ber_mpsk_approx(r, PSK_ORDER)


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
    s = received_power_dbm(np.asarray(power_dbm, dtype=float), path_loss_db(distance_km, link.freq_mhz))
    r = snr_linear(s, link.noise_floor_dbm)
    return LinkState(
        rx_power_dbm=s,
        below_sensitivity=~passes_sensitivity(s, link.sensitivity_dbm),
        pe_bit=bit_error_rate(r, link),
    )
