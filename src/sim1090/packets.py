"""Packet taxonomy for the shared 1090 MHz channel.

Six periodic broadcast packet kinds share the channel. Five of them are
extended squitters (112-bit body plus an 8-bit control string, 120 bits on
air); the short Mode S burst (SMAG) is a 56-bit body plus control, 64 bits
on air. Each kind recurs with a jittered ("shaking") interval so that
emitters do not synchronise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class PacketKind(enum.Enum):
    """One of the six periodic broadcast packet kinds."""

    POS = "POS"    # airborne position
    VEL = "VEL"    # airborne velocity
    ID = "ID"      # identification and category
    AOS = "AOS"    # operational status
    TSS = "TSS"    # target status
    SMAG = "SMAG"  # short Mode S burst

    def __str__(self) -> str:
        return self.value


#: Fixed iteration order used everywhere a deterministic kind order matters.
KIND_ORDER: tuple[PacketKind, ...] = tuple(PacketKind)

KIND_INDEX: dict[PacketKind, int] = {k: i for i, k in enumerate(KIND_ORDER)}

EXTENDED_SQUITTER_BITS = 120
SMAG_BITS = 64

#: On-air bit rate is 1 Mb/s, i.e. one microsecond per bit.
SECONDS_PER_BIT = 1e-6


def on_air_bits(kind: PacketKind) -> int:
    """Total transmitted bits for one packet of `kind`, control string included."""
    return SMAG_BITS if kind is PacketKind.SMAG else EXTENDED_SQUITTER_BITS


def packet_duration_s(kind: PacketKind) -> float:
    """On-air time of one packet in seconds."""
    return on_air_bits(kind) * SECONDS_PER_BIT


@dataclass(frozen=True)
class EmissionSchedule:
    """Jittered emission interval of one packet kind.

    Successive packets of the kind are separated by a gap drawn uniformly
    from [jitter_lo_s, jitter_hi_s].
    """

    jitter_lo_s: float
    jitter_hi_s: float

    @property
    def mean_interval_s(self) -> float:
        return 0.5 * (self.jitter_lo_s + self.jitter_hi_s)

    @property
    def rate_hz(self) -> float:
        """Long-run emission rate, packets per second."""
        return 1.0 / self.mean_interval_s


#: Shaking intervals per kind. SMAG keeps the 5 packets/s rate with a
#: +/-25% jitter around its 0.2 s mean, mirroring the relative jitter of POS.
SCHEDULES: dict[PacketKind, EmissionSchedule] = {
    PacketKind.POS: EmissionSchedule(0.4, 0.6),
    PacketKind.VEL: EmissionSchedule(0.4, 0.6),
    PacketKind.ID: EmissionSchedule(4.8, 5.2),
    PacketKind.AOS: EmissionSchedule(2.4, 2.6),
    PacketKind.TSS: EmissionSchedule(1.2, 1.3),
    PacketKind.SMAG: EmissionSchedule(0.15, 0.25),
}
