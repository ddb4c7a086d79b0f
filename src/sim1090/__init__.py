"""sim1090: Monte Carlo simulator of the shared 1090 MHz broadcast channel.

Models a fleet of plane and UAV emitters broadcasting periodic squitter
packets over a single unslotted random-access channel, a free-space link
budget with PSK bit errors at the receiving ground station, and the
resulting surveillance quality (received ratio, consecutive-loss runs,
position-update probability).
"""

from .aloha import Verdict
from .channel import (
    LinkBudget,
    ber_mpsk_approx,
    ber_mpsk_exact,
    corruption_probability,
    path_loss_db,
    snr_linear,
)
from .engine import ReplicationResult, RunReport, run, run_replicated
from .frames import AirframeKind, SquitterFrame, from_hex, identity_frame, pack, to_hex, unpack
from .metrics import (
    CalibrationError,
    CalibrationResult,
    UpdateProbabilityResult,
    aloha_expected_ratio,
    calibrate_noise_floor,
    distance_binned_ratio,
    loss_run_histogram,
    update_probability,
)
from .packets import PacketKind, SCHEDULES, on_air_bits, packet_duration_s
from .scenario import (
    ScenarioConfig,
    ValidationError,
    build_fleet,
    load_scenario,
    loads_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AirframeKind",
    "CalibrationError",
    "CalibrationResult",
    "LinkBudget",
    "PacketKind",
    "ReplicationResult",
    "RunReport",
    "SCHEDULES",
    "ScenarioConfig",
    "SquitterFrame",
    "UpdateProbabilityResult",
    "ValidationError",
    "Verdict",
    "aloha_expected_ratio",
    "ber_mpsk_approx",
    "ber_mpsk_exact",
    "build_fleet",
    "calibrate_noise_floor",
    "corruption_probability",
    "distance_binned_ratio",
    "from_hex",
    "identity_frame",
    "load_scenario",
    "loads_scenario",
    "loss_run_histogram",
    "on_air_bits",
    "pack",
    "packet_duration_s",
    "path_loss_db",
    "run",
    "run_replicated",
    "snr_linear",
    "to_hex",
    "unpack",
    "update_probability",
]
