"""Reception statistics: consecutive-loss histogram, position-update
probability, distance-binned ratios, the analytic ALOHA throughput
prediction, and the noise-floor calibration search.

Per-packet outcomes are boolean received flags (True = received).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import AirframeKind
from .packets import SCHEDULES, PacketKind, packet_duration_s
from .scenario import CLASSES, ScenarioConfig


class CalibrationError(RuntimeError):
    """Raised when the noise-floor search cannot reach its target."""


def loss_run_histogram(outcomes) -> dict[int, int]:
    """Histogram of maximal runs of consecutive losses, by run length.

    Input must be the time-ordered received flags of one aircraft's position
    packets; leading and trailing runs count.
    """
    lost = ~np.asarray(outcomes, dtype=bool)
    hist: dict[int, int] = {}
    run = 0
    for flag in lost:
        if flag:
            run += 1
        elif run:
            hist[run] = hist.get(run, 0) + 1
            run = 0
    if run:
        hist[run] = hist.get(run, 0) + 1
    return hist


@dataclass(frozen=True)
class UpdateProbabilityResult:
    """Sliding-window position-update probability against a deadline."""

    deadline_s: float
    window_k: int
    probability: float
    failed_windows: int
    total_windows: int


def update_probability(outcomes, deadline_s: float) -> UpdateProbabilityResult | None:
    """Probability that a deadline-sized window contains a received packet.

    The deadline maps to K = ceil(deadline / mean POS interval) consecutive
    generation slots; a window fails iff all K packets in it were lost, and
    the probability is 1 - failed/total over all N-K+1 sliding windows.
    None when there are fewer than K packets, so no window exists.
    """
    if not 0 < deadline_s < math.inf:
        raise ValueError(f"deadline_s must be finite and > 0, got {deadline_s}")
    lost = ~np.asarray(outcomes, dtype=bool)
    slots = deadline_s / SCHEDULES[PacketKind.POS].mean_interval_s  # inf past the float range
    n = lost.size
    if n < slots:  # n < ceil(slots) for a whole n, and ceil(inf) would overflow
        return None
    k = math.ceil(slots)
    window_losses = np.convolve(lost.astype(np.int64), np.ones(k, dtype=np.int64), mode="valid")
    failed = int((window_losses == k).sum())
    total = n - k + 1
    return UpdateProbabilityResult(
        deadline_s=deadline_s,
        window_k=k,
        probability=1.0 - failed / total,
        failed_windows=failed,
        total_windows=total,
    )


#: width of the distance bins of the distance profile
DISTANCE_BIN_KM = 2.5


@dataclass(frozen=True)
class DistanceBin:
    """Received ratio of one aircraft class within one distance bin."""

    aircraft_class: AirframeKind
    lo_km: float
    hi_km: float
    center_km: float
    n_aircraft: int
    generated: int
    received: int

    @property
    def ratio(self) -> float:
        return self.received / self.generated


def distance_binned_ratio(
    fleet: np.recarray,
    generated_by_aircraft: np.ndarray,
    received_by_aircraft: np.ndarray,
) -> list[DistanceBin]:
    """Per-class received ratio by DISTANCE_BIN_KM distance bin, in class
    then bin order; bins that generated nothing are omitted."""
    d = fleet.distance_km
    if not np.all((d > 0) & (d < math.inf)):  # a NaN is neither
        raise ValueError(f"distances must be finite and > 0, got d={d}")
    # bins are half-open (lo, hi], matching the (0, radius] distance range
    idx = np.ceil(d / DISTANCE_BIN_KM) - 1.0
    keys, row = np.unique(np.stack([fleet.kind, idx], axis=1), axis=0, return_inverse=True)
    tallies = [  # aircraft, generated and received per (class, bin) key
        np.bincount(row.ravel(), weights=weights, minlength=len(keys)).astype(np.int64).tolist()
        for weights in (None, generated_by_aircraft, received_by_aircraft)
    ]
    w = DISTANCE_BIN_KM
    return [
        DistanceBin(CLASSES[int(cls)], i * w, (i + 1) * w, (i + 0.5) * w, n, gen, rec)
        for (cls, i), n, gen, rec in zip(keys.tolist(), *tallies)
        if gen
    ]


def aloha_expected_ratio(config: ScenarioConfig, kind: PacketKind | None = None) -> float:
    """Analytic unslotted-ALOHA received ratio under a Poisson load model.

    A packet of duration Ti survives collisions with probability
    exp(-sum_j lambda_j (Ti + Tj)), where lambda_j is the fleet emission
    rate of kind j excluding the packet's own emitter. Channel errors are
    not modelled, so this predicts collision-only scenarios.
    """
    config.validate()
    n = config.n_planes + config.n_uavs
    kinds = [k for k in PacketKind if k in config.enabled_kinds]
    rates = {k: SCHEDULES[k].rate_hz for k in kinds}
    exposure = {
        i: sum((n - 1) * rates[j] * (packet_duration_s(i) + packet_duration_s(j)) for j in kinds)
        for i in kinds
    }
    survival = {i: math.exp(-exposure[i]) for i in kinds}
    if kind is not None:
        if kind not in survival:
            raise ValueError(f"kind {kind} is not enabled in this config")
        return survival[kind]
    total_rate = sum(rates.values())
    return sum(rates[i] * survival[i] for i in kinds) / total_rate


CALIBRATION_TOL_POINTS = 0.5
CALIBRATION_MAX_EVALS = 60


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of the noise-floor bisection search."""

    noise_floor_dbm: float
    achieved_ratio: float
    target_ratio: float
    n_reps: int
    evaluations: tuple[tuple[float, float], ...]

    @property
    def iterations(self) -> int:
        return len(self.evaluations)


def calibrate_noise_floor(
    target_ratio: float,
    base_config: ScenarioConfig,
    n_reps: int = 10,
    bracket: tuple[float, float] = (-120.0, -75.0),
) -> CalibrationResult:
    """Bisect the noise floor until the replicated mean received ratio
    matches the target within CALIBRATION_TOL_POINTS percentage points, in
    at most CALIBRATION_MAX_EVALS evaluations: the quiet end, the loud end,
    then midpoints, until a midpoint repeats an end.

    Every evaluation reuses the same replication seeds, which makes the
    measured ratio exactly non-increasing in the floor; monotonicity is
    asserted across all evaluations. Raises CalibrationError when the
    target lies outside what the bracket can reach.
    """
    from .engine import run_replicated

    if not 0.0 < target_ratio < 1.0:
        raise ValueError(f"target_ratio must be in (0, 1), got {target_ratio}")
    quiet, loud = bracket
    if quiet >= loud:
        raise ValueError(f"bracket must be (quiet, loud) with quiet < loud, got {bracket}")
    tol = CALIBRATION_TOL_POINTS / 100.0
    evaluations: dict[float, float] = {}  # floor -> ratio, in evaluation order
    floor = quiet
    # a midpoint equal to an end means the ends are adjacent doubles
    while len(evaluations) < CALIBRATION_MAX_EVALS and floor not in evaluations:
        cfg = base_config.with_overrides(noise_floor_dbm=floor, channel_errors_enabled=True)
        summary = run_replicated(cfg, n_reps).summary
        if "received_ratio" not in summary:
            raise CalibrationError("the scenario generates no packets, so it has no received ratio")
        ratio = summary["received_ratio"]["mean"]
        # earlier evaluations are pairwise monotone: a violation involves this one
        for earlier in evaluations.items():
            (f_a, r_a), (f_b, r_b) = sorted([earlier, (floor, ratio)])
            if f_a < f_b and r_a < r_b:
                raise CalibrationError(
                    f"received ratio is not monotone in the noise floor: "
                    f"ratio({f_a})={r_a:.6f} < ratio({f_b})={r_b:.6f}"
                )
        evaluations[floor] = ratio
        if abs(ratio - target_ratio) <= tol:
            return CalibrationResult(floor, ratio, target_ratio, n_reps, tuple(evaluations.items()))
        if len(evaluations) == 2 and not ratio < target_ratio < evaluations[quiet]:
            (f_q, r_q), (f_l, r_l) = evaluations.items()
            raise CalibrationError(
                f"target ratio {target_ratio:.4f} unreachable in bracket "
                f"[{f_q}, {f_l}] dBm: ratio({f_q})={r_q:.4f}, ratio({f_l})={r_l:.4f}"
            )
        if ratio > target_ratio:
            quiet = floor  # still too quiet: move toward the loud end
        else:
            loud = floor
        floor = bracket[1] if len(evaluations) == 1 else 0.5 * (quiet + loud)
    raise CalibrationError(
        f"no floor within {CALIBRATION_TOL_POINTS} points of {target_ratio:.4f} after {len(evaluations)} "
        f"evaluations: ratio({quiet})={evaluations[quiet]:.4f}, ratio({loud})={evaluations[loud]:.4f}"
    )
