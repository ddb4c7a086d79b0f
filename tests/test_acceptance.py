"""Acceptance suite.

Each test checks one exit criterion at its stated tolerance and prints one
pass/fail line (visible with `pytest -s`, or in the captured output of a
failing test). The expensive replicated runs and the noise-floor
calibration are shared through module-scoped fixtures.

The class check on fig6/fig7 asserts what the documented link budget
gives: the UAV class holds a 6 dB link margin over the plane class and the
channel is class-blind, so each class's received ratio follows from its
own link state and the UAV class sits above the plane class.
"""

import itertools
import json
import math
import statistics
import time

import numpy as np
import pytest
from scipy.stats import spearmanr

from sim1090.aloha import Verdict, collision_mask
from sim1090.channel import (
    LinkBudget,
    aircraft_link_state,
    ber_mpsk_approx,
    ber_mpsk_exact,
    corruption_probability,
)
from sim1090.cli import load_preset, main
from sim1090.engine import run, run_replicated
from sim1090.frames import AirframeKind, SquitterFrame, pack, unpack
from sim1090.metrics import aloha_expected_ratio
from sim1090.packets import KIND_INDEX, PacketKind
from sim1090.scenario import CLASSES
from test_aloha import brute_force_collisions
from test_metrics import failed_windows_from_runs

TARGET_FIG5 = 0.4866
N_REPS = 10
#: the abstract's position-update probabilities within 3 s
PAPER_UPDATE = {"fig6": 0.923, "fig7": 0.869}


def report_line(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


@pytest.fixture(scope="module")
def fig4_result():
    return run_replicated(load_preset("fig4.scn"), N_REPS)


@pytest.fixture(scope="module")
def calibration(tmp_path_factory):
    # drive the calibration through the CLI surface it ships behind
    out = tmp_path_factory.mktemp("cal") / "calibration.json"
    code = main([
        "calibrate", "--scenario", "fig5", "--target", str(TARGET_FIG5),
        "--reps", str(N_REPS), "--out", str(out),
    ])
    assert code == 0, "cmd_calibrate failed to converge on fig5.scn"
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def fig5_result(calibration):
    cfg = load_preset("fig5.scn").with_overrides(noise_floor_dbm=calibration["noise_floor_dbm"])
    return run_replicated(cfg, N_REPS)


@pytest.fixture(scope="module")
def fig6_result(calibration):
    cfg = load_preset("fig6.scn").with_overrides(noise_floor_dbm=calibration["noise_floor_dbm"])
    return run_replicated(cfg, N_REPS)


@pytest.fixture(scope="module")
def fig7_result(calibration):
    cfg = load_preset("fig7.scn").with_overrides(noise_floor_dbm=calibration["noise_floor_dbm"])
    return run_replicated(cfg, N_REPS)


def test_criterion_1_density_sweep_monotonic_and_analytic():
    means, oracles = [], []
    for n in (50, 100, 150, 200):
        cfg = load_preset(f"fig3_{n}.scn")
        means.append(run_replicated(cfg, N_REPS).summary["received_ratio"]["mean"])
        oracles.append(aloha_expected_ratio(cfg))
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    gaps = [abs(m - o) for m, o in zip(means, oracles)]
    ok = decreasing and max(gaps) <= 0.03
    report_line(
        "criterion 1",
        ok,
        f"means={[f'{m:.4f}' for m in means]} max|sim-oracle|={max(gaps) * 100:.2f} pts",
    )
    assert decreasing, f"received ratio not strictly decreasing: {means}"
    assert max(gaps) <= 0.03, f"analytic oracle mismatch: {gaps}"


def test_criterion_2_six_kind_collision_ratio(fig4_result):
    mean = fig4_result.summary["received_ratio"]["mean"]
    ok = abs(mean - 0.6815) <= 0.03
    report_line("criterion 2", ok, f"fig4 mean={mean:.4f} target=0.6815 +/- 0.03")
    assert ok, f"fig4 mean {mean:.4f} outside 0.6815 +/- 0.03"


def test_criterion_3_calibrated_channel_profile(calibration, fig5_result):
    floor = calibration["noise_floor_dbm"]
    achieved = calibration["achieved_ratio"]
    converged = abs(achieved - TARGET_FIG5) <= 0.005 and -120.0 <= floor <= -75.0

    # pool distance bins over the replications
    pooled: dict[float, list[int]] = {}
    for rep in fig5_result.reports:
        for b in rep.distance_bins():
            gen_rec = pooled.setdefault(b.lo_km, [0, 0])
            gen_rec[0] += b.generated
            gen_rec[1] += b.received
    lows = sorted(pooled)
    ratios = [pooled[lo][1] / pooled[lo][0] for lo in lows]
    rho = spearmanr(lows, ratios).statistic
    far_loss = 1.0 - pooled[47.5][1] / pooled[47.5][0]

    ok = converged and rho < -0.8 and far_loss >= 0.55
    report_line(
        "criterion 3",
        ok,
        f"floor={floor:.2f} dBm achieved={achieved:.4f} spearman={rho:.3f} far-bin loss={far_loss:.3f}",
    )
    assert converged, f"calibration off target: floor={floor}, achieved={achieved}"
    assert rho < -0.8, f"binned ratio not decreasing with distance: rho={rho}"
    assert far_loss >= 0.55, f"far-bin loss {far_loss:.3f} below 55%"


def test_criterion_4_uav_impact_ratios_and_ordering(fig4_result, fig5_result, fig6_result, fig7_result):
    m4 = fig4_result.summary["received_ratio"]["mean"]
    m5 = fig5_result.summary["received_ratio"]["mean"]
    m6 = fig6_result.summary["received_ratio"]["mean"]
    m7 = fig7_result.summary["received_ratio"]["mean"]
    anchored = abs(m6 - 0.4655) <= 0.03 and abs(m7 - 0.4525) <= 0.03
    ordered = m4 > m5 > m6 > m7
    ok = anchored and ordered
    report_line(
        "criterion 4 (ratios/ordering)",
        ok,
        f"fig4={m4:.4f} fig5={m5:.4f} fig6={m6:.4f} fig7={m7:.4f}",
    )
    assert anchored, f"fig6={m6:.4f} (0.4655 +/- 0.03), fig7={m7:.4f} (0.4525 +/- 0.03)"
    assert ordered, f"ordering violated: {m4:.4f} > {m5:.4f} > {m6:.4f} > {m7:.4f}"


def _class_blind_prediction(report, cls):
    # collision survival times the class's generated-weighted good fraction;
    # each aircraft is given its class's configured power, so a fleet that
    # swaps the class powers misses the prediction
    cfg = report.config
    link = LinkBudget.from_config(cfg)
    power = cfg.plane_power_dbm if cls is AirframeKind.PLANE else cfg.uav_power_dbm
    fleet = report.fleet[report.fleet.kind == CLASSES.index(cls)]
    state = aircraft_link_state(fleet.distance_km, np.full(len(fleet), power), link)
    generated, good = 0, 0.0
    for a, gated, pe in zip(fleet, state.below_sensitivity.tolist(), state.pe_bit.tolist()):
        for k, i in KIND_INDEX.items():
            gen = int(report.counts[a.id, i].sum())
            p_bad = 1.0 if gated else corruption_probability(pe, k, cfg.ber_mode)
            generated += gen
            good += gen * (1.0 - p_bad)
    return aloha_expected_ratio(cfg) * good / generated


def test_criterion_4_class_ratios_at_class_blind_prediction_uav_above_plane(
    fig5_result, fig6_result, fig7_result
):
    # The class relation the documented model determines. A UAV at the same
    # radius quantile as a plane receives (30 - 44) + 20 lg(50 / 5) = +6 dB
    # (14 dB less power, 20 dB less path loss), the error rate falls as SNR
    # rises, and unslotted ALOHA without capture ignores class. So each class's
    # ratio is the class-blind survival times its own good fraction, and the
    # UAV class sits above the plane class at every noise floor. The former
    # direction (UAVs below planes) cannot come out of this model and no
    # documented parameter supports it. What the abstract does claim is that
    # UAVs hurt civil planes: the plane class falls as each cohort is added.
    lines = []
    worst_gap = 0.0
    above = True
    for name, result in (("fig6", fig6_result), ("fig7", fig7_result)):
        cfg = result.reports[0].config
        margin = (cfg.uav_power_dbm - cfg.plane_power_dbm) + 20.0 * math.log10(
            cfg.plane_radius_km / cfg.uav_radius_km
        )
        assert margin == pytest.approx(6.0), f"{name}: UAV link margin {margin:.2f} dB, documented 6 dB"
        for rep in result.reports:
            for cls in (AirframeKind.PLANE, AirframeKind.UAV):
                gap = abs(rep.class_ratio(cls) - _class_blind_prediction(rep, cls))
                worst_gap = max(worst_gap, gap)
        uav = result.summary["uav_received_ratio"]["mean"]
        plane = result.summary["plane_received_ratio"]["mean"]
        above = above and uav > plane
        lines.append(f"{name}: uav={uav:.4f} plane={plane:.4f}")
    planes = [r.summary["plane_received_ratio"]["mean"] for r in (fig5_result, fig6_result, fig7_result)]
    falling = planes[0] > planes[1] > planes[2]
    ok = worst_gap <= 0.01 and above and falling
    report_line(
        "criterion 4 (class ratios follow the link budget)", ok,
        "; ".join(lines) + f"; max|class-prediction|={worst_gap:.4f}"
        + f"; plane fig5/6/7={[f'{m:.4f}' for m in planes]}",
    )
    assert worst_gap <= 0.01, f"a class ratio is {worst_gap:.4f} from its class-blind prediction"
    assert above, "UAV class not above the plane class despite its 6 dB link margin: " + "; ".join(lines)
    assert falling, f"plane class does not fall as UAVs are added: {planes}"


def test_criterion_5_update_probability_trend(fig4_result, fig5_result, fig6_result, fig7_result):
    means = [
        r.summary["update_probability"]["mean"]
        for r in (fig4_result, fig5_result, fig6_result, fig7_result)
    ]
    decreasing = all(a > b for a, b in zip(means, means[1:]))

    # window-count identity on every replication of every scenario
    identity = True
    for result in (fig4_result, fig5_result, fig6_result, fig7_result):
        for rep in result.reports:
            derived = failed_windows_from_runs(rep.pos_loss_runs, rep.update.window_k)
            identity = identity and derived == rep.update.failed_windows

    ok = decreasing and identity
    report_line(
        "criterion 5", ok,
        f"update means={[f'{m:.4f}' for m in means]} window-identity={'ok' if identity else 'broken'}",
    )
    assert decreasing, f"update probability not strictly decreasing: {means}"
    assert identity, "histogram-derived failure count disagrees with the direct window scan"


def _update_probability_oracle(report):
    # POS losses taken as independent: a tracked POS packet survives
    # collisions with the unslotted-ALOHA probability (Abramson 1970) and is
    # intact with the aircraft's good fraction, so a window of K consecutive
    # POS packets fails with probability (1 - p)^K
    cfg = report.config
    p_bad = 0.0
    if cfg.channel_errors_enabled:
        tracked = report.fleet[cfg.tracked_aircraft : cfg.tracked_aircraft + 1]
        state = aircraft_link_state(tracked.distance_km, tracked.power_dbm, LinkBudget.from_config(cfg))
        p_bad = 1.0 if state.below_sensitivity[0] else corruption_probability(
            float(state.pe_bit[0]), PacketKind.POS, cfg.ber_mode
        )
    p = aloha_expected_ratio(cfg, PacketKind.POS) * (1.0 - p_bad)
    return 1.0 - (1.0 - p) ** report.update.window_k


def test_criterion_5_update_probability_matches_oracle(fig4_result, fig5_result, fig6_result, fig7_result):
    # The per-replication gap follows one tracked aircraft at a random
    # distance, so it is wide; its mean over the replications must lie within
    # 3 standard errors of zero. The paper's values are printed, not asserted.
    results = {"fig4": fig4_result, "fig5": fig5_result, "fig6": fig6_result, "fig7": fig7_result}
    lines, off = [], []
    for name, result in results.items():
        gaps = [rep.update.probability - _update_probability_oracle(rep) for rep in result.reports]
        mean = math.fsum(gaps) / len(gaps)
        se = statistics.stdev(gaps) / math.sqrt(len(gaps))
        lines.append(f"{name}: gap={mean:+.4f} se={se:.4f}")
        if abs(mean) > 3.0 * se:
            off.append(name)
    for name, paper in PAPER_UPDATE.items():
        mean = results[name].summary["update_probability"]["mean"]
        lines.append(f"{name} mean={mean:.4f} paper={paper:.3f} ({(mean - paper) * 100:+.1f} pts)")
    report_line("criterion 5 (update probability vs oracle)", not off, "; ".join(lines))
    assert not off, f"mean gap to the update-probability oracle beyond 3 SE: {'; '.join(lines)}"


def test_criterion_6_resolve_equals_brute_force():
    rng = np.random.default_rng(60_601)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(10, 1001))
        span = float(rng.uniform(0.002, 0.25))
        starts = np.sort(rng.uniform(0.0, span, n))
        durations = np.where(rng.random(n) < 0.5, 120e-6, 64e-6)
        emitters = rng.integers(0, 12, n)
        corrupted = rng.random(n) < 0.15
        # collision outranks corruption, as in the engine
        verdicts = np.where(
            collision_mask(starts, durations, emitters), int(Verdict.LOST_COLLISION),
            np.where(corrupted, int(Verdict.LOST_CORRUPTED), int(Verdict.RECEIVED)),
        )
        killed = brute_force_collisions(starts, starts + durations, emitters)
        expected = np.where(
            killed, int(Verdict.LOST_COLLISION),
            np.where(corrupted, int(Verdict.LOST_CORRUPTED), int(Verdict.RECEIVED)),
        )
        mismatches += int(np.count_nonzero(verdicts != expected))
    report_line("criterion 6 (collision_mask vs brute force)", mismatches == 0,
                f"200 instances, mismatches={mismatches}")
    assert mismatches == 0


def test_criterion_6_histogram_equals_independent_scan():
    rng = np.random.default_rng(60_602)
    from sim1090.metrics import loss_run_histogram

    bad = 0
    for _ in range(50):
        received = list(rng.random(1000) < rng.uniform(0.2, 0.95))
        scan: dict[int, int] = {}
        for lost, group in itertools.groupby(not r for r in received):
            if lost:
                length = len(list(group))
                scan[length] = scan.get(length, 0) + 1
        if loss_run_histogram(received) != scan:
            bad += 1
    report_line("criterion 6 (histogram vs scan)", bad == 0, f"50 instances, mismatches={bad}")
    assert bad == 0


def test_criterion_6_ber_approximation_cross_check():
    # the closed form erfc(sqrt(r) sin(pi/M)) is the high-SNR approximation
    # of the exact phase integral; on this grid the gap is 0.0028 at r=2
    # and below 1e-4 from r=6 on
    grid = np.linspace(2.0, 20.0, 10)
    gaps = [abs(ber_mpsk_exact(r, 8) - ber_mpsk_approx(r, 8)) for r in grid]
    ok = max(gaps) <= 0.01
    report_line(
        "criterion 6 (exact vs closed form within 0.01)", ok,
        f"gap range [{min(gaps):.4f}, {max(gaps):.4f}] over r in [2, 20]",
    )
    assert ok, f"max |exact - approx| = {max(gaps):.4f} exceeds 0.01"


def test_criterion_7_determinism_and_conservation():
    cfg = load_preset("fig4.scn")
    first, second = run(cfg), run(cfg)
    identical = first.to_json_bytes() == second.to_json_bytes()

    doc = first.to_dict()
    conserved = sum(doc["verdict_totals"].values()) == doc["generated"]
    for row in doc["per_aircraft"]:
        conserved = conserved and (
            row["received"] + row["lost_collision"] + row["lost_corrupted"]
            + row["lost_below_sensitivity"] == row["generated"]
        )
    ok = identical and conserved
    report_line("criterion 7", ok, f"byte-identical={identical} partition-conserved={conserved}")
    assert identical, "same config+seed produced different reports"
    assert conserved, "verdict partition does not sum to generated counts"


def test_criterion_8_codec_round_trip_and_csv_consistency():
    rng = np.random.default_rng(80_801)
    failures = 0
    for _ in range(10_000):
        frame = SquitterFrame(
            df=int(rng.integers(0, 32)),
            ca_cf=int(rng.integers(0, 8)),
            aa=int(rng.integers(0, 1 << 24)),
            me=int(rng.integers(0, 1 << 56)),
            pi=int(rng.integers(0, 1 << 24)),
        )
        if unpack(pack(frame)) != frame:
            failures += 1

    report = run(load_preset("fig4.scn"))
    text = report.to_csv()
    runs_section = text.split("# sim1090 pos-loss-runs v1")[1].split("# sim1090")[0]
    hist_sum = sum(
        int(line.split(",")[0]) * int(line.split(",")[1])
        for line in runs_section.strip().splitlines()[1:]
    )
    outcomes_section = text.split("# sim1090 aircraft-outcomes v1")[1].split("# sim1090")[0]
    tracked = report.config.tracked_aircraft
    lost_pos = None
    for line in outcomes_section.strip().splitlines()[1:]:
        cells = line.split(",")
        if int(cells[0]) == tracked and cells[3] == "POS":
            lost_pos = int(cells[6]) + int(cells[7]) + int(cells[8])
    consistent = lost_pos is not None and hist_sum == lost_pos
    ok = failures == 0 and consistent
    report_line(
        "criterion 8", ok,
        f"codec failures={failures} csv histogram mass={hist_sum} tracked lost POS={lost_pos}",
    )
    assert failures == 0
    assert consistent, f"histogram mass {hist_sum} != tracked lost POS {lost_pos}"


def test_desk_scale_runtime_budget():
    # largest preset must stay under 5 seconds per replication
    cfg = load_preset("fig7.scn")
    t0 = time.perf_counter()
    run(cfg)
    elapsed = time.perf_counter() - t0
    report_line("runtime budget", elapsed < 5.0, f"one fig7 replication in {elapsed:.2f}s")
    assert elapsed < 5.0
