"""Command-line front end tests, run in-process through main()."""

import hashlib
import json

import pytest

from sim1090.cli import OUTPUT_DIR_ENV, main
from sim1090.engine import run
from sim1090.scenario import loads_scenario
from sim1090.seeding import stable_seed

TINY = "n_planes = 4\nn_uavs = 2\nduration_s = 30\nseed = 3\n"
TINY_NO_ERRORS = "n_planes = 4\nduration_s = 30\nchannel_errors_enabled = false\nseed = 3\n"
# valid, but the horizon ends before the first ID squitter: zero packets
NO_PACKETS = "n_planes = 4\nduration_s = 0.1\nenabled_kinds = ID\nseed = 3\n"
# valid; some replications draw one ID squitter before the horizon, some none
SOME_PACKETS = "n_planes = 1\nenabled_kinds = ID\nduration_s = 5\nseed = 3\n"
# too few POS packets for a 3 s window: no update probability
SHORT = "n_planes = 3\nduration_s = 2\nseed = 3\n"


@pytest.fixture
def tiny_scn(tmp_path):
    path = tmp_path / "tiny.scn"
    path.write_text(TINY)
    return path


class TestRun:
    def test_json_smoke(self, tiny_scn, capsys):
        assert main(["run", "--scenario", str(tiny_scn), "--seed", "7", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "sim1090/run-report/v2"
        assert doc["seed"] == 7
        assert 0.0 <= doc["received_ratio"] <= 1.0

    def test_csv_has_both_class_bins(self, tiny_scn, capsys):
        assert main(["run", "--scenario", str(tiny_scn), "--format", "csv"]) == 0
        out = capsys.readouterr().out
        bins = out.split("# sim1090 distance-bins v1")[1]
        assert "plane," in bins
        assert "uav," in bins

    def test_missing_scenario(self, capsys):
        assert main(["run", "--scenario", "no_such_file.scn"]) != 0
        assert "scenario not found" in capsys.readouterr().err

    def test_invalid_scenario_reports_key(self, tmp_path, capsys):
        path = tmp_path / "bad.scn"
        path.write_text("n_planes = 2\nduration_s = -1\n")
        assert main(["run", "--scenario", str(path)]) != 0
        assert "duration_s" in capsys.readouterr().err

    def test_byte_identical_outputs(self, tiny_scn, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", "--scenario", str(tiny_scn), "--out", str(out1)]) == 0
        assert main(["run", "--scenario", str(tiny_scn), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_preset_by_name(self, capsys):
        assert main(["run", "--scenario", "fig3_50", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["n_planes"] == 50
        assert doc["config"]["enabled_kinds"] == ["POS", "ID"]

    def test_replicated_run(self, tiny_scn, capsys):
        assert main(["run", "--scenario", str(tiny_scn), "--reps", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "sim1090/replicated-report/v1"
        assert doc["n_reps"] == 3
        assert len(doc["replications"]) == 3

    def test_zero_packet_replicated_run_writes_null_and_empty_fields(self, tmp_path, capsys):
        path = tmp_path / "empty.scn"
        path.write_text(NO_PACKETS)
        assert main(["run", "--scenario", str(path), "--reps", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"] == {}
        assert [row["received_ratio"] for row in doc["replications"]] == [None, None]
        assert main(["run", "--scenario", str(path), "--reps", "2", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[:3] == ["# sim1090 replicated-summary v1", "metric,mean,std", "# sim1090 replications v1"]
        assert all(row.endswith(",,") for row in lines[4:]) and len(lines) == 6

    def test_zero_reps_is_an_error_line(self, capsys):
        assert main(["run", "--scenario", "fig3_50", "--reps", "0"]) == 1
        assert capsys.readouterr().err == "error: n_reps must be >= 1, got 0\n"

    @pytest.mark.parametrize("out", ["directory", "under_a_file"])
    def test_unwritable_out_is_an_error_line(self, tiny_scn, tmp_path, capsys, out):
        # a directory raises IsADirectoryError, a path under a regular file
        # FileExistsError or NotADirectoryError: all OSErrors
        path = tmp_path
        if out == "under_a_file":
            (tmp_path / "plain").write_text("")
            path = tmp_path / "plain" / "report.json"
        assert main(["run", "--scenario", str(tiny_scn), "--out", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_deadline_past_float_range_gives_null_update(self, tmp_path, capsys):
        # a valid deadline that no run has POS packets enough to cover
        path = tmp_path / "long_deadline.scn"
        path.write_text("n_planes = 2\nduration_s = 10\ndeadline_s = 1e308\n")
        assert main(["run", "--scenario", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["update_probability"] is None

    def test_output_dir_env(self, tiny_scn, tmp_path, monkeypatch):
        monkeypatch.setenv("SIM1090_OUTPUT_DIR", str(tmp_path / "outputs"))
        assert main(["run", "--scenario", str(tiny_scn), "--out", "report.json"]) == 0
        assert (tmp_path / "outputs" / "report.json").exists()


class TestSweep:
    def test_density_sweep_decreasing(self, tmp_path, capsys):
        path = tmp_path / "base.scn"
        path.write_text(TINY_NO_ERRORS.replace("n_planes = 4", "n_planes = 10"))
        code = main([
            "sweep", "--scenario", str(path), "--param", "n_planes",
            "--values", "20,120", "--reps", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        summary = out.split("# sim1090 sweep-summary v1")[1].strip().splitlines()[1:]
        means = [float(line.split(",")[3]) for line in summary]
        assert means[0] > means[1]

    def test_point_matches_api_run_at_derived_seed(self, tmp_path, capsys):
        path = tmp_path / "base.scn"
        path.write_text(TINY_NO_ERRORS)
        assert main([
            "sweep", "--scenario", str(path), "--param", "n_planes",
            "--values", "6", "--reps", "1",
        ]) == 0
        out = capsys.readouterr().out
        row = out.split("# sim1090 sweep-summary")[0].strip().splitlines()[-1]
        _, value, _, seed, ratio, _ = row.split(",")
        cfg = loads_scenario(TINY_NO_ERRORS).with_overrides(
            n_planes=int(value), seed=stable_seed(3, 6, 0)
        )
        assert int(seed) == stable_seed(3, 6, 0)
        assert float(ratio) == pytest.approx(run(cfg).received_ratio, abs=5e-7)

    def test_zero_packet_points_write_empty_fields(self, tmp_path, capsys):
        path = tmp_path / "empty.scn"
        path.write_text(NO_PACKETS)
        assert main([
            "sweep", "--scenario", str(path), "--param", "n_planes", "--values", "2,3", "--reps", "2",
        ]) == 0
        points, summary = capsys.readouterr().out.split("# sim1090 sweep-summary v1")
        assert all(row.endswith(",,") for row in points.strip().splitlines()[2:])
        assert summary.strip().splitlines()[1:] == ["n_planes,2,2,,", "n_planes,3,2,,"]

    def test_partly_empty_value_has_empty_summary_cells(self, tmp_path, capsys):
        # a value whose replications are only partly empty has an undefined
        # mean, as in the summary of run --reps on the same scenario
        path = tmp_path / "some.scn"
        path.write_text(SOME_PACKETS)
        assert main([
            "sweep", "--scenario", str(path), "--param", "n_planes", "--values", "1,2", "--reps", "4",
        ]) == 0
        points, summary = capsys.readouterr().out.split("# sim1090 sweep-summary v1")
        ratios = [row.split(",")[4] for row in points.strip().splitlines()[2:]]
        assert ratios == ["", "", "1", "", "", "0.5", "1", ""]
        assert summary.strip().splitlines()[1:] == ["n_planes,1,4,,", "n_planes,2,4,,"]
        assert main(["run", "--scenario", str(path), "--reps", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "received_ratio" not in doc["summary"]
        assert {row["received_ratio"] for row in doc["replications"]} == {None, 1}

    def test_deadline_past_float_range_leaves_update_empty(self, tmp_path, capsys):
        path = tmp_path / "base.scn"
        path.write_text("n_planes = 2\nduration_s = 10\n")
        assert main([
            "sweep", "--scenario", str(path), "--param", "deadline_s", "--values", "3,1e308",
        ]) == 0
        points = capsys.readouterr().out.split("# sim1090 sweep-summary v1")[0].strip().splitlines()[2:]
        assert [row.split(",")[5] == "" for row in points] == [False, True]

    def test_unknown_parameter_lists_valid_keys(self, tiny_scn, capsys):
        assert main([
            "sweep", "--scenario", str(tiny_scn), "--param", "warp_factor", "--values", "1",
        ]) != 0
        err = capsys.readouterr().err
        assert "n_planes" in err and "noise_floor_dbm" in err

    def test_unparsable_value_names_the_parameter(self, tiny_scn, capsys):
        assert main([
            "sweep", "--scenario", str(tiny_scn), "--param", "n_uavs", "--values", "1.5",
        ]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "n_uavs" in err and err.count("\n") == 1

    def test_deterministic_output(self, tiny_scn, tmp_path):
        args = [
            "sweep", "--scenario", str(tiny_scn), "--param", "n_uavs",
            "--values", "0,2", "--reps", "2",
        ]
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestCalibrate:
    def test_infeasible_target(self, tiny_scn, capsys):
        assert main([
            "calibrate", "--scenario", str(tiny_scn), "--target", "0.999", "--reps", "2",
        ]) != 0
        assert "calibration failed" in capsys.readouterr().err

    def test_zero_packet_scenario_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "empty.scn"
        path.write_text(NO_PACKETS)
        assert main(["calibrate", "--scenario", str(path), "--target", "0.5", "--reps", "1"]) != 0
        assert "generates no packets" in capsys.readouterr().err

    def test_target_outside_unit_interval_is_an_error_line(self, capsys):
        assert main(["calibrate", "--scenario", "fig3_50", "--target", "1.5"]) == 1
        assert capsys.readouterr().err == "error: target_ratio must be in (0, 1), got 1.5\n"

    def test_feasible_target_converges(self, tmp_path, capsys):
        path = tmp_path / "cal.scn"
        path.write_text("n_planes = 20\nduration_s = 60\nseed = 9\n")
        # midpoint of the bracket-endpoint ratios is always reachable
        from sim1090.engine import run_replicated
        from sim1090.scenario import load_scenario

        base = load_scenario(path)
        quiet = run_replicated(base.with_overrides(noise_floor_dbm=-120.0), 2)
        loud = run_replicated(base.with_overrides(noise_floor_dbm=-75.0), 2)
        target = 0.5 * (
            quiet.summary["received_ratio"]["mean"] + loud.summary["received_ratio"]["mean"]
        )
        assert main([
            "calibrate", "--scenario", str(path), "--target", f"{target:.6f}", "--reps", "2",
        ]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert -120.0 <= doc["noise_floor_dbm"] <= -75.0
        assert abs(doc["achieved_ratio"] - target) <= 0.005 + 1e-6


@pytest.mark.parametrize(
    "argv",
    [
        "run --format csv",
        "sweep --param n_planes --values 2,5 --reps 2",
        "calibrate --target 0.7 --reps 1",
    ],
)
def test_seed_flag_equals_seed_in_file(argv, tmp_path, capsys):
    """--seed S and a scenario file that sets seed = S give the same bytes."""
    command, *args = argv.split()
    flagged, seeded = tmp_path / "flagged.scn", tmp_path / "seeded.scn"
    flagged.write_text(TINY)
    seeded.write_text(TINY.replace("seed = 3", "seed = 11"))
    assert main([command, "--scenario", str(flagged), "--seed", "11", *args]) == 0
    with_flag = capsys.readouterr().out
    assert main([command, "--scenario", str(seeded), *args]) == 0
    assert capsys.readouterr().out == with_flag
    assert main([command, "--scenario", str(flagged), *args]) == 0
    assert capsys.readouterr().out != with_flag


class TestOutputBytesPinned:
    """SHA-256 of whole CLI outputs: every JSON and CSV shape the CLI writes.

    The hashes were taken before report formatting was gathered into
    sim1090.report; the three run-JSON hashes were re-taken for run-report
    v2 (see TestPinnedReports). A change that moves one must say which
    bytes moved and why.
    """

    CASES = {
        "run-json": (TINY, "run"),
        "run-csv": (TINY, "run --format csv"),
        "run-short-json": (SHORT, "run"),
        "run-short-csv": (SHORT, "run --format csv"),
        "run-reps-json": (TINY, "run --reps 3"),
        "run-reps-csv": (TINY, "run --reps 3 --format csv"),
        "sweep-int": (TINY, "sweep --param n_planes --values 2,5 --reps 2"),
        "sweep-float": (TINY, "sweep --param noise_floor_dbm --values=-95,-85 --reps 2"),
        "calibrate-json": (TINY, "calibrate --target 0.7 --reps 1"),
        "calibrate-out": (TINY, "calibrate --target 0.7 --reps 1 --out cal.json"),
        "zero-run-json": (NO_PACKETS, "run"),
        "zero-run-csv": (NO_PACKETS, "run --format csv"),
        "zero-run-reps-csv": (NO_PACKETS, "run --reps 2 --format csv"),
        "zero-sweep": (NO_PACKETS, "sweep --param n_planes --values 2,3"),
    }

    PINNED = {
        "run-json": "85f5b94839d08f75fd772edfaba498f6c231cdcab8201345cfca69e7f7982e35",
        "run-csv": "b965d37cbd212881fa7541b87193556717dfb8359c0e8d250f4bac99db62071f",
        "run-short-json": "f7d8ac08ede33df72e84443a0c5cda8aa75199262a31d88871c12c7a3f21003a",
        "run-short-csv": "1f6f979edd5549b4b3ee990852164f1484f5b69cfe0ade20815c2de0cd53c4ba",
        "run-reps-json": "a226c1775774e32712ff9f3e4b3d26ea137ad04a03a660f9bb3b6083b0e8f3e9",
        "run-reps-csv": "aa19ab63a4cbd51b5d5d6dca5e61684a1a581aa45aca71ffda4f79a522f8cc77",
        "sweep-int": "07a45b18aeec049440a8648a74578ceca805f567b1ddd464d513aeb216e4c0c6",
        "sweep-float": "a0456760903031144e2b8c5e835d8f7186fc378ac16292819333fc43ee8cefe8",
        "calibrate-json": "54a11eb24ff725f376a21f41dd9f61f0727070762d1a5583279c707ba1e1e8e3",
        "calibrate-out": "025ab35e1ac830fed0f82ea6e3b9c4c5bffeecca6f93d553b894dc9d5d0fe54c",
        "zero-run-json": "fc5b324f27cbea073b5e2b7eab6f9e99a8446aa0d43d6dad6c06bb048bd74e3b",
        "zero-run-csv": "d03c335387822cf4f6fcf2aeabaa31aae1d5fd5b5a3572e08a66cc7c61c9bb60",
        "zero-run-reps-csv": "7d26c87ddbeb7606a31ca10522cd70763211ae65d4422f3226fbada2c355041f",
        "zero-sweep": "cfa89c898e915cadbcb6fb41b280bf17d08fb6bf2f20cc3fceaba7696e2c96e7",
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_output_bytes_pinned(self, case, tmp_path, capsys, monkeypatch):
        text, argv = self.CASES[case]
        command, *args = argv.split()
        path = tmp_path / "s.scn"
        path.write_text(text)
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
        assert main([command, "--scenario", str(path), *args]) == 0
        data = capsys.readouterr().out.encode()
        if "--out" in args:
            data += b"\0" + (tmp_path / args[args.index("--out") + 1]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.PINNED[case]


class TestPresets:
    def test_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("fig3_50.scn", "fig3_100.scn", "fig3_150.scn", "fig3_200.scn",
                     "fig4.scn", "fig5.scn", "fig6.scn", "fig7.scn"):
            assert name in out
