"""Print one ``name sha256`` line per output a refactor must keep byte for byte.

The outputs are:

- ``run`` JSON and CSV of every bundled preset at its own seed and at seeds
  1 and 130363 (``run-<preset>-s<seed>.json`` / ``.csv``);
- ``run --reps 3 --format csv`` of every bundled preset at its own seed
  (``run-<preset>-reps3.csv``);
- one float-valued sweep with replications on a preset with channel errors
  (``sweep-fig6-noise_floor_dbm``);
- the command of each benchmark workload at ``--seed 130363``, its stdout
  and its ``--out`` file joined by a NUL byte, so calibrate's stdout line
  is covered (``bench-<workload>``);
- the stdout of each demo (``demo-<name>``);
- ``run`` JSON of fig6 in the two BER modes no preset uses: ``per_bit`` at a
  -78 dBm floor, and ``exact_eq4`` at the preset floor and at a -70 dBm
  floor, where the farthest planes sit at r << 1
  (``run-fig6-<mode>.json``, ``run-fig6-exact_eq4-70dBm.json``);
- ``run`` JSON of fig6 with distances uniform over the disk area
  (``run-fig6-area-uniform.json``), the only output of that branch of
  ``build_fleet``;
- ``run`` JSON of a collision-only fleet of 150 planes that send only the
  slow kinds AOS, ID and TSS for 30 s (``run-slow-kinds.json``);
- ``run`` JSON of fig3_50 with 40 planes (``run-fig3_50-40planes.json``),
  the only run report of a fleet small enough for one-byte block indices;
- ``run`` JSON of four gated planes and two UAVs over 1,300 s
  (``run-long-horizon.json``), the only output whose aircraft packet bound
  is above the engine's key group, so each aircraft is a group alone.

The scenario files of the last five items are written to the temporary
directory.

Usage, from the root of a source checkout::

    python3 tools/output_digests.py > digests.txt

Run it at two commits and ``diff`` the two files. Output files go to a
temporary directory that is removed on exit; the whole run takes well under a
minute on a 2-core host.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from sim1090 import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: the benchmark's held-out seed, also used for the preset runs
BENCH_SEED = 130363
#: keys appended to fig6 for each variant, by output name suffix: the BER
#: modes that no preset uses, and the only fleet of the area_uniform branch
FIG6_VARIANTS = {
    "per_bit": "ber_mode = per_bit\nnoise_floor_dbm = -78\n",
    "exact_eq4": "ber_mode = exact_eq4\n",
    "exact_eq4-70dBm": "ber_mode = exact_eq4\nnoise_floor_dbm = -70\n",
    "area-uniform": "area_uniform = true\n",
}
#: no other output covers a run of these kinds alone; it is the output that
#: drawing each kind's first emission over one whole interval would move
SLOW_KINDS = """n_planes = 150
n_uavs = 0
enabled_kinds = AOS,ID,TSS
channel_errors_enabled = false
duration_s = 30
seed = 1
"""
#: fig3_50 with 40 planes: at most 42 aircraft have at most 252 (aircraft,
#: kind) blocks, which the engine indexes as uint8; every preset fleet is
#: larger
FIG3_40_PLANES = """n_planes = 40
n_uavs = 0
enabled_kinds = POS,ID
channel_errors_enabled = false
seed = 1
"""
#: an aircraft's packet bound over the six kinds is 17,066 at 1,300 s, above
#: the engine's 16,384-slot key group (every preset at 500 s is at most
#: 6,567). At -78 dBm the four planes are gated and the UAVs are not; the
#: tracked UAV's POS keys follow the other UAV's packets
LONG_HORIZON = """n_planes = 4
n_uavs = 2
sensitivity_dbm = -78
duration_s = 1300
seed = 3
tracked_aircraft = 5
"""


def cli_output(argv: list[str], out: Path | None = None) -> bytes:
    """Stdout of one in-process CLI command, then NUL and its --out file if any."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"exit code {code}: {' '.join(argv)}")
    data = buf.getvalue().encode()
    return data if out is None else data + b"\0" + out.read_bytes()


def outputs(tmp: Path):
    """(name, bytes) of every covered output, in a fixed order."""
    for path in sorted((ROOT / "src" / "sim1090" / "presets").glob("*.scn")):
        preset = path.stem
        for seed in sorted({cli.load_preset(path.name).seed, 1, BENCH_SEED}):
            for fmt in ("json", "csv"):
                argv = ["run", "--scenario", preset, "--seed", str(seed), "--format", fmt]
                yield f"run-{preset}-s{seed}.{fmt}", cli_output(argv)
        argv = ["run", "--scenario", preset, "--reps", "3", "--format", "csv"]
        yield f"run-{preset}-reps3.csv", cli_output(argv)
    argv = ["sweep", "--scenario", "fig6", "--param", "noise_floor_dbm", "--values=-85,-80",
            "--reps", "2"]
    yield "sweep-fig6-noise_floor_dbm", cli_output(argv)
    for name, workload in WORKLOADS.items():
        out = tmp / f"{name}.out"
        yield f"bench-{name}", cli_output(workload.argv(BENCH_SEED, str(out)), out)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for demo in sorted((ROOT / "demos").glob("*.py")):
        proc = subprocess.run([sys.executable, str(demo)], cwd=tmp, env=env,
                              capture_output=True, check=True)
        yield f"demo-{demo.stem}", proc.stdout
    fig6 = (ROOT / "src" / "sim1090" / "presets" / "fig6.scn").read_text(encoding="utf-8")
    for name, extra in FIG6_VARIANTS.items():
        path = tmp / f"fig6-{name}.scn"
        path.write_text(f"{fig6}{extra}", encoding="utf-8")
        yield f"run-fig6-{name}.json", cli_output(["run", "--scenario", str(path)])
    for name, text in (("slow-kinds", SLOW_KINDS), ("fig3_50-40planes", FIG3_40_PLANES),
                       ("long-horizon", LONG_HORIZON)):
        path = tmp / f"{name}.scn"
        path.write_text(text, encoding="utf-8")
        yield f"run-{name}.json", cli_output(["run", "--scenario", str(path)])


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="sim1090-digests-") as tmp:
        for name, data in outputs(Path(tmp)):
            print(f"{name} {hashlib.sha256(data).hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
