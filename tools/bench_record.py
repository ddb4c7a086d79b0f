"""Run the benchmark on this source tree and write its medians to one JSON file.

For every workload in ``BENCHMARK.json`` this runs ``perfbench/run.py``, one
process at a time:

- at ``--trace 0`` for seeds 11-15 and the held-out seed 130363, each for the
  benchmark's ``run_seconds``;
- at ``--trace 1 --seconds 1`` for seed 11.

It reads each run's record back from ``.perfbench/`` and keeps it only if the
record's ``environment.src_sha256`` is the hash of this tree's ``src/``, since
records there are overwritten by name and a copied tree carries old ones. The
file holds, per workload, the median and quartiles of each end-to-end metric
over the untraced runs with every run's value, the failed and attempted ops,
and the traced run's per-layer metrics. Those are hook spans around the
functions ``perfbench/layers.py`` wraps, not stages of ``run()``.

It also times these cases directly, in this process on this tree's ``src/``:

- one ``fig4`` run and one ``fig7`` run at seeds 1-5 (median wall time, and
  the median packets per second);
- ``run_replicated`` of ``fig6`` with 10 replications, ``REPEATS`` times
  (median and quartiles);
- ``calibrate_noise_floor(0.4866, fig5, n_reps=10)``, ``REPEATS`` times
  (median and quartiles);
- one run of the Tier-1 command, ``python -m pytest -q
  --continue-on-collection-errors`` with ``src`` on ``PYTHONPATH``.

Before and after each timed call it runs perfbench's ``reference_kernel()``
``REF_SAMPLES`` times, and writes the call's raw wall time (``raw_wall_s``)
and that time scaled to perfbench's reference host (``wall_s``): raw times
``REF_NOMINAL_S`` over the median of all those kernel times (``ref_s``), so
a change of the host's load during the call weighs in. Raw wall
times move with the host's load; the scaled ones can be compared across
calls, as perfbench's command times are. ``pkts_per_s`` is on the scaled
wall times, ``raw_pkts_per_s`` on the raw ones.

The environment (git commit, source hash, ``nproc``, numpy version and the rest of
perfbench's record environment) is written with them; ``src_clean`` says
whether ``src/`` matches the commit.

Usage, from the root of a source checkout::

    python3 tools/bench_record.py BENCH_2.json

One call takes about 13 minutes on a 2-core host. Run nothing else meanwhile:
the numbers are wall times.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import HELD_OUT_SEED, OUT_DIR, REF_NOMINAL_S, REF_SAMPLES, environment, reference_kernel  # noqa: E402

from sim1090.cli import load_preset  # noqa: E402
from sim1090.engine import run, run_replicated  # noqa: E402
from sim1090.metrics import calibrate_noise_floor  # noqa: E402

SEEDS = (11, 12, 13, 14, 15, HELD_OUT_SEED)
TRACE_SEED = 11
TRACE_SECONDS = 1
RUN_SEEDS = (1, 2, 3, 4, 5)
CALIBRATION_TARGET = 0.4866
#: timed calls of each of the fig6 x 10 and calibration cases
REPEATS = 3
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def bench(workload: str, seed: int, seconds: float, trace: int, src_sha256: str) -> dict:
    """Run perfbench once and return its record, checked to be of this tree."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    print(" ".join(argv[1:]), file=sys.stderr, flush=True)
    subprocess.run(argv, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    path = OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    if record["environment"]["src_sha256"] != src_sha256:
        raise SystemExit(f"{path} was not written from this tree's src/")
    return record


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def timed(fn) -> tuple[dict, object]:
    """Scaled and raw wall time of fn() with the reference-kernel median
    over the samples before and after it (see the module docstring), and
    fn()'s result."""
    samples = [reference_kernel() for _ in range(REF_SAMPLES)]
    start = time.perf_counter()
    out = fn()
    raw = time.perf_counter() - start
    samples += [reference_kernel() for _ in range(REF_SAMPLES)]
    ref_s = statistics.median(samples)
    return {"wall_s": raw * REF_NOMINAL_S / ref_s, "raw_wall_s": raw, "ref_s": ref_s}, out


def repeated(fn) -> tuple[dict, object]:
    """Median and quartiles of REPEATS timed(fn) calls, each with its own
    kernel samples, and the last call's result."""
    walls, results = zip(*(timed(fn) for _ in range(REPEATS)))
    return {name: quartiles([w[name] for w in walls]) for name in walls[0]}, results[-1]


def direct_cases() -> dict:
    """Wall times of the direct cases (see the module docstring)."""
    cases = {}
    for preset in ("fig4", "fig7"):
        cfg = load_preset(f"{preset}.scn")
        walls, packets = [], []
        for seed in RUN_SEEDS:
            wall, report = timed(lambda: run(cfg.with_overrides(seed=seed)))
            walls.append(wall)
            packets.append(report.generated_total)
        cases[f"{preset}_run"] = {
            "seeds": list(RUN_SEEDS),
            **{name: quartiles([w[name] for w in walls]) for name in walls[0]},
            "pkts_per_s": quartiles([p / w["wall_s"] for p, w in zip(packets, walls)]),
            "raw_pkts_per_s": quartiles([p / w["raw_wall_s"] for p, w in zip(packets, walls)]),
        }
    cases["fig6_reps10"], _ = repeated(lambda: run_replicated(load_preset("fig6.scn"), 10))
    wall, result = repeated(lambda: calibrate_noise_floor(CALIBRATION_TARGET, load_preset("fig5.scn"), n_reps=10))
    cases["calibrate_fig5_reps10"] = {**wall, "iterations": result.iterations,
                                      "noise_floor_dbm": result.noise_floor_dbm,
                                      "achieved_ratio": result.achieved_ratio}
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))}
    print(" ".join(TIER1[1:]), file=sys.stderr, flush=True)
    wall, tier1 = timed(lambda: subprocess.run(TIER1, cwd=ROOT, env=env, check=False,
                                               capture_output=True, text=True))
    cases["tier1"] = {**wall, "returncode": tier1.returncode,
                      "summary": (tier1.stdout.strip().splitlines() or [""])[-1]}
    return cases


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = environment()
    env["src_clean"] = None
    if env["git_commit"]:
        diff = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"], cwd=ROOT, check=False)
        env["src_clean"] = diff.returncode == 0
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(workload, seed, spec["run_seconds"], 0, env["src_sha256"]) for seed in SEEDS]
        traced = bench(workload, TRACE_SEED, TRACE_SECONDS, 1, env["src_sha256"])
        workloads[workload] = {
            "end_to_end": {
                m["name"]: {"unit": m["unit"], **quartiles(
                    [r["result"]["metrics"][m["name"]]["value"] for r in runs])}
                for m in spec["end_to_end"]
            },
            "correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "hook_spans": {"seed": TRACE_SEED, "seconds": TRACE_SECONDS, **traced["result"]},
        }
    doc = {
        "seeds": list(SEEDS),
        "run_seconds": spec["run_seconds"],
        "environment": env,
        "workloads": workloads,
        "direct": direct_cases(),
    }
    Path(argv[0]).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
