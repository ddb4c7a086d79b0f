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
functions ``perfbench/layers.py`` wraps, not stages of ``run()``. The
environment (git commit, source hash, ``nproc``, numpy version and the rest of
perfbench's record environment) is written with them; ``src_clean`` says
whether ``src/`` matches the commit.

Usage, from the root of a source checkout::

    python3 tools/bench_record.py BENCH_2.json

One call takes about 11 minutes on a 2-core host. Run nothing else meanwhile:
the numbers are wall times.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from run import HELD_OUT_SEED, OUT_DIR, environment  # noqa: E402

SEEDS = (11, 12, 13, 14, 15, HELD_OUT_SEED)
TRACE_SEED = 11
TRACE_SECONDS = 1


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
    }
    Path(argv[0]).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
