"""End-to-end benchmark of the sim1090 command line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload fig7_reps --seed 1 --seconds 30 --trace 0

One single-threaded process drives ``sim1090.cli.main(argv)`` in a closed
loop with one client: the next command starts when the previous one has
returned. Commands run in pairs with the same seed, so every second command
checks that outputs are byte-identical. A new pair starts only while the
pairs so far predict it will end within ``--seconds``; the first pair always
runs. Command seeds derive from ``--seed``. End-to-end times are scaled to
a reference host speed measured in the same run (see reference_kernel and
measure_setup); perfbench/README.md explains why.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each pair as
one untraced and one traced command and prints the per-layer metrics. The
last line of standard output is one JSON object; the full record (every
command's time and output SHA-256, the environment) goes to
``.perfbench/<workload>-seed<seed>-trace<t>.json`` and the spans of a traced
run to ``.perfbench/spans-<workload>.jsonl.gz``.
"""

import os

# single-threaded BLAS/OpenMP; must be set before numpy is first imported
BLAS_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
WORKLOAD_NAMES = ("fig7_reps", "density_sweep", "calibrate_fig5")
#: never used while the bounds were set; re-check performance claims on it
HELD_OUT_SEED = 130363
SETUP_REPEATS = 5
#: host seconds of one reference_kernel() call on the host whose speed the
#: command times are scaled to
REF_NOMINAL_S = 0.12
#: reference_kernel() calls at the start of a run and before each command
REF_SAMPLES = 3
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import sim1090.cli
sim1090.cli.load_preset({preset!r})
print(time.perf_counter() - t0)
"""
#: the set-up's reference: fresh-interpreter imports that use no sim1090 code
IMPORT_REF_CODE = """\
import time
t0 = time.perf_counter()
import numpy, json, decimal, email.parser, xml.dom.minidom, unittest
print(time.perf_counter() - t0)
"""
#: host seconds of IMPORT_REF_CODE on the host the set-up time is scaled to
IMPORT_REF_NOMINAL_S = 0.085


def command_seed(seed: int, pair: int) -> int:
    """Scenario seed of the pair-th command pair of a run with --seed seed."""
    digest = hashlib.blake2b(f"{seed}:{pair}".encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def reference_kernel() -> float:
    """Host seconds of a fixed numpy and Python computation that uses no sim1090 code.

    It mimics the simulator's mix (stream construction, draws, cumsum, sort,
    running maximum, bincount, a Python loop), so its time tracks how fast
    the host runs such work at the moment. On a shared virtual machine host
    speed can drift by a third over minutes, so command times are scaled by
    REF_NOMINAL_S / (median of this kernel's times in the same run).
    """
    start = time.perf_counter()
    n_blocks, n_emitters, per_emitter = 20, 60, 1000
    packets = 0
    for block in range(n_blocks):
        starts = []
        for i in range(n_emitters):
            rng = np.random.default_rng(np.random.SeedSequence((1090, block, i)))
            starts.append(np.cumsum(rng.uniform(0.4, 0.6, per_emitter)))
        start_s = np.concatenate(starts)
        owner = np.repeat(np.arange(n_emitters), per_emitter)
        order = np.lexsort((owner, start_s))
        start_s, owner = start_s[order], owner[order]
        running_end = np.maximum.accumulate(start_s + 1.2e-4)
        cluster = np.cumsum(np.r_[True, start_s[1:] >= running_end[:-1]])
        packets += int(np.bincount(cluster * 2 + owner % 2).sum())
    acc = 0
    for i in range(200_000):
        acc += i % 7
    if packets != n_blocks * n_emitters * per_emitter or acc != 599_994:
        raise RuntimeError("reference kernel computed a wrong result")
    return time.perf_counter() - start


def _child_seconds(code: str) -> float:
    """Run ``code`` in a fresh interpreter; return the seconds it prints."""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def measure_setup(preset: str) -> tuple[float, float]:
    """Time to import sim1090 and load the preset in a fresh interpreter.

    Returns the median host seconds and the median scaled to the reference
    speed: each set-up run follows a run of IMPORT_REF_CODE, whose time
    tracks the host's speed for interpreter start-up and imports; the kernel
    of reference_kernel() does not.
    """
    times, ratios = [], []
    for _ in range(SETUP_REPEATS):
        ref_s = _child_seconds(IMPORT_REF_CODE)
        times.append(_child_seconds(SETUP_CODE.format(preset=preset)))
        ratios.append(times[-1] / ref_s)
    return statistics.median(times), IMPORT_REF_NOMINAL_S * statistics.median(ratios)


def run_command(cli, workload, seed: int, out: Path, tracer) -> tuple[float, bytes | None]:
    """Time one ``cli.main`` call; return its seconds and output bytes (None on error)."""
    argv = workload.argv(seed, str(out))
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), span:
            code = cli.main(argv)
    except Exception:  # a crashing command is a failed op, not a crashed benchmark
        traceback.print_exc()
        return time.perf_counter() - start, None
    seconds = time.perf_counter() - start
    if code != 0 or not out.is_file():
        print(f"command failed with exit code {code}: {argv}", file=sys.stderr)
        return seconds, None
    return seconds, out.read_bytes()


def measure(cli, workload, seed: int, seconds: float, tracer) -> list[dict]:
    """Run command pairs for about ``seconds``; return one record per command."""
    from workloads import evaluate

    records: list[dict] = []
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        loop_start = time.perf_counter()
        k = 0
        # start a pair only if it should end within the run; the first always runs
        while k % 2 or k == 0 or (time.perf_counter() - loop_start) * (k + 2) / k <= seconds:
            cmd_seed = command_seed(seed, k // 2)
            traced = tracer is not None and k % 2 == 1
            out = Path(tmp) / f"command{k}.out"
            ref_s = [reference_kernel() for _ in range(REF_SAMPLES)]
            undo = []
            if traced:
                tracer.op = k
                undo, missing = layers.install(tracer)
                if missing and k == 1:
                    print(f"trace hooks not found: {', '.join(missing)}", file=sys.stderr)
            try:
                wall, output = run_command(cli, workload, cmd_seed, out, tracer if traced else None)
            finally:
                layers.uninstall(undo)
            previous = records[-1]["sha256"] if k % 2 else None
            outcome, sha = evaluate(workload, output, cmd_seed, previous)
            records.append({
                "command": k, "seed": cmd_seed, "traced": traced, "wall_s": wall, "ref_s": ref_s,
                "sha256": sha, "ops": outcome.ops, "failed": outcome.failed,
                "packets": outcome.packets,
            })
            k += 1
    return records


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        commit = proc.stdout.strip() or None
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "sim1090").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "thread_env": {name: os.environ.get(name) for name in BLAS_ENV},
    }


def end_to_end(records: list[dict], setup_s: float, speed: float) -> dict:
    """End-to-end metrics; command times are host seconds multiplied by ``speed``."""
    return {
        "wall_s": (speed * statistics.median(r["wall_s"] / r["ops"] for r in records), "s"),
        "pkts_per_s": (statistics.median(r["packets"] / r["wall_s"] for r in records) / speed, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(records: list[dict], tracer) -> tuple[dict, bool]:
    """Per-layer metrics and whether the trace is self-consistent."""
    traced = [r for r in records if r["traced"]]
    overheads = [r["wall_s"] - records[r["command"] - 1]["wall_s"] for r in traced]
    metrics = layers.layer_metrics(tracer.spans, tracer.counters, len(traced), overheads)
    run_s, self_s, children_s = layers.run_balance(tracer.spans)
    balanced = abs(run_s - (self_s + children_s)) <= 1e-9 * max(run_s, 1.0)
    print(f"engine.run over {len(traced)} traced commands: {run_s:.6f} s"
          f" = self {self_s:.6f} s + child spans {children_s:.6f} s")
    # every generated packet comes from a traced emission_times call
    packets = sum(r["packets"] for r in traced)
    counted = tracer.counters["traffic.packets"] == packets == tracer.counters["engine.generated"]
    if not counted:
        print(f"traced packet counts {dict(tracer.counters)} != checked {packets}", file=sys.stderr)
    return metrics, balanced and counted


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sim1090" / "__init__.py").is_file():
        print(f"error: no sim1090 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sim1090.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported sim1090 from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    first_ref_s = [reference_kernel() for _ in range(REF_SAMPLES)]
    setup_raw_s, setup_s = (None, None) if args.trace else measure_setup(workload.preset)
    tracer = Tracer() if args.trace else None
    records = measure(cli, workload, args.seed, args.seconds, tracer)
    ref_s = statistics.median(first_ref_s + [t for r in records for t in r["ref_s"]])

    attempted = sum(r["ops"] for r in records)
    failed = sum(r["failed"] for r in records)
    raw = None
    if tracer is None:
        metrics, consistent = end_to_end(records, setup_s, REF_NOMINAL_S / ref_s), True
        raw = end_to_end(records, setup_raw_s, 1.0)
    else:
        metrics, consistent = per_layer(records, tracer)
        tracer.write(OUT_DIR / f"spans-{workload.name}.jsonl.gz")
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = {
        "workload": workload.name, "seed": args.seed, "held_out": args.seed == HELD_OUT_SEED,
        "seconds": args.seconds, "trace": args.trace, "fail_frac": failed / attempted,
        "reference_s": ref_s, "unscaled_metrics": raw,
        "environment": environment(), "commands": records, "result": result,
    }
    (OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:24s} {value:14.6g} {unit}")
    print(f"{'fail_frac':24s} {failed / attempted:14.6g} ratio ({failed}/{attempted} ops)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
