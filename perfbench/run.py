#!/usr/bin/env python3
"""retina-kit benchmark: train, eval and detect workloads, optionally traced.

Run from the root of a retina-kit checkout:

    python3 perfbench/run.py --workload eval --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn
    python3 perfbench/run.py --workload all --smoke  # tiny sizes, for the test

The program is imported from the checkout's ``src/``. With ``--trace 0`` the
last stdout line carries the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a traced run (spans are written under
``.perfbench/``). Scratch files live in ``.perfbench/`` and are removed
when the run ends.
"""

from __future__ import annotations

import argparse
import statistics
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

# One BLAS thread per process, set before numpy loads. On a few shared cores,
# OpenBLAS's default of one spinning thread per core slowed train operations
# 3-6x, unevenly, whenever another process ran. retina-kit's own pool
# (RETINA_KIT_THREADS) is left at the program's default.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("train", "eval", "detect")


def import_program():
    """Put the checkout's src/ first on the path and import retina_kit from it."""
    src = ROOT / "src"
    if not (src / "retina_kit" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        sys.exit(f"error: {ROOT} is not a retina-kit checkout (needs src/retina_kit and tests/oracles.py)")
    sys.path.insert(0, str(src))
    import retina_kit

    if Path(retina_kit.__file__).resolve().parent != (src / "retina_kit").resolve():
        sys.exit(f"error: imported retina_kit from {retina_kit.__file__}, not from {src}")


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "os.cpu_count": os.cpu_count(),
        "RETINA_KIT_THREADS": os.environ.get("RETINA_KIT_THREADS", "unset (program default)"),
        **{v: f"{n} (set by the benchmark)" for v, n in BLAS_THREADS.items()},
        "commit": git_commit(),
    }


def run_one(args) -> dict:
    import tracing
    import workloads

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    bench = workloads.WORKLOADS[args.workload](work, args.seed, sizes, tracer)
    try:
        outcome = bench.run(args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = dict(outcome.metrics)
    if args.trace:
        setups = [f"setup{k}" for k in range(len(bench.setup_times))]
        metrics = tracer.layer_metrics(outcome.traced_ops)
        for key in ("synth.synth_generate.calls", "synth.synth_generate.self_s"):
            metrics[key] = tracer.layer_metrics(setups)[key]  # synth runs only in set-up
        if outcome.latencies and outcome.traced_latencies:
            ratio = statistics.median(outcome.traced_latencies) / statistics.median(outcome.latencies)
            metrics["trace.overhead_ratio"] = (ratio, "ratio")
        spans = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        print(f"spans: {spans}")
        if tracer.absent:
            print(f"absent layers (no such function at this commit): {', '.join(tracer.absent)}")

    declared = declared_metrics(bool(args.trace))
    correct = outcome.failed == 0 and outcome.attempted > 0 and set(metrics) == set(declared)
    for note in outcome.notes:
        print(note)
    print(f"failed_ratio: {outcome.failed}/{outcome.attempted}"
          f" = {outcome.failed / max(1, outcome.attempted)}")
    print("environment: " + json.dumps(environment(), sort_keys=True))
    return {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def declared_metrics(trace: bool) -> list[str]:
    return [m["name"] for m in benchmark_spec()["per_layer" if trace else "end_to_end"]]


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory stays per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} ==")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None:
            print(f"{name}: exited {proc.returncode} without a result", file=sys.stderr)
            summary["correct"] = False
            continue
        for metric, value in result["metrics"].items():
            print(f"{name} {metric} = {value['value']} {value['unit']}")
            summary["metrics"][f"{name}.{metric}"] = value
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    import_program()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args)
        for name, m in result["metrics"].items():
            print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
