"""Benchmark entry point; run from the root of a gdcn checkout.

    python3 benchmarks/run.py --workload gdc4-concrete --seed 1 --seconds 36 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``all`` runs every
workload, each in its own process. gdcn is imported from ``src/`` of the
checkout; without it the run exits with code 2. BLAS and OpenMP threads are
capped at the number of usable cores before numpy is imported.

Results (metrics, environment manifest, digests) and, for traced runs, the
spans are written to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("gdc4-concrete", "gdc4-arm", "dropout")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> None:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = nproc + 1
        if not 1 <= current <= nproc:
            os.environ[var] = str(nproc)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process; prints a combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        failed = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        try:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True, timeout=600, check=False)
        except subprocess.TimeoutExpired:
            print(f"# {name}: timed out")
            proc, lines = None, []
        else:
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = failed
        combined["correct"] &= (bool(result["correct"]) and proc is not None
                                and proc.returncode == 0)
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gdcn", "__init__.py")):
        print(f"error: no gdcn sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    cap_threads()
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import harness  # imports numpy, so only after the thread cap

    out_dir = os.path.join(HERE, "results")
    run = harness.Run(args.workload, args.seed, args.seconds)
    result = run.execute(bool(args.trace), out_dir)
    manifest = harness.manifest(ROOT, args.workload, args.seed, args.seconds,
                                bool(args.trace))
    harness.print_report(result, manifest)
    stem = result.pop("_stem")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"manifest": manifest, **result}, fh, indent=1)
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
