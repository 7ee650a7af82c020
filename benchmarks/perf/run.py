"""The benchmark's one command.

    python3 benchmarks/perf/run.py [--workload NAME ...] [--seed S]
                                   [--seconds T] [--trace [0|1]]

Runs each workload (default: all six) in its own fresh worker process,
one after another, prints every metric by name with its unit, checks
every sorted output, and ends each workload's report with one JSON line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of ``BENCHMARK.json`` (``--trace 0``) or
its per-layer metrics (``--trace 1``).  Everything measured, with a run
manifest, is also written to ``--out`` (default ``out/results.json``),
the input of ``compare.py``.  Exit code 1 on any correctness failure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable

if not __package__:  # started as a script: make the package importable (PEP 366)
    sys.path[0] = str(Path(__file__).resolve().parents[2])
    __package__ = "benchmarks.perf"

from . import contract

#: Set-up time is sampled in this many fresh processes per run (the
#: measuring worker and ``SETUP_SAMPLES - 1`` that only set up); the
#: median is reported, because a single cold start is the noisiest
#: reading the benchmark takes.
SETUP_SAMPLES = 5

#: One thread per workload: the closed loop has one operation in flight.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def measure_in_worker(
    workload: str, seed: int, seconds: float, traced: bool, scale: int, setup_only: bool = False
) -> dict:
    """Run ``worker.py`` in a fresh process; returns its result document."""
    env = {**os.environ, **THREAD_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(contract.SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    cmd = [
        sys.executable, "-m", f"{__package__}.worker",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(traced)), "--scale", str(scale),
    ]
    if setup_only:
        cmd.append("--setup-only")
    done = subprocess.run(cmd, cwd=contract.ROOT, env=env, stdout=subprocess.PIPE, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def manifest(args: argparse.Namespace) -> dict:
    """What produced the results: every artifact says so."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=contract.ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        sha = ""
    import numpy

    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "thread_env": THREAD_ENV,
    }


def report(doc: dict, traced: bool) -> str:
    """The workload's metrics as text, ending in the contract's JSON line."""
    section = "per_layer" if traced else "end_to_end"
    declared = contract.declared(section)
    values = doc[section]
    lines = [
        f"== {doc['workload']}  seed {doc['seed']}  "
        f"{len(doc['samples']['host_s'])} timed repetitions  "
        f"fail_ratio {doc['fail_ratio']:.6g} ({doc['failed']}/{doc['attempted']})"
    ]
    for name, entry in declared.items():
        note = f"better {entry['better']}"
        if "bound" in entry:
            note += f", bound {entry['bound']:.0%}"
        lines.append(f"  {name:42s} {values[name]:>16.6g} {entry['unit']:8s} [{note}]")
    for failure in doc["failures"]:
        lines.append(f"  FAILED {failure}")
    lines.append(
        json.dumps(
            {
                "correct": doc["correct"],
                "attempted": doc["attempted"],
                "failed": doc["failed"],
                "metrics": {
                    name: {"value": values[name], "unit": entry["unit"]}
                    for name, entry in declared.items()
                },
            }
        )
    )
    return "\n".join(lines)


def main(argv=None, measure: Callable[..., dict] = measure_in_worker) -> int:
    names = list(contract.declared("workloads"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", action="extend", choices=names,
                        help="workloads to run (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="added to every data seed")
    parser.add_argument("--seconds", type=float, default=contract.RUN_SECONDS,
                        help="how long each workload's timed repetitions run")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
                        help="also run the traced pass and the micro-runs; report per-layer metrics")
    parser.add_argument("--scale", type=int, default=1,
                        help="divide every input size by this (smoke runs)")
    parser.add_argument("--out", default=str(contract.OUT_DIR / "results.json"),
                        help="where the full results document goes")
    args = parser.parse_args(argv)
    if not (contract.SRC / "repro").is_dir():
        print(f"{contract.SRC / 'repro'} not found: nothing to benchmark", file=sys.stderr)
        return 2

    results = {"manifest": manifest(args), "workloads": {}}
    for name in args.workload or names:
        doc = measure(name, args.seed, args.seconds, bool(args.trace), args.scale)
        if not args.trace:
            samples = [doc["end_to_end"]["setup_s"]] + [
                measure(name, args.seed, args.seconds, False, args.scale, setup_only=True)["setup_s"]
                for _ in range(SETUP_SAMPLES - 1)
            ]
            doc["samples"]["setup_s"] = samples
            doc["end_to_end"]["setup_s"] = statistics.median(samples)
        results["workloads"][name] = doc
        print(report(doc, bool(args.trace)), flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    return 0 if all(doc["correct"] for doc in results["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
