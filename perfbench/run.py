"""ds2ta benchmark: one workload per invocation, one JSON result line.

    python3 perfbench/run.py --workload train_ds2ta --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  ``--trace 0`` prints the end-to-end metrics, measured
with no tracing; ``--trace 1`` wraps the package's functions, prints a
per-layer table and the per-layer metrics.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the environment record.  Exit code 0 on success, 1 when a
correctness check fails, 2 on a usage error or when the checkout has no
package source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train_ds2ta", "train_spatial")
# BLAS threads for every run.  Fixed, because the step time depends on it.
# One thread: on a shared 2-vCPU host the fastest step of a run spread by
# 11% between runs at 2 threads and by 4% at 1 thread, as the second thread
# waits whenever the host takes the other vCPU away.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def set_threads() -> int:
    """Pin the BLAS thread count, at most the usable CPUs, before numpy loads."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread count was set")
    n = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def environment(threads: int) -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ds2ta" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'ds2ta'}; run from a checkout",
              file=sys.stderr)
        return 2
    threads = set_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import trace, workloads  # imports ds2ta from src/
    from perfbench.checks import CheckError

    tracer = None
    if args.trace:
        tracer = trace.Tracer()
        tracer.install()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        outcome = workloads.train_workload(args.workload == "train_spatial", args.seed,
                                           args.seconds, workdir, tracer=tracer)
    except CheckError as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        outcome = workloads.Outcome(False, 1, 0, {}, {})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    if tracer is not None:
        tracer.uninstall()
    info = outcome.info
    if "table" in info:
        print(info.pop("table"))
    print(json.dumps({"env": environment(threads), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace, **info}))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
