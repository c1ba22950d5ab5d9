"""Benchmark entry point: run one hubridge workload and print its metrics.

    python3 perfbench/run.py --workload query_dense --seed 0 --seconds 6 --trace 0

Runs against the sources in ``src/`` next to this directory. With
``--trace 0`` it measures the end-to-end metrics with tracing off; with
``--trace 1`` it runs a fixed amount of work untraced and then traced and
reports the per-layer metrics. Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Scratch files go to
``.perfbench_tmp/`` in the checkout and are removed on exit.

BLAS threads are set explicitly before numpy loads, to the number of CPUs
this process may run on: the default a user gets.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def set_blas_threads() -> int:
    """Fix the BLAS/OpenMP thread count to nproc; must run before numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return n


def import_hubridge():
    """Import hubridge from this checkout's ``src/``, never from an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hubridge
    if Path(hubridge.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"hubridge was imported from {hubridge.__file__}, not {src}")
    return hubridge


def environment(threads: int) -> dict:
    import numpy
    import scipy

    def blas(mod) -> str:
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {"blas_threads": threads, "cpu_count": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(numpy), "scipy_blas": blas(scipy)}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the cleanup below
    threads = set_blas_threads()
    import_hubridge()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"expected one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    runner = workloads.run_traced if args.trace else workloads.run_untraced
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        result = runner(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass

    print("env " + json.dumps(environment(threads), sort_keys=True))
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, (value, unit) in {**result["metrics"], **result["text"]}.items():
        print(f"{name:32s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
