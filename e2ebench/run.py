"""Benchmark entry point: one workload, one seed, one result line.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload train --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it records the environment the numbers were measured in.

The run pins its own environment before numpy loads: every ``REPRO_*``
variable is cleared (shipped defaults), ``REPRO_OBS=off``, one BLAS
thread; ``serve`` also keeps its arrays off fresh pages (see
:func:`pin_memory`).  It refuses to run while a fault profile is armed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("train", "sweep", "serve")
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def pin_environment() -> None:
    profile = os.environ.get("REPRO_FAULT_PROFILE", "").strip().lower()
    if profile not in ("", "none", "off"):
        raise SystemExit(f"refusing to benchmark with REPRO_FAULT_PROFILE={profile!r} armed")
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    os.environ["REPRO_OBS"] = "off"
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"


#: workloads whose memory behaviour :func:`pin_memory` pins
MEMORY_PINNED = ("serve",)
#: glibc ``mallopt`` parameters and the value each is pinned to
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
ALLOCATOR_PIN = {M_MMAP_THRESHOLD: 1 << 30, M_TRIM_THRESHOLD: 1 << 30}


def pin_memory() -> bool:
    """Serve arrays from malloc's heaps, never trimmed, on small pages.

    Must run before numpy loads.  With glibc's defaults every array
    above the (adaptive, at most 32 MiB) mmap threshold is a fresh
    mapping and freed heap tops are trimmed, so ``serve`` page-faults
    its working set in again on every batch: ~100k faults/s in the
    loaded phase, a quarter to a third of its CPU time in the kernel.
    What a fault costs depends on the host's memory traffic, so the
    figures drifted from run to run.  numpy also asks for huge pages on
    arrays of 4 MiB and more; the few the kernel grants land on
    different arrays in each process, which moved the loaded req/s by up
    to a quarter from one process to the next.

    ``train`` and ``sweep`` keep the defaults: they were steady without
    the pin, and with it ``train``'s peak RSS jumped by one 80 MB
    feature-sized array between runs, as freed blocks stayed in the heap.
    Returns whether the malloc pin took (glibc only).
    """
    import ctypes
    import ctypes.util

    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    try:
        mallopt = ctypes.CDLL(ctypes.util.find_library("c") or "libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    return all(mallopt(param, value) == 1 for param, value in ALLOCATOR_PIN.items())


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args, work, memory_pinned: bool) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": blas_threads(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "memory_pinned": memory_pinned,
        "threads_under_load": getattr(work, "threads", None),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    pin_environment()
    memory_pinned = args.workload in MEMORY_PINNED and pin_memory()
    here = Path(__file__).resolve().parent
    sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
        p for p in sys.path if Path(p or ".").resolve() != here
    ]
    from repro.resilience.faults import get_injector

    if get_injector().enabled:
        raise SystemExit("refusing to benchmark with fault injection enabled")

    from e2ebench import metrics, runner

    if args.workload == "train":
        from e2ebench.train import Train as Workload
    elif args.workload == "sweep":
        from e2ebench.sweep import Sweep as Workload
    else:
        from e2ebench.serve import Serve as Workload

    outcome = runner.Outcome()
    work = Workload(args.seed, outcome)
    try:
        values = runner.run(work, args.seconds, bool(args.trace))
    finally:
        work.close()
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    env = environment(args, work, memory_pinned)
    print(json.dumps({"environment": env}))
    line = metrics.result_line(outcome.failed == 0, outcome.attempted, outcome.failed, values)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
