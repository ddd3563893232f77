"""relgcn benchmark: one run of one workload, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the package is imported from
``src/``.  A run generates the workload's inputs (several times, each in
a fresh interpreter, timing each as set-up), then calls the workload's
pipeline entry point on them again and again, each call into a fresh
output directory and with the seed as the GCN seed, until ``--seconds``
have passed.  Every call's outputs are checked.  Every time reported is
scaled to a reference speed measured between the timed regions (see
harness.py).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a full
report goes to ``.perfbench_work/``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
untraced and traced calls alternate, and the metrics are the per-layer ones
of the traced calls plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import time
from pathlib import Path

STARTED = time.monotonic()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# The keys of workloads.WORKLOADS, named here so that argument parsing
# happens before numpy is imported.
WORKLOAD_NAMES = ("planted-750", "sweep-hidden-500", "sampled-topics")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Give BLAS one thread; must precede numpy.

    The whole run then keeps one core busy, the core whose speed the
    single-threaded reference kernel measures (see harness.py); a second
    BLAS thread would wait on a core that other tenants of a shared host
    also use.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return 1


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="relgcn benchmark: one workload run")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="input size; tiny is for the benchmark's self-tests")
    p.add_argument("--setup-into", type=Path, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    blas_threads_cap = cap_blas_threads()
    if not (SRC / "relgcn" / "__init__.py").is_file():
        print(f"error: no relgcn package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import relgcn

    if Path(relgcn.__file__).resolve().parent != (SRC / "relgcn").resolve():
        print(f"error: relgcn was imported from {relgcn.__file__}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_into is not None:
        workload.generate(args.setup_into, args.scale)
        return 0

    import harness

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        return harness.run(args, workload, run_dir, WORK,
                           harness.environment(blas_threads_cap), STARTED)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
