"""Benchmark entry point.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

runs one workload in this process and prints a human-readable report, then,
as its last line, one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones).  It exits 1 when a correctness check failed.  ``--workload all`` runs
every workload, each in a process of its own.
Run it from any directory; it builds nothing and reads the package from
``src/`` next to this directory.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("desk", "paper", "evaluate_corpus")
DEFAULT_SEED = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_all(args: argparse.Namespace) -> int:
    worst = 0
    for name in WORKLOADS:
        child = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                                "--seconds", str(args.seconds), "--trace", str(args.trace)], check=False)
        worst = max(worst, child.returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "emoexplain" / "__init__.py").is_file():
        print(f"error: no emoexplain package under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    # OpenBLAS reads its thread count when numpy loads, so set it before any
    # import of numpy.  One thread: with two on a 2-core machine, paper's
    # generation rates spread 6-10% between identical runs, with one 1-2%.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    import workloads

    work_dir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        result = harness.measure(workloads.WORKLOADS[args.workload], args.seed, args.seconds,
                                 bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("\n".join(harness.report_lines(result)))
    harness.write_outputs(result, ROOT / ".bench_out")
    print(harness.final_line(result))
    return 1 if result.tally.failures else 0


if __name__ == "__main__":
    sys.exit(main())
