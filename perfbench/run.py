"""Experiment benchmark for hypergraph_spectra.

Run from the repository root:

    python3 perfbench/run.py --workload surrogate_edge --seed 7 --seconds 12 --trace 0
    python3 perfbench/run.py --smoke

``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the per-layer
metrics named in BENCHMARK.json; the last line of standard output is one JSON
object.  The exit code is 0 only when every experiment passed the gate.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload master seed (default: the workload's own)")
    parser.add_argument("--seconds", type=int, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at one trial through the shims and gate")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "hypergraph_spectra").is_dir():
        print(f"no package source under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    if args.workload is not None and args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(bench.WORKLOADS)}")
    if args.smoke:
        bench.WORK_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=bench.WORK_DIR) as work:
            problems = bench.smoke(Path(work))
        for problem in problems:
            print(f"FAILED {problem}")
        print("smoke ok" if not problems else f"smoke: {len(problems)} problems")
        return 1 if problems else 0
    return bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
