"""One workload run in this process; started by ``perfbench/run.py``
with that script's own arguments.

Prints progress lines, then the result object as the last line.
"""

import sys

from harness import clock, process_started_at, run_workload, stop_children
from run import parse_args

STARTED_AT = process_started_at()


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "reduce-grid":
        from reduce_grid import ReduceGrid as Workload
    elif args.workload == "paper-pipeline":
        from paper_pipeline import PaperPipeline as Workload
    else:
        from serve_hot import ServeHot as Workload
    try:
        result = run_workload(
            Workload(args.seed), seconds=args.seconds,
            trace=bool(args.trace), started_at=STARTED_AT,
        )
    except BaseException:
        stop_children()  # the failure path leaves no pool worker behind
        raise
    print(f"run took {clock() - STARTED_AT:.1f} s; correct: "
          f"{result['correct']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
