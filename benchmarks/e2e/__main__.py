"""``python -m benchmarks.e2e {run,compare}`` — see the package README."""

from __future__ import annotations

import argparse
import sys

from benchmarks.e2e.spec import WORKLOADS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure one workload, or all four")
    run.add_argument("--workload", choices=sorted(WORKLOADS), default=None)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--seconds",
        type=float,
        default=None,
        help="measured seconds (default: run_seconds in BENCHMARK.json)",
    )
    run.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="report the per-layer ledger instead of the end-to-end metrics",
    )
    run.add_argument(
        "--quick", action="store_true", help="measure a tenth of the seconds"
    )
    run.add_argument("--out", default=None, metavar="FILE", help="result file")
    compare = sub.add_parser(
        "compare", help="compare two result files, or two quoted globs of them"
    )
    compare.add_argument("a", help="base: FILE or 'GLOB'")
    compare.add_argument("b", help="change: FILE or 'GLOB'")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "compare":
        from benchmarks.e2e.compare import compare

        return compare(args.a, args.b)
    from benchmarks.e2e.runner import BenchmarkError, run

    try:
        return run(args)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
