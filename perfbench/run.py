"""The repository benchmark: ``qbss-replay``, ``qbss-serve`` and the remote
backend, measured end to end from outside the program.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload replay_cold --seed 1 --seconds 15 --trace 0

``--trace 0`` runs the workload untraced and prints its end-to-end
metrics; ``--trace 1`` is the separate traced run that prints the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
name each metric with its unit.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    DEFINITION_VERSION,
    FULL,
    ROOT,
    TINY,
    BenchError,
    check_checkout,
    machine_record,
    new_run_dir,
    operations,
    steal_ticks,
)

SPEC_PATH = ROOT / "BENCHMARK.json"
SPEC = json.loads(SPEC_PATH.read_text()) if SPEC_PATH.exists() else None
WORKLOADS = ("replay_cold", "replay_warm", "serve", "replay_remote")


def units(section: str) -> dict[str, str]:
    if SPEC is None:
        raise BenchError("BENCHMARK.json not found next to the benchmark")
    return {m["name"]: m["unit"] for m in SPEC[section]}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="generates every input the program receives")
    parser.add_argument("--seconds", type=int, required=True,
                        help="sizes the run: a fixed number of operations of "
                        "about this many seconds on the reference machine")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced run printing per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        check_checkout()
        expected = units("per_layer" if args.trace else "end_to_end")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    sizes = TINY if args.tiny else FULL
    n_ops = operations(args.workload, args.seconds, sizes)
    print(
        f"perfbench v{DEFINITION_VERSION}: {args.workload} seed={args.seed} "
        f"ops={n_ops} trace={args.trace} machine={json.dumps(machine_record())}",
        file=sys.stderr,
    )
    run_dir = new_run_dir(f"{args.workload}-{args.seed}-t{args.trace}")
    steal_before, start = steal_ticks(), time.monotonic()
    try:
        if args.trace:
            from layers import TRACED

            result = TRACED[args.workload](run_dir, args.seed, n_ops, sizes)
            values, problems = result.metrics, result.problems
            attempted, failed = result.attempted, result.failed
        else:
            from workloads import RUNNERS

            outcome = RUNNERS[args.workload](run_dir, args.seed, n_ops, sizes)
            values, problems = outcome.end_to_end(), outcome.problems
            attempted, failed = outcome.attempted, outcome.failed
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if set(values) != set(expected):
        print(
            f"perfbench: metric names {sorted(values)} do not match "
            f"BENCHMARK.json {sorted(expected)}",
            file=sys.stderr,
        )
        return 1
    steal = (steal_ticks() - steal_before) / os.sysconf("SC_CLK_TCK")
    print(
        f"host steal during the run: {steal:.1f} CPU-s of "
        f"{(time.monotonic() - start) * (os.cpu_count() or 1):.1f}",
        file=sys.stderr,
    )
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name in expected:
        print(f"{name:36s} {values[name]:.6g} {expected[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": expected[name]} for name in expected
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
