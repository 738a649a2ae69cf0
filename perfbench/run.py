"""The repository benchmark: one workload, one seed, one JSON verdict.

Usage (from the repository root)::

    python3 perfbench/run.py --workload des-retwis-cpc --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer split.  A table with units and sample counts goes to stdout
first; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Workloads, metrics and the
layer -> end-to-end predictions are described in ``perfbench/README.md``
and ``perfbench/predictions.json``.

The program under test is imported from ``src/`` next to this
directory; without it the benchmark exits with status 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Where the traced run writes its spans.
SPANS_DIR = os.path.join(ROOT, "perfbench", "out")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="wall seconds one run measures "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-divergence", action="store_true",
                        help="overwrite one replica's copy of a written "
                             "key before the verdict (the verdict must "
                             "then report the run as failed)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench.common import BenchmarkError
    from perfbench.harness import run_end_to_end, run_per_layer
    from perfbench.spec import RUN_SECONDS, WORKLOADS, units

    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else RUN_SECONDS
    try:
        if args.trace:
            outcome = run_per_layer(wl, args.seed, spans_dir=SPANS_DIR)
        else:
            outcome = run_end_to_end(wl, args.seed, seconds,
                                     plant=args.plant_divergence)
    except BenchmarkError as exc:
        print(f"perfbench: benchmark error: {exc}", file=sys.stderr)
        return 3

    unit_of = units()
    verdict = "ok" if outcome.correct else "FAILED"
    print(f"# {wl.name} seed={args.seed} trace={args.trace} "
          f"verdict={verdict} attempted={outcome.attempted} "
          f"failed={outcome.failed}")
    for violation in outcome.violations[:20]:
        print(f"#   {violation}")
    for name, value in outcome.metrics.items():
        samples = outcome.samples.get(name)
        tail = f"  (n={samples})" if samples is not None else ""
        print(f"{name:48s} {value:14.6g} {unit_of[name]}{tail}")
    print(json.dumps(outcome.to_json()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
