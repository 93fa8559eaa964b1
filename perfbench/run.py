"""EIRES benchmark: wall-clock cost and virtual detection latency, per layer.

Run from the repository root::

    python3 perfbench/run.py --workload q1-greedy-cost --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones (and writes the span records under ``.perfbench/``).  Both check every
replay against the §2.1 oracle.  A readable table goes to standard output
first; the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every replay was correct.

The benchmark measures the ``repro`` package under ``src/`` next to this
directory, and refuses to run without it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPAN_DIR = os.path.join(ROOT, ".perfbench")


def _parse(argv: list[str] | None, workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from measure import measure
    from workloads import WORKLOADS

    args = _parse(argv, sorted(WORKLOADS))
    spec = WORKLOADS[args.workload]
    report = measure(spec, args.seed, args.seconds, bool(args.trace), SPAN_DIR)

    print(f"{spec.name} (seed {args.seed}): {spec.segments} segments x {spec.segment_events} events")
    for check in report.checks:
        print(f"  check: {check}")
    print(f"  replays: {report.attempted} attempted, {report.failed} failed")
    for name, (value, unit) in report.metrics.items():
        print(f"  {name:32s} {value:16.4f} {unit}")
    for name, (value, unit) in report.shown.items():
        print(f"  {name:32s} {value:16.4f} {unit}  (reported, not gated)")
    print(json.dumps({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report.metrics.items()
        },
    }))
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
