"""Run one workload of the repository's benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` turns on the program's tracer and prints the per-layer
metrics with the layer table and the tracing overhead.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--size smoke`` shrinks every input for
the benchmark's own tests.  The program is imported from ``src/`` next
to this directory; without it the run fails before measuring anything.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("certify", "soundness", "churn")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {source}", file=sys.stderr)
        return 2
    # pool workers are spawned with this sys.path, so they import the
    # same sources and the benchmark's own worker functions
    sys.path.insert(0, str(source))

    import importlib

    import harness

    workload = importlib.import_module(f"workload_{args.workload}")
    result = harness.run(workload, args.seed, args.seconds, bool(args.trace),
                         args.size)
    # pools started a resource-tracker process; end it and wait for it
    # here rather than leave it to notice this process's exit
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
