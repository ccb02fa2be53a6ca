"""Benchmark entry point (see perfbench/README.md).

    python3 perfbench/run.py --workload wide-solve --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Prints a human-readable table, then,
as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric of BENCHMARK.json with ``--trace 0``, every per-layer
metric with ``--trace 1``.  Exits non-zero, printing no result, when
the program is missing or a measurement cannot be made.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from common import ROOT, WORK, BenchError, install_env, require_checkout

WORKLOADS = ("wide-solve", "php-audit", "serve-mix")


def _metric_names(key: str) -> list[str]:
    with open(ROOT / "BENCHMARK.json") as spec:
        return [m["name"] for m in json.load(spec)[key]]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_checkout()
        install_env()
        names = _metric_names("per_layer" if args.trace else "end_to_end")
        if args.workload == "serve-mix":
            import servemix

            run = servemix.measure_traced if args.trace else servemix.measure
        else:
            import inproc

            run = inproc.measure_traced if args.trace else inproc.measure
        report = run(args.workload, args.seed, args.seconds)
        report.emit(names)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
