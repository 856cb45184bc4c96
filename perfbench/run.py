"""miniq benchmark: one command, three workloads, one JSON result line.

    python3 perfbench/run.py --workload churn|backlog|attach --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  Builds nothing: it runs ``src/miniq`` as
checked out.  With ``--trace 0`` the last line of standard output holds the
workload's end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run, and the line before it the end-to-end figures
measured under tracing.  A run whose output check fails prints the reason
on standard error and exits 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import sys

import common

WORKLOADS = ("churn", "backlog", "attach")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (common.SRC_DIR / "miniq" / "__init__.py").is_file():
        print(f"perfbench: no miniq package under {common.SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC_DIR))
    workload = importlib.import_module(args.workload)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install_client(tracer)

    try:
        result = workload.run(args.seed, args.seconds, tracer)
    except common.CheckFailed as exc:
        print(f"perfbench: {args.workload}: output check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(common.STATE_DIR, ignore_errors=True)

    print(f"perfbench: {args.workload}: {json.dumps(result.notes)}", file=sys.stderr)
    if args.trace:
        print("end-to-end under tracing:", json.dumps(result.metrics))
    print(json.dumps({
        "correct": True,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.layers if args.trace else result.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
