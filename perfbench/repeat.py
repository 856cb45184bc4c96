"""Run the benchmark over several seeds and print each metric's spread.

    python3 perfbench/repeat.py [--workloads churn,backlog,attach]
        [--seeds 1-10] [--trace 0|1]

For every workload and metric: the median of the runs, the distance between
the first and third quartiles as a share of the median (the spread), and
every value.  Also the share of failed operations.  Each run lasts
``run_seconds`` from ``BENCHMARK.json``.  With ``--trace 1`` it lists the
end-to-end figures measured under tracing ("traced ...") before the
per-layer metrics.  Run from the root of a checkout; runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SECONDS = str(json.loads((RUN.parent.parent / "BENCHMARK.json").read_text())["run_seconds"])


def seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="churn,backlog,attach")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        shares = set()
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", SECONDS, "--trace", args.trace],
                capture_output=True, text=True)
            if out.returncode != 0:
                print(f"{workload} seed {seed} failed:\n{out.stderr}", file=sys.stderr)
                return 1
            lines = out.stdout.splitlines()
            result = json.loads(lines[-1])
            shares.add(result["failed"] / result["attempted"])
            metrics = result["metrics"]
            if args.trace == "1":  # the end-to-end figures under tracing, too
                traced = json.loads(lines[-2].split(":", 1)[1])
                metrics = {**{f"traced {k}": v for k, v in traced.items()}, **metrics}
            for name, metric in metrics.items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"\n{workload}: {len(args.seeds)} runs of {SECONDS} s, failed shares {sorted(shares)}")
        print("| metric | unit | median | spread | values |")
        print("| --- | --- | --- | --- | --- |")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            print(f"| {name} | {units[name]} | {median:.4g} | {(q3 - q1) / median:.3f} | "
                  + " ".join(f"{v:.4g}" for v in vals) + " |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
