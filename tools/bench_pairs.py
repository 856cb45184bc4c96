"""Run the benchmark on two commits in alternating pairs and record every run.

    python3 tools/bench_pairs.py BASE CHANGE --pairs N [--seconds S] \\
        [--workloads W ...] [--first-seed K] --out BENCH_<label>.json

The run length and workloads default to ``BENCHMARK.json``'s.  Each
commit is checked out with ``git worktree add --detach`` in a
temporary directory, and ``perfbench/run.py`` runs there untraced, as the
commit has it.  Pair ``i`` of a workload runs both commits on seed
``K + i``; the base goes first in even pairs and the change in odd ones, so
a drift in the host's speed falls on both sides alike.  ``tests/oracle_cost.py``
runs once on each side.  The worktrees are removed at the end.

The JSON file holds both commit ids, the host, every run (its metrics,
``correct``, ``attempted`` and ``failed``) and, per workload and end-to-end
metric of ``BENCHMARK.json``, each side's median and quartiles, the median
change relative to the base, whether it is inside the metric's bound, and
the pairs in which the change read better, worse or the same.  A run that
fails counts in ``failed_runs`` and gives no value.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def run_benchmark(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in ``checkout``: its last output line, or why it failed."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    run = {"seed": seed, "wall_s": round(time.perf_counter() - t0, 3), "exit": proc.returncode}
    try:
        result = json.loads(proc.stdout.splitlines()[-1])
        run.update(correct=result["correct"], attempted=result["attempted"],
                   failed=result["failed"],
                   metrics={name: m["value"] for name, m in result["metrics"].items()})
    except (IndexError, ValueError, KeyError, TypeError):
        run.update(correct=False, attempted=0, failed=0, metrics={},
                   stderr=proc.stderr[-2000:])
    return run


def quartiles(values: list[float]) -> dict:
    if not values:
        return {"values": [], "median": None, "q1": None, "q3": None}
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per-side totals and per-metric statistics of one workload's runs.

    Only a run that printed ``correct: true`` gives values, and a pair is
    compared only when both of its runs did.
    """
    good = [run for run in runs if run["correct"]]
    summary = {"attempted": {}, "failed": {}, "failed_runs": {}}
    for side in SIDES:
        mine = [run for run in runs if run["side"] == side]
        summary["attempted"][side] = sum(run["attempted"] for run in mine)
        summary["failed"][side] = sum(run["failed"] for run in mine)
        summary["failed_runs"][side] = sum(not run["correct"] for run in mine)
    by_pair = {}
    for run in good:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    summary["metrics"] = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        sides = {side: quartiles([run["metrics"][name] for run in good
                                  if run["side"] == side and name in run["metrics"]])
                 for side in SIDES}
        better = worse = same = 0
        for pair in by_pair.values():
            if len(pair) == 2:
                delta = sign * (pair["change"]["metrics"][name] - pair["base"]["metrics"][name])
                better, worse, same = better + (delta < 0), worse + (delta > 0), same + (delta == 0)
        base, change = sides["base"]["median"], sides["change"]["median"]
        relative = (change - base) / base if base and change is not None else None
        summary["metrics"][name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            **sides,
            "median_change": relative,
            "within_bound": None if relative is None else sign * relative <= metric["bound"],
            "pairs_change_better": better, "pairs_change_worse": worse, "pairs_same": same,
        }
    return summary


def oracle_cost(checkout: Path) -> str:
    proc = subprocess.run([sys.executable, "tests/oracle_cost.py"], cwd=checkout,
                          capture_output=True, text=True)
    if proc.returncode:
        return f"exit {proc.returncode}: {proc.stderr[-500:]}"
    return proc.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--workloads", nargs="+", help="default: every BENCHMARK.json workload")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    commits = {"base": git("rev-parse", "--verify", args.base + "^{commit}"),
               "change": git("rev-parse", "--verify", args.change + "^{commit}")}
    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    checkouts = {side: scratch / side for side in SIDES}
    try:
        for side in SIDES:
            git("worktree", "add", "--detach", str(checkouts[side]), commits[side])
        benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
        seconds = args.seconds or benchmark["run_seconds"]
        workloads = args.workloads or [workload["name"] for workload in benchmark["workloads"]]
        record = {
            "base": {"ref": args.base, "commit": commits["base"]},
            "change": {"ref": args.change, "commit": commits["change"]},
            "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                     "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                     "machine": platform.machine(), "system": platform.release()},
            "settings": {"pairs": args.pairs, "seconds": seconds, "trace": 0,
                         "first_seed": args.first_seed, "workloads": workloads,
                         "order": "base first in even pairs, change first in odd pairs"},
            "oracle_cost": {side: oracle_cost(checkouts[side]) for side in SIDES},
            "workloads": {},
        }
        for workload in workloads:
            runs = []
            for pair in range(args.pairs):
                seed = args.first_seed + pair
                for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                    run = run_benchmark(checkouts[side], workload, seed, seconds)
                    runs.append({"pair": pair, "side": side, **run})
                    print(f"{workload} pair {pair} {side}: "
                          f"{json.dumps(run.get('metrics') or run.get('stderr'))}", flush=True)
            record["workloads"][workload] = {**summarize(runs, benchmark["end_to_end"]),
                                             "runs": runs}
    finally:
        for side in SIDES:
            if checkouts[side].exists():
                subprocess.run(["git", "-C", str(REPO), "worktree", "remove", "--force",
                                str(checkouts[side])], capture_output=True)
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "-C", str(REPO), "worktree", "prune"], capture_output=True)

    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    for workload, result in record["workloads"].items():
        for name, m in result["metrics"].items():
            print(f"{workload} {name}: base {m['base']['median']} "
                  f"[{m['base']['q1']}, {m['base']['q3']}] -> change {m['change']['median']}, "
                  f"{m['median_change']!r} relative, within bound {m['within_bound']}, "
                  f"change better in {m['pairs_change_better']}/{args.pairs} pairs")
    failed = sum(sum(result["failed_runs"].values()) for result in record["workloads"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
