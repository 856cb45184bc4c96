"""Executed lines per oracle schedule, a cost that does not depend on the
host's speed.

Takes every 200th workload of each cluster shape's exhaustive sweep, in the
order ``test_backfill_oracle_equivalence`` generates them, and runs it
through ``harness.run_cluster`` and through ``refsim.simulate`` under
``sys.settrace``.  Prints the mean number of line events per schedule in
every frame each call runs: the production path in total, its ``sched.py``
and ``harness.py`` shares, and ``refsim``.  The counts depend on the Python
version, not on the machine.

Run from the repository root, with nothing installed:

    python3 tests/oracle_cost.py
"""

from __future__ import annotations

import itertools
import os
import sys
from collections import Counter

TESTS = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [TESTS, os.path.join(os.path.dirname(TESTS), "src")]

import refsim  # noqa: E402
from harness import run_cluster  # noqa: E402
from test_acceptance import cluster_shapes, satisfiable_combos  # noqa: E402

STRIDE = 200


def sampled_sweep():
    """(node_slots, jobs) for every STRIDE-th workload of each shape's sweep."""
    for node_slots in cluster_shapes():
        combos = satisfiable_combos(node_slots)
        workloads = itertools.chain(
            *(itertools.product(combos, repeat=k) for k in range(1, 5)),
            itertools.combinations_with_replacement(combos, 5),
        )
        for workload in itertools.islice(workloads, 0, None, STRIDE):
            yield node_slots, list(workload)


def line_events(lines: Counter, fn, *args) -> None:
    """Run ``fn(*args)``, adding its line events, and those of every frame it
    calls, to ``lines`` by file name."""

    def trace(frame, event, arg):
        if event == "line":
            lines[os.path.basename(frame.f_code.co_filename)] += 1
        return trace

    sys.settrace(trace)
    try:
        fn(*args)
    finally:
        sys.settrace(None)


def main() -> int:
    production: Counter = Counter()
    reference: Counter = Counter()
    workloads = 0
    for node_slots, jobs in sampled_sweep():
        line_events(production, run_cluster, node_slots, jobs)
        line_events(reference, refsim.simulate, node_slots, jobs)
        workloads += 1
    print(f"workloads: {workloads} (every {STRIDE}th of each shape's sweep)")
    print(f"Python {sys.version.split()[0]}; line events per schedule:")
    for label, count in (("production total", sum(production.values())),
                         ("  sched.py", production["sched.py"]),
                         ("  harness.py", production["harness.py"]),
                         ("refsim", sum(reference.values()))):
        print(f"{label:<18} {count / workloads:8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
