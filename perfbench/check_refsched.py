"""Check the `backlog` reference scheduler against the test suite's oracle.

    python3 perfbench/check_refsched.py

``tests/refsim.py`` steps a clock one tick at a time with every job queued at
t=0 and running for exactly its walltime.  On ``CASES`` small workloads of
that kind, drawn from ``SEED``, ``refsched.simulate`` must give every job the
same start.  The check then breaks the reference's backfill rule (ignore
the head's reservation; never backfill) and requires each broken policy to
disagree with the oracle on some workload, which shows the comparison can
catch a wrong policy.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import refsched

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import refsim  # noqa: E402  (the test suite's oracle)

CASES = 5000
SEED = 1
FEATURES = [frozenset(), frozenset({"gpu"}), frozenset({"big"}), frozenset({"gpu", "big"})]


def workload(rng: random.Random):
    n_nodes = rng.randint(1, 4)
    node_slots = [rng.randint(1, 8) for _ in range(n_nodes)]
    node_feats = [rng.choice(FEATURES) for _ in range(n_nodes)]
    jobs = [(rng.randint(1, 3), rng.randint(1, 8), rng.randint(1, 6))
            for _ in range(rng.randint(1, 8))]
    job_feats = [rng.choice(FEATURES[:3]) if rng.random() < 0.3 else frozenset() for _ in jobs]
    return node_slots, node_feats, jobs, job_feats


def disagreements(cases: list) -> int:
    bad = 0
    for node_slots, node_feats, jobs, job_feats in cases:
        expected = refsim.simulate(node_slots, jobs, node_feats, job_feats)
        timed = [(0, n, s, f, w, w) for (n, s, w), f in zip(jobs, job_feats)]
        bad += refsched.simulate(node_slots, node_feats, timed) != expected
    return bad


def main() -> int:
    rng = random.Random(SEED)
    cases = [workload(rng) for _ in range(CASES)]

    ok = True
    bad = disagreements(cases)
    print(f"reference vs tests/refsim: {bad} of {len(cases)} workloads disagree")
    ok &= bad == 0

    correct_rule = refsched._may_backfill
    broken = {
        "backfill ignoring the head's reservation": lambda now, wall, shadow, picked, res: True,
        "no backfill": lambda now, wall, shadow, picked, res: False,
    }
    for label, rule in broken.items():
        refsched._may_backfill = rule
        try:
            bad = disagreements(cases)
        finally:
            refsched._may_backfill = correct_rule
        print(f"{label}: {bad} of {len(cases)} workloads disagree")
        ok &= bad > 0
    print("ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
