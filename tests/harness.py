"""Event-driven driver for the production scheduler, used by oracle tests.

Submits a whole workload at t=0 and advances the clock straight to job
completion instants, calling the real ClusterState.tick between events.
Durations equal walltime bounds, matching the reference simulator's world.
"""

from __future__ import annotations

import heapq

from conftest import make_spec
from miniq.errors import Unsatisfiable
from miniq.sched import ClusterState, Node, Outcome


def run_cluster(
    node_slots: list[int],
    jobs: list[tuple[int, int, int]],
    node_features: list[frozenset] | None = None,
    job_features: list[frozenset] | None = None,
    backfill: bool = True,
) -> tuple[dict[int, int], list[int]]:
    """Returns (job index -> start tick, indexes that were ever a blocked head)."""
    nodes = [
        Node(
            id=f"n{i + 1}",
            slots_total=slots,
            features=node_features[i] if node_features else frozenset(),
        )
        for i, slots in enumerate(node_slots)
    ]
    state = ClusterState(nodes)
    index_of: dict[int, int] = {}
    for i, (nodes_wanted, slots, wall) in enumerate(jobs):
        feats = job_features[i] if job_features else frozenset()
        try:
            job_id = state.submit(
                make_spec(nodes=nodes_wanted, slots=slots, walltime_s=wall, features=feats),
                "/tmp", now=0,
            )
        except Unsatisfiable:
            continue
        index_of[job_id] = i

    starts: dict[int, int] = {}
    blocked_heads: list[int] = []
    seen_heads: set[int] = set()  # blocked_heads as a set, for the membership test
    ends: list[tuple[int, int]] = []  # (completion instant, job id)

    def run_pass(t) -> bool:
        events = state.tick(t, backfill=backfill)
        for event in events:
            starts[index_of[event.job_id]] = t
            heapq.heappush(ends, (t + state.jobs[event.job_id].spec.walltime_s, event.job_id))
        if state.queue:
            head_index = index_of[state.queue[0]]
            if head_index not in seen_heads:
                seen_heads.add(head_index)
                blocked_heads.append(head_index)
        return bool(events)

    # Scheduling passes run at t=0, at every completion instant, and at the
    # instant right after any pass that started something (a fresh start can
    # unblock a backfill candidate one tick later, e.g. by changing which
    # nodes first-fit would hand it).  A pass on unchanged state starts
    # nothing, so every other instant is safely skipped.  A retry instant is
    # the one right after the last pass, so no completion comes before it.
    retry_at = 1 if run_pass(0) else None
    while state.queue or ends:
        assert ends or retry_at is not None, "queue stuck with nothing running"
        next_t = ends[0][0] if retry_at is None else retry_at
        while ends and ends[0][0] == next_t:
            state.transition(heapq.heappop(ends)[1], Outcome.exit(0), next_t)
        retry_at = next_t + 1 if run_pass(next_t) else None

    return starts, blocked_heads
