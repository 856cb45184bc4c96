"""Reference scheduler for the `backlog` workload: FIFO with EASY backfill on
a virtual clock, written apart from `miniq.sched` and sharing no code with it.

The policy it states:

- The queue holds jobs in arrival order.  A job's placement is first-fit
  in node order: the first ``nodes`` nodes that each have ``ppn`` free slots
  and carry every requested feature.  Slots never span nodes.
- At an instant, jobs whose run ends release their slots, then arrivals
  join the queue, then one pass runs.
- A pass starts queue heads while they fit.  If more than one job still
  waits, the head gets a reservation: release the running jobs at
  start + walltime, all releases of one instant together, until the head
  fits; that instant is the shadow time and the nodes it would take are
  reserved.  Each later job, in queue order, starts now if it fits and either
  ends by the shadow time (counting its walltime) or avoids every reserved
  node.  The reservation is not recomputed within a pass.
- A pass runs at every arrival and every end, and one second after any pass
  that started a job: a start can change which nodes first-fit hands a
  waiting job.  Nothing else changes what a pass would do.

Jobs that could never fit on the idle cluster are dropped on arrival.
"""

from __future__ import annotations


def _place(free, node_feats, nodes, ppn, feats):
    """Node indexes for a request under first-fit, or None."""
    picked = []
    for k, slots in enumerate(free):
        if slots >= ppn and feats <= node_feats[k]:
            picked.append(k)
            if len(picked) == nodes:
                return picked
    return None


def _may_backfill(now, wall, shadow, picked, reserved) -> bool:
    """EASY's rule for a job behind a blocked head."""
    return now + wall <= shadow or reserved.isdisjoint(picked)


def simulate(node_slots, node_feats, jobs) -> dict[int, int]:
    """Start instant of every job.

    ``jobs`` is a list of (arrival, nodes, ppn, features, walltime, runtime)
    with arrivals in non-decreasing order and runtime <= walltime.  Returns
    job index -> start instant; dropped jobs are absent.
    """
    starts: dict[int, int] = {}
    for _ in steps(node_slots, node_feats, jobs, starts):
        pass
    return starts


def steps(node_slots, node_feats, jobs, starts: dict[int, int]):
    """``simulate`` one instant at a time: fills ``starts`` and yields each
    instant once its pass has run."""
    free = list(node_slots)
    arrival_order = sorted(range(len(jobs)), key=lambda j: jobs[j][0])
    waiting: list[int] = []
    running: dict[int, tuple[int, list[int]]] = {}  # job -> (start, nodes)
    cursor = 0
    retry_at = None

    def start(j, now, picked):
        ppn = jobs[j][2]
        for k in picked:
            free[k] -= ppn
        running[j] = (now, picked)
        starts[j] = now
        waiting.remove(j)

    while cursor < len(jobs) or running or waiting:
        instants = [s + jobs[j][5] for j, (s, _) in running.items()]
        if cursor < len(jobs):
            instants.append(jobs[arrival_order[cursor]][0])
        if retry_at is not None:
            instants.append(retry_at)
        if not instants:
            raise RuntimeError(f"jobs {waiting} wait with nothing running or due")
        now = min(instants)

        for j in [j for j, (s, _) in running.items() if s + jobs[j][5] == now]:
            for k in running.pop(j)[1]:
                free[k] += jobs[j][2]
        while cursor < len(jobs) and jobs[arrival_order[cursor]][0] == now:
            j = arrival_order[cursor]
            cursor += 1
            _, nodes, ppn, feats, _, _ = jobs[j]
            if sum(1 for k in range(len(free)) if node_slots[k] >= ppn
                   and feats <= node_feats[k]) >= nodes:
                waiting.append(j)

        started = False
        while waiting:
            _, nodes, ppn, feats, _, _ = jobs[waiting[0]]
            picked = _place(free, node_feats, nodes, ppn, feats)
            if picked is None:
                break
            start(waiting[0], now, picked)
            started = True

        if len(waiting) > 1:
            shadow, reserved = _reservation(free, node_feats, jobs, waiting[0], running)
            for j in list(waiting[1:]):
                _, nodes, ppn, feats, wall, _ = jobs[j]
                picked = _place(free, node_feats, nodes, ppn, feats)
                if picked is not None and _may_backfill(now, wall, shadow, picked, reserved):
                    start(j, now, picked)
                    started = True

        retry_at = now + 1 if started else None
        yield now


def _reservation(free, node_feats, jobs, head, running):
    """(shadow time, reserved node indexes) for the blocked head."""
    _, nodes, ppn, feats, _, _ = jobs[head]
    probe = list(free)
    by_instant: dict[int, list[int]] = {}
    for j, (s, _) in running.items():
        by_instant.setdefault(s + jobs[j][4], []).append(j)
    for instant in sorted(by_instant):
        for j in by_instant[instant]:
            for k in running[j][1]:
                probe[k] += jobs[j][2]
        picked = _place(probe, node_feats, nodes, ppn, feats)
        if picked is not None:
            return instant, set(picked)
    raise RuntimeError(f"head job {head} never fits")
