"""`backlog`: replay a synthetic trace through `ClusterState` on a virtual clock.

Each job has the fields of a job record in the Parallel Workloads Archive
(Feitelson, Tsafrir & Krakov, JPDC 2014): arrival time, nodes x ppn, an
optional feature, requested walltime and an actual runtime no longer than
it.  The distributions of those fields (the weights below) are assumptions
of this benchmark, not fitted to any published log or model.  Jobs arrive in
bursts separated by idle gaps, so the queue swings from empty to deep.  Set-up renders every job as a PBS or SLURM script, parses it
with ``parse_script`` and builds the cluster.  The replay then submits,
ticks and completes jobs in-process; no sockets, fsyncs or forks.  Every
job's start must equal the reference scheduler's (``refsched``).

Each round runs the reference on the same trace side by side with the
replay, the two taking turns over short slices of virtual time, and reports
the replay's wall time as a multiple of the reference's.  Both are
single-threaded Python on the same host within milliseconds of each other,
so the ratio is the cost of miniq's scheduling path against a fixed
yardstick, and the host's swings in speed, which move both, cancel out.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

import common
import layers
import refsched
import tracing
from common import check, p50

N_NODES, SLOTS, TAGGED = 32, 32, 8  # the last TAGGED nodes carry "gpu"
BURST = 200             # jobs per burst; every weight list below sums to 100
BURSTS = 12
# Assumed, not fitted: many small jobs, few wide ones, mostly short walltimes.
NODES_W = ([1, 2, 4, 8, 16], [50, 20, 15, 10, 5])
PPN_W = ([1, 4, 8, 16, 32], [10, 20, 30, 20, 20])
WALL_W = ([300, 900, 1800, 3600, 7200, 14400, 28800], [15, 15, 20, 20, 15, 10, 5])
GPU_W = ([True, False], [10, 90])
AT_LIMIT_W = ([True, False], [10, 90])  # jobs that run for exactly their walltime
IN_BURST_GAP_S = 5      # mean gap between arrivals within a burst
IDLE_GAP_S = 72 * 3600  # gap between bursts; every burst drains well within it
SLICE_S = 300           # virtual seconds the replay and the reference take turns over


def _deck(rng: random.Random, values: list, weights: list[int]) -> list:
    """BURST draws in which each value's share is exactly its weight."""
    deck = [v for v, w in zip(values, weights) for _ in range(w * BURST // 100)]
    rng.shuffle(deck)
    return deck


def make_trace(seed: int) -> list[tuple]:
    """(arrival, nodes, ppn, features, walltime, runtime) per job, by arrival.

    Each burst holds the same mix of shapes, walltimes and feature requests
    in a seeded order (stratified sampling), so the queue gets about as deep
    whatever the seed; arrival gaps and runtimes are drawn freely.
    """
    rng = random.Random(seed)
    jobs, now = [], 0
    for _ in range(BURSTS):
        burst = zip(_deck(rng, *NODES_W), _deck(rng, *PPN_W), _deck(rng, *WALL_W),
                    _deck(rng, *GPU_W), _deck(rng, *AT_LIMIT_W))
        for nodes, ppn, wall, gpu, at_limit in burst:
            now += int(rng.expovariate(1 / IN_BURST_GAP_S))
            feats = frozenset()
            if gpu:
                feats, nodes = frozenset({"gpu"}), min(nodes, TAGGED)
            run = wall if at_limit else rng.randint(1, wall)
            jobs.append((now, nodes, ppn, feats, wall, run))
        now += IDLE_GAP_S + rng.randint(0, 3600)
    return jobs


def render(i: int, job: tuple, pbs: bool) -> str:
    _, nodes, ppn, feats, wall, _ = job
    hms = f"{wall // 3600}:{wall // 60 % 60:02d}:{wall % 60:02d}"
    if pbs:
        node_spec = f"{nodes}:ppn={ppn}" + "".join(f":{f}" for f in sorted(feats))
        head = [f"#PBS -N bk{i}", f"#PBS -l nodes={node_spec}", f"#PBS -l walltime={hms}",
                "#PBS -j oe"]
    else:
        head = [f"#SBATCH --job-name=bk{i}", f"#SBATCH --nodes={nodes}",
                f"#SBATCH --ntasks-per-node={ppn}", f"#SBATCH --time={hms}"]
        head += [f"#SBATCH --constraint={f}" for f in sorted(feats)]
    return "\n".join(["#!/bin/bash", *head, "", f"srun ./solver --case {i}", ""])


def setup(seed: int):
    """Trace, parsed specs and a fresh cluster: everything before the first pass."""
    from miniq import jobspec
    from miniq.sched import ClusterState, Node

    trace = make_trace(seed)
    rng = random.Random(seed + 1)
    specs = []
    for i, job in enumerate(trace):
        spec = jobspec.parse_script(render(i, job, rng.random() < 0.5)).spec
        check((spec.resources.nodes, spec.resources.slots_per_node, spec.resources.features,
               spec.walltime_s) == job[1:5], f"job {i} parsed as {spec}")
        specs.append(spec)
    nodes = [Node(id=f"n{k + 1}", slots_total=SLOTS, features=feats)
             for k, feats in enumerate(node_features())]
    return trace, specs, ClusterState(nodes)


def node_features() -> list[frozenset]:
    return [frozenset({"gpu"}) if k >= N_NODES - TAGGED else frozenset() for k in range(N_NODES)]


def replay(trace: list[tuple], specs: list, state, starts: dict[int, int]):
    """Drive the cluster through the trace, one instant at a time: fills
    ``starts`` (job -> start) and yields each instant once its pass has run."""
    from miniq.sched import Outcome

    ends: list[tuple[int, int]] = []  # (instant, job id)
    index_of: dict[int, int] = {}
    cursor, retry_at = 0, None
    while cursor < len(trace) or ends or state.queue:
        instants = [t for t in (ends[0][0] if ends else None,
                                trace[cursor][0] if cursor < len(trace) else None,
                                retry_at) if t is not None]
        check(bool(instants), f"jobs {state.queue} wait with nothing running")
        now = min(instants)
        while ends and ends[0][0] == now:
            state.transition(heapq.heappop(ends)[1], Outcome.exit(0), now)
        while cursor < len(trace) and trace[cursor][0] == now:
            index_of[state.submit(specs[cursor], "/bench", now)] = cursor
            cursor += 1
        events = state.tick(now)
        for event in events:
            i = index_of[event.job_id]
            starts[i] = now
            heapq.heappush(ends, (now + trace[i][5], event.job_id))
        # A start can change which nodes first-fit hands a waiting job, so a
        # pass that started something is followed by one a second later.
        retry_at = now + 1 if events else None
        yield now


def race(trace: list[tuple], specs: list, state) -> tuple[dict, dict, dict]:
    """Run the replay and ``refsched`` side by side on the same trace, in
    slices of ``SLICE_S`` virtual seconds, the side that goes first
    alternating; each side's wall time is summed over its slices."""
    starts: dict[int, int] = {}
    expected: dict[int, int] = {}
    sides = [replay(trace, specs, state, starts),
             refsched.steps([SLOTS] * N_NODES, node_features(), trace, expected)]
    clock, spent, instants = [-1, -1], [0.0, 0.0], [0, 0]
    live = [True, True]
    slices = 0
    while any(live):
        horizon = min(c for c, alive in zip(clock, live) if alive) + SLICE_S
        order = (0, 1) if slices % 2 else (1, 0)
        slices += 1
        for k in order:
            if not live[k] or clock[k] >= horizon:
                continue
            t0 = time.perf_counter()
            while clock[k] < horizon:
                now = next(sides[k], None)
                if now is None:
                    live[k] = False
                    break
                clock[k] = now
                instants[k] += 1
            spent[k] += time.perf_counter() - t0
    return starts, expected, {"replay_s": spent[0], "ref_s": spent[1], "passes": instants[0]}


def run_round(seed: int) -> dict:
    # The previous round's cluster is garbage by now; collecting it before
    # the clock starts gives every set-up the same heap to allocate into.
    gc.collect()
    t0 = time.perf_counter()
    trace, specs, state = setup(seed)
    t1 = time.perf_counter()
    starts, expected, timing = race(trace, specs, state)
    check(len(starts) == len(trace), f"{len(trace) - len(starts)} jobs never started")
    for i, start in starts.items():
        check(start >= trace[i][0], f"job {i} started at {start} before arriving at {trace[i][0]}")
        check(start == expected[i], f"job {i} started at {start}, reference says {expected[i]}")
    return {"setup_s": t1 - t0, "jobs": len(trace), **timing}


def run(seed: int, seconds: float, tracer) -> common.Result:
    if tracer:
        tracing.install(tracer)
    rounds = []
    t_end = time.monotonic() + seconds
    while not rounds or time.monotonic() < t_end:
        rounds.append(run_round(seed))

    result = common.Result(attempted=sum(r["jobs"] + r["passes"] for r in rounds))
    result.notes["rounds"] = len(rounds)
    result.notes["passes"] = rounds[0]["passes"]
    result.notes["sim_jobs_per_s"] = p50([r["jobs"] / r["replay_s"] for r in rounds])
    result.put("setup_s", p50([r["setup_s"] for r in rounds]), "s")
    # The cluster state lives in this process; so do the trace and the reference.
    result.put("peak_rss_mb", common.peak_rss_mb(), "MB")
    result.put("op_vs_ref", p50([r["replay_s"] / r["ref_s"] for r in rounds]), "ratio")
    if tracer:
        result.put_layers(layers.metrics(layers.Inputs(
            rounds=len(rounds), work=tracing.Spans(tracer.frozen(), tracer.counts))))
    return result
